"""Series fingerprints of the engine paths the goldens do not reach.

``tests/experiments/test_golden.py`` pins the universal matchmaker in
preference mode.  The runs below pin the other branches of the dispatch
path — class-dependent candidate sets under departures, the formula
consumer intentions, per-class provider preferences, and flapping
providers — with SHA-256 digests recorded before the per-query kernels
were rewritten, so any drift in those branches trips here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation.base import AllocationMethod
from repro.simulation.config import DepartureRules, WorkloadSpec, tiny_config
from repro.simulation.engine import MediatorSimulation
from repro.simulation.matchmaking import CapabilityMatchmaker
from repro.sweeps.scenarios import scenario_catalog
from tests.experiments.test_golden import _series_fingerprint

METHODS = ("sqlb", "capacity", "mariposa")
SEED = 5


def _capability() -> np.ndarray:
    # Class 0 skips every third provider, class 1 every fourth: two
    # distinct, overlapping candidate sets.
    providers = np.arange(16)
    return np.stack((providers % 3 != 0, providers % 4 != 1), axis=1)


def _capability_run(method):
    config = tiny_config(
        duration=120.0, workload=WorkloadSpec.fixed(1.0)
    ).with_departures(DepartureRules.autonomous(True))
    return MediatorSimulation(
        config,
        method,
        seed=SEED,
        matchmaker=CapabilityMatchmaker(_capability()),
    ).run()


def _formula_run(method):
    config = tiny_config(
        duration=60.0, consumer_intention_mode="formula", upsilon=0.5
    )
    return MediatorSimulation(config, method, seed=SEED).run()


def _per_query_class_run(method):
    config = tiny_config(duration=60.0, provider_pref_mode="per_query_class")
    return MediatorSimulation(config, method, seed=SEED).run()


def _captive_flap_run(method):
    config = scenario_catalog("tiny", names=("captive_flap",))[
        "captive_flap"
    ].config
    return MediatorSimulation(config, method, seed=SEED).run()


RUNS = {
    "capability": _capability_run,
    "formula": _formula_run,
    "per_query_class": _per_query_class_run,
    "captive_flap": _captive_flap_run,
}

#: SHA-256 of every sampled series (see ``_series_fingerprint``),
#: recorded on the engine before the kernel rewrite.
SERIES_SHA256 = {
    ("capability", "sqlb"):
        "b537af1a9b388c4743f4fa25161b7fe011d9a6e399d5f41a7c6537186bbcd3fe",
    ("capability", "capacity"):
        "a039513c217af8dde679aa2f3e245fab47b43d4295e9b1d9cb7838f994c2c236",
    ("capability", "mariposa"):
        "16a51a49240b72e1989ec4e53820117f0c25293d84ebafc3fe6e96ad2d76f162",
    ("formula", "sqlb"):
        "f447a5ed05ef790e578f9b799d51b2b172be83cc098753f05451e0da0f28a785",
    ("formula", "capacity"):
        "3c58ad7d37dc31ab9379f10646ca5517693daf68880622c35e58627ee6db65a8",
    ("formula", "mariposa"):
        "2443c6d589e0ec57ccbd500c3f43a465b1309a6a1abeed610a1637b305d39456",
    ("per_query_class", "sqlb"):
        "8e0097fa7f655e6c9cfd8113ac9d5a3bcd23f855f4eda1d7e065fa3550ec3437",
    ("per_query_class", "capacity"):
        "2a95c739c2710d38a8e3dd42368b8064674e2affa23459c45024712f59803787",
    ("per_query_class", "mariposa"):
        "09c58572698d9bd15c5d77b8bea1b184b4df0118ab9a9f014b218ca06408171b",
    ("captive_flap", "sqlb"):
        "5378fdaeb1c9d248d74d69e5aa1fc08b4d062cf85208aa7b562542c61aee32c0",
    ("captive_flap", "capacity"):
        "c0f719607ca443256688fc4405a151723d46e9f45355e97c34aca0495b66fe37",
    ("captive_flap", "mariposa"):
        "6a4e4db20c9aedf546c917bc314b8900b28b51fba38d6b11f9cb13563ccb7051",
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("label", sorted(RUNS))
def test_series_match_pinned_fingerprints(label, method):
    result = RUNS[label](method)
    assert _series_fingerprint(result) == SERIES_SHA256[(label, method)]


def test_capability_run_moves_the_candidate_sets():
    """The capability run exercises what it is pinned for: departures
    (pool epoch bumps) over two distinct per-class candidate sets."""
    result = _capability_run("sqlb")
    assert any(d.kind == "provider" for d in result.departures)


class _ScribblingMethod(AllocationMethod):
    name = "scribbler"

    def select(self, request):
        request.consumer_intentions[0] = 1.0
        return np.array([0])


def test_methods_cannot_write_consumer_intentions():
    """Cached consumer intentions are shared by every query of that
    consumer; a method writing into them must fail loudly instead of
    corrupting the next query."""
    with pytest.raises(ValueError, match="read-only"):
        MediatorSimulation(
            tiny_config(duration=30.0), _ScribblingMethod(), seed=SEED
        ).run()

