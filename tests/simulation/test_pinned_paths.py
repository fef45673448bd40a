"""Series fingerprints of the engine paths the goldens do not reach.

``tests/experiments/test_golden.py`` pins the universal matchmaker in
preference mode.  The runs below pin the other branches of the dispatch
path — class-dependent candidate sets under departures, the formula
consumer intentions, per-class provider preferences, and flapping
providers — with SHA-256 digests recorded before the per-query kernels
were rewritten, so any drift in those branches trips here.  The
``q.n > 1`` runs pin the multi-provider allocation record (several
performed positions per push, several queue and utilisation steps per
query) with digests recorded before it moved from candidate-width masks
to the selected positions.
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



class _CandidateScribblingMethod(AllocationMethod):
    name = "candidate-scribbler"

    def __init__(self, field: str) -> None:
        self.field = field

    def select(self, request):
        array = getattr(request, self.field)
        array[0] = array[1]
        return np.array([0])


@pytest.mark.parametrize("field", ("candidates", "capacities"))
def test_methods_cannot_write_cached_candidate_entries(field):
    """The cached candidate entry is shared by every query of its class
    until the pool epoch moves, and identity-keyed caches trust it; a
    method writing into it must fail loudly instead of corrupting the
    epoch (a duplicated candidate would silently drop a ring-log row)."""
    with pytest.raises(ValueError, match="read-only"):
        MediatorSimulation(
            tiny_config(duration=30.0),
            _CandidateScribblingMethod(field),
            seed=SEED,
        ).run()


def _qn2_run(method):
    config = tiny_config(duration=80.0, queries_per_request=2)
    return MediatorSimulation(config, method, seed=SEED).run()


def _qn10_three_providers_run(method):
    # q.n exceeds the population: every provider performs every query.
    config = tiny_config(
        n_providers=3, duration=60.0, queries_per_request=10
    )
    return MediatorSimulation(config, method, seed=SEED).run()


def _qn3_autonomous_run(method):
    # Departures shrink the candidate set, so the ring log takes its
    # lockstep row-subset path with three performed positions a push.
    config = tiny_config(
        duration=120.0,
        workload=WorkloadSpec.fixed(1.0),
        queries_per_request=3,
    ).with_departures(DepartureRules.autonomous(True))
    return MediatorSimulation(config, method, seed=SEED).run()


MULTI_PROVIDER_RUNS = {
    "qn2": _qn2_run,
    "qn10_three_providers": _qn10_three_providers_run,
    "qn3_autonomous": _qn3_autonomous_run,
}

#: SHA-256 of every sampled series, recorded while the engine still
#: recorded allocations through candidate-width performed masks.
MULTI_PROVIDER_SERIES_SHA256 = {
    ("qn2", "sqlb"):
        "fb13cbf512833b43c53511f37e879502e10269b5a402f79ae64cfd11e6a26393",
    ("qn2", "capacity"):
        "9835e99d8ab96258c93eb99a6dcc702523f04d0605f84c613b4b34c6d07daa46",
    ("qn2", "mariposa"):
        "988401bec147395ca1f73476cd29ad319591c8e0f381134bf0e2029b7131267d",
    ("qn10_three_providers", "sqlb"):
        "12421f2660dc35db73c1dd0da4ba6a1d596242f7c7c558e7c3784b5189e270e6",
    ("qn10_three_providers", "capacity"):
        "12421f2660dc35db73c1dd0da4ba6a1d596242f7c7c558e7c3784b5189e270e6",
    ("qn10_three_providers", "mariposa"):
        "12421f2660dc35db73c1dd0da4ba6a1d596242f7c7c558e7c3784b5189e270e6",
    ("qn3_autonomous", "sqlb"):
        "be271818286446c7142d23d38e34e0b4aabd3c932be7b5cc69b17456c9536ba5",
    ("qn3_autonomous", "capacity"):
        "b0b4085b9bea687b4b111a92913b35dff1a33fd742bdb85741159ffda10d9d28",
    ("qn3_autonomous", "mariposa"):
        "f6da5328a960ce8146ae5652d3b64b2fce1d9439d4e2dabb7e3482db27ef160f",
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("label", sorted(MULTI_PROVIDER_RUNS))
def test_multi_provider_series_match_pinned_fingerprints(label, method):
    result = MULTI_PROVIDER_RUNS[label](method)
    assert (
        _series_fingerprint(result)
        == MULTI_PROVIDER_SERIES_SHA256[(label, method)]
    )


def test_qn3_autonomous_run_moves_the_candidate_sets():
    """The autonomous q.n = 3 run exercises what it is pinned for:
    departures shrink the candidate set mid-run."""
    result = _qn3_autonomous_run("capacity")
    assert any(d.kind == "provider" for d in result.departures)
