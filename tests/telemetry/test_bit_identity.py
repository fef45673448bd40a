"""Telemetry must never perturb simulation numerics.

The registry's core invariant: an instrumented run draws nothing from
any RNG stream and reorders no arithmetic, so enabling telemetry leaves
every sampled series bit-identical — to a disabled run *and* to the
frozen pre-telemetry golden fingerprints.  A single extra RNG request
anywhere in the hot path would shift every subsequent draw and trip
these within a handful of samples.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.simulation.config import DepartureRules, WorkloadSpec, tiny_config
from repro.simulation.engine import ENGINE_PHASES, run_simulation
from repro.simulation.trace import record_trace, replay_config
from repro.telemetry.registry import telemetry_session
from repro.telemetry.report import PHASE_ORDER

#: Frozen in tests/experiments/test_golden.py before telemetry existed;
#: duplicated (not imported — test packages are path-independent) so an
#: accidental golden edit cannot silently relax this file too.
PRE_TELEMETRY_SHA256 = {
    ("captive", "sqlb"):
        "ed01bf370eb314688efd21fdc17658306e149634f040aadce6794acd972352f4",
    ("autonomous", "sqlb"):
        "668b18ba87b72be7179d34fce2d2fefaf9507e7deeaa07ca937356f1e3ccea6b",
}


def _fingerprint(result) -> str:
    digest = hashlib.sha256()
    digest.update(result.times().tobytes())
    for name in sorted(result.collector.names):
        digest.update(name.encode())
        digest.update(result.series(name).tobytes())
    return digest.hexdigest()


def _config(label):
    if label == "captive":
        return tiny_config(duration=60.0)
    return tiny_config(
        duration=120.0, workload=WorkloadSpec.fixed(1.0)
    ).with_departures(DepartureRules.autonomous(True))


@pytest.mark.parametrize("label", ["captive", "autonomous", "replay"])
@pytest.mark.parametrize("method", ["sqlb", "capacity"])
def test_enabled_and_disabled_runs_are_bit_identical(
    label, method, tmp_path
):
    if label == "replay":
        path = tmp_path / "captive.trace.json"
        record_trace(_config("captive"), method, 5, path)
        config = replay_config(_config("captive"), path)
    else:
        config = _config(label)
    disabled = run_simulation(config, method, seed=5)
    with telemetry_session(tmp_path) as telemetry:
        enabled = run_simulation(config, method, seed=5)
        # The instrumentation genuinely ran on the enabled side.
        assert telemetry.counters["engine.queries_issued"] == (
            enabled.queries_issued
        )
        phases = {
            event["name"]: event["dur_s"]
            for event in telemetry.events
            if event["kind"] == "phase"
        }
    # Live and replayed runs time the same work: every phase ran, in
    # the engine's order, which the report's mirror list repeats.
    assert tuple(phases) == ENGINE_PHASES == PHASE_ORDER
    assert all(seconds > 0.0 for seconds in phases.values()), phases
    assert _fingerprint(enabled) == _fingerprint(disabled)


@pytest.mark.parametrize(
    ("label", "method"), sorted(PRE_TELEMETRY_SHA256)
)
def test_enabled_run_matches_pre_telemetry_goldens(label, method, tmp_path):
    with telemetry_session(tmp_path):
        result = run_simulation(_config(label), method, seed=5)
    assert _fingerprint(result) == PRE_TELEMETRY_SHA256[(label, method)]
