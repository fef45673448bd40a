"""Tests for trace record/replay.

The headline contract: a replay under the recording method and seed is
byte-identical to the recording run (same series fingerprint the golden
tests freeze), and a replay under any other method sees literally the
same arrival stream — paired comparison with zero arrival-process
variance.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.store import cache_key
from repro.simulation.config import tiny_config
from repro.simulation.engine import ENGINE_VERSION, run_simulation
from repro.simulation.faults import FaultSpec, OutageSpec
from repro.simulation.trace import (
    SKIPPED,
    TRACE_FORMAT,
    load_trace,
    record_trace,
    replay_config,
    series_fingerprint,
    trace_digest,
)

from tests.experiments.test_golden import (
    SERIES_SHA256,
    autonomous_config,
    captive_config,
)


def _captive_outage_config():
    return captive_config().with_faults(
        FaultSpec(outages=(OutageSpec(fraction=0.25, start=0.4, end=0.6),))
    )


@pytest.fixture
def captive_trace(tmp_path):
    path = tmp_path / "captive.trace.json"
    result = record_trace(
        captive_config(), "sqlb", 5, path, scenario="captive_fixed_80"
    )
    return path, result


class TestRecording:
    def test_recording_does_not_perturb_the_run(self, captive_trace):
        _, result = captive_trace
        assert (
            series_fingerprint(result) == SERIES_SHA256[("captive", "sqlb")]
        )

    def test_file_schema(self, captive_trace):
        path, result = captive_trace
        payload = json.loads(path.read_bytes())
        assert payload["format"] == TRACE_FORMAT
        assert payload["engine_version"] == ENGINE_VERSION
        assert payload["method"] == "sqlb"
        assert payload["seed"] == 5
        assert payload["scenario"] == "captive_fixed_80"
        events = payload["events"]
        assert (
            len(events["times"])
            == len(events["consumers"])
            == len(events["klasses"])
        )
        assert events["times"] == sorted(events["times"])

    def test_loaded_trace_round_trips(self, captive_trace):
        path, result = captive_trace
        trace = load_trace(path)
        assert trace.method == "sqlb"
        assert trace.seed == 5
        assert trace.fingerprint == series_fingerprint(result)
        assert trace.issued == result.queries_issued
        assert trace.events >= trace.issued

    def test_refuses_to_record_a_replay(self, captive_trace, tmp_path):
        path, _ = captive_trace
        config = replay_config(captive_config(), path)
        with pytest.raises(ValueError, match="refusing to record"):
            record_trace(config, "sqlb", 5, tmp_path / "nested.json")


class TestReplay:
    def test_recording_method_replay_is_byte_identical(self, captive_trace):
        path, _ = captive_trace
        config = replay_config(captive_config(), path)
        replayed = run_simulation(config, "sqlb", seed=5)
        assert (
            series_fingerprint(replayed) == SERIES_SHA256[("captive", "sqlb")]
        )

    @pytest.mark.parametrize(
        "make_config",
        [
            pytest.param(autonomous_config, id="autonomous"),
            pytest.param(_captive_outage_config, id="captive_outage"),
        ],
    )
    def test_replay_with_departures_is_byte_identical(
        self, make_config, tmp_path
    ):
        """Autonomy runs record skipped arrivals and fault runs take
        providers down mid-run; replay must trigger the sample,
        departure and fault ladder at the same instants anyway."""
        path = tmp_path / "auto.trace.json"
        result = record_trace(make_config(), "sqlb", 5, path)
        trace = load_trace(path)
        assert (trace.klasses == SKIPPED).sum() == trace.events - trace.issued
        config = replay_config(make_config(), path)
        replayed = run_simulation(config, "sqlb", seed=5)
        assert series_fingerprint(replayed) == series_fingerprint(result)

    def test_other_method_sees_the_same_stream(self, captive_trace):
        path, result = captive_trace
        config = replay_config(captive_config(), path)
        other = run_simulation(config, "capacity", seed=5)
        np.testing.assert_array_equal(other.times(), result.times())
        assert other.queries_issued == result.queries_issued
        assert series_fingerprint(other) != series_fingerprint(result)

    def test_digest_pin_refuses_edited_file(self, captive_trace):
        path, _ = captive_trace
        config = replay_config(captive_config(), path)
        payload = json.loads(path.read_bytes())
        payload["seed"] = 6
        path.write_text(json.dumps(payload, sort_keys=True))
        with pytest.raises(ValueError, match="does not match"):
            run_simulation(config, "sqlb", seed=5)

    def test_population_mismatch_refused(self, captive_trace):
        path, _ = captive_trace
        wrong = tiny_config(duration=60.0, n_consumers=9)
        config = replay_config(wrong, path)
        with pytest.raises(ValueError, match="different environment"):
            run_simulation(config, "sqlb", seed=5)

    def test_garbage_file_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="format"):
            load_trace(path)
        with pytest.raises(ValueError, match="cannot read"):
            load_trace(tmp_path / "missing.json")


class TestCacheKeys:
    """Replayed/faulted/strategic runs live under their own store keys,
    while ``None``-valued new fields leave pre-existing keys untouched."""

    def test_replay_config_gets_its_own_key(self, captive_trace):
        path, _ = captive_trace
        base = captive_config()
        replay = replay_config(base, path)
        assert cache_key(base, "sqlb", 5) != cache_key(replay, "sqlb", 5)

    def test_none_means_absent_not_empty(self):
        # None is dropped from the payload (pre-existing keys stay
        # valid); an *empty* FaultSpec is a present value and mints a
        # different key — the convention the FaultSpec docstring warns
        # about.
        base = captive_config()
        assert base.faults is None and base.strategic is None
        empty = base.with_faults(FaultSpec())
        assert cache_key(base, "sqlb", 5) != cache_key(empty, "sqlb", 5)

    def test_faults_change_the_key(self):
        base = captive_config()
        faulted = base.with_faults(
            FaultSpec(outages=(OutageSpec(0.25, 0.4, 0.6),))
        )
        assert cache_key(base, "sqlb", 5) != cache_key(faulted, "sqlb", 5)
