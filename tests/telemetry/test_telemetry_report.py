"""Tests for the telemetry report: aggregation, merging, rendering."""

from __future__ import annotations

import pytest

from repro.telemetry.events import TelemetryReadError, atomic_write_bytes
from repro.telemetry.registry import Telemetry
from repro.telemetry.report import (
    PHASE_ORDER,
    format_telemetry_report,
    telemetry_report,
)


def flush_process(tmp_path, *, pid_counters, phases=(), timer_obs=()):
    """Write one process's events file through the real registry."""
    telemetry = Telemetry(tmp_path)
    for name, seconds in phases:
        telemetry.event("phase", name, duration_s=seconds)
    for name, value in pid_counters.items():
        telemetry.count(name, value)
    for name, seconds in timer_obs:
        telemetry.observe(name, seconds)
    telemetry.flush()
    return telemetry


class TestAggregation:
    def test_phases_ordered_and_shared(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={},
            phases=[("provider_update", 3.0), ("arrival", 1.0)],
        )
        report = telemetry_report(tmp_path)
        assert [row["phase"] for row in report["phases"]] == [
            "arrival",
            "provider_update",
        ]
        assert report["phases"][0]["share"] == pytest.approx(0.25)
        assert report["phases"][1]["share"] == pytest.approx(0.75)

    def test_counters_sum_across_processes(self, tmp_path):
        flush_process(tmp_path, pid_counters={"executor.jobs": 2})
        flush_process(tmp_path, pid_counters={"executor.jobs": 3})
        report = telemetry_report(tmp_path)
        assert report["counters"]["executor.jobs"] == 5
        assert report["processes"] == 1  # same pid, two files

    def test_cache_efficacy_rates(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={
                "engine.candidate_cache_hits": 9,
                "engine.candidate_cache_misses": 1,
                "store.hits": 1,
                "store.misses": 3,
                "engine.ring_uniform_pushes": 6,
                "engine.ring_scalar_pushes": 2,
            },
        )
        caches = telemetry_report(tmp_path)["caches"]
        assert caches["candidate_cache"]["hit_rate"] == pytest.approx(0.9)
        assert caches["result_store"]["hit_rate"] == pytest.approx(0.25)
        assert caches["ring_push"]["fast_path_share"] == pytest.approx(0.75)

    def test_empty_rates_are_none_not_zero_division(self, tmp_path):
        flush_process(tmp_path, pid_counters={})
        caches = telemetry_report(tmp_path)["caches"]
        assert caches["candidate_cache"]["hit_rate"] is None
        assert caches["result_store"]["hit_rate"] is None
        assert caches["ring_push"]["fast_path_share"] is None

    def test_timers_merge_exactly_where_possible(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={},
            timer_obs=[("executor.job_s", 1.0), ("executor.job_s", 3.0)],
        )
        flush_process(
            tmp_path,
            pid_counters={},
            timer_obs=[("executor.job_s", 5.0)],
        )
        timer = telemetry_report(tmp_path)["timers"]["executor.job_s"]
        assert timer["count"] == 3
        assert timer["total_s"] == pytest.approx(9.0)
        assert timer["mean_s"] == pytest.approx(3.0)
        assert timer["min_s"] == 1.0
        assert timer["max_s"] == 5.0
        # Merged quantiles are count-weighted averages of per-process
        # estimates: the first process's exact p50 of [1.0, 3.0] is 1.0
        # (nearest rank), the second's is 5.0 → (1.0 * 2 + 5.0) / 3.
        assert timer["p50_s"] == pytest.approx(7.0 / 3.0)

    def test_run_and_cell_span_counts(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        with telemetry.span("cell", "sqlb/seed1"):
            with telemetry.span("run", "sqlb"):
                pass
        telemetry.flush()
        report = telemetry_report(tmp_path)
        assert report["runs"] == 1
        assert report["cells"] == 1


class TestRefusal:
    def test_torn_file_fails_the_whole_report(self, tmp_path):
        flush_process(tmp_path, pid_counters={"executor.jobs": 1})
        [path] = tmp_path.glob("events-*.jsonl")
        text = path.read_text()
        atomic_write_bytes(path, text[: len(text) - 10].encode())
        with pytest.raises(TelemetryReadError):
            telemetry_report(tmp_path)


class TestRendering:
    def test_human_format_smoke(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={
                "engine.candidate_cache_hits": 9,
                "engine.candidate_cache_misses": 1,
                "executor.jobs": 2,
            },
            phases=[(name, 0.1) for name in PHASE_ORDER],
            timer_obs=[("engine.dispatch_s", 0.001)],
        )
        text = format_telemetry_report(telemetry_report(tmp_path))
        assert "phase breakdown:" in text
        assert "candidate cache" in text
        assert "90.0%" in text
        assert "engine.dispatch_s" in text
        assert "executor.jobs" in text
        # Cache counters are folded into the efficacy table, not
        # repeated in the counters listing.
        assert "engine.candidate_cache_hits" not in text
