"""Tests of the benchmark itself, at its seconds-fast ``tiny`` scale."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def _run_cli(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """Output of every workload, untraced and traced, on one seed."""
    outputs = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            completed = _run_cli(
                "--workload", workload, "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
            )
            assert completed.returncode == 0, completed.stderr
            outputs[workload, trace] = completed.stdout
    return outputs


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _metric_lines(stdout: str) -> dict[str, tuple[float, str]]:
    lines = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(maxsplit=3)
            lines[name] = (float(value), unit)
    return lines


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_pass_prints_every_named_metric_with_its_unit(
    tiny_runs, workload, trace
):
    stdout = tiny_runs[workload, trace]
    result = _result(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = (
        [(m.name, m.unit) for m in layers.PER_LAYER]
        if trace
        else [(name, unit) for name, unit, _ in run.END_TO_END]
    )
    assert [
        (name, metric["unit"]) for name, metric in result["metrics"].items()
    ] == expected
    printed = _metric_lines(stdout)
    for name, unit in expected:
        assert printed[name][1] == unit
    assert printed["failed_frac"][0] == 0.0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _digests(stdout: str, traced: bool) -> dict[str, str]:
    digests = {}
    for line in stdout.splitlines():
        if not line.startswith("digest "):
            continue
        fields = line.split()
        if ("traced" in fields) != traced:
            continue
        position = fields.index("traced") + 1 if traced else 2
        cell = " ".join(fields[position : position + 3])
        digests[cell] = fields[position + 3]
    return digests


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_of_a_seed_hash_equal(tiny_runs, workload):
    untraced = _digests(tiny_runs[workload, 0], traced=False)
    traced = _digests(tiny_runs[workload, 1], traced=True)
    shared = set(untraced) & set(traced)
    assert shared, "no cell ran both untraced and traced"
    assert {cell: traced[cell] for cell in shared} == {
        cell: untraced[cell] for cell in shared
    }


def test_injected_digest_mismatch_raises_failed_frac(monkeypatch, capsys):
    warm_results: set[int] = set()
    real_get = workloads.ObservedStore.get
    real_digest = workloads.series_digest

    def spying_get(store, config, method, seed):
        result = real_get(store, config, method, seed)
        if store.phase == "warm" and result is not None:
            warm_results.add(id(result))
        return result

    def corrupting_digest(result):
        digest = real_digest(result)
        return "0" * 64 if id(result) in warm_results else digest

    monkeypatch.setattr(workloads.ObservedStore, "get", spying_get)
    monkeypatch.setattr(workloads, "series_digest", corrupting_digest)
    assert run.main(
        ["--workload", "grid_drain", "--seed", str(SEED), "--seconds", "1",
         "--scale", "tiny"]
    ) == 0
    stdout = capsys.readouterr().out
    result = _result(stdout)
    jobs = len(workloads.grid_spec(SEED, 0, "tiny").expand())
    assert result["correct"] is False
    assert result["failed"] >= jobs
    assert _metric_lines(stdout)["failed_frac"][0] == pytest.approx(
        result["failed"] / result["attempted"]
    )
    assert "warm series digest differs from the cold run" in stdout


def test_tracer_self_time_excludes_child_spans_and_spans_are_written(
    tmp_path,
):
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(20000))

    original = vars(Layer)["outer"]
    tracer = Tracer()
    tracer.trace(Layer, "outer", "outer")
    tracer.trace(Layer, "inner", "inner")
    Layer().outer()
    tracer.uninstall()
    assert vars(Layer)["outer"] is original

    stats = tracer.stats()
    assert stats["inner"].calls == 2 and stats["outer"].calls == 1
    assert stats["inner"].self_s == pytest.approx(stats["inner"].total_s)
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s
    )
    assert tracer.write(tmp_path / "spans.npz") == 3
    with np.load(tmp_path / "spans.npz") as spans:
        names = json.loads(str(spans["name_table"]))
        assert list(spans["names"]) == [
            names["outer"], names["inner"], names["inner"]
        ]
        assert list(spans["parents"]) == [-1, 0, 0]
        assert np.all(spans["ends"] >= spans["starts"])


def test_refuses_to_measure_non_default_switches():
    env = {**os.environ, "REPRO_TELEMETRY_DIR": "telemetry"}
    completed = _run_cli(
        "--workload", "captive_paper", "--seconds", "1", "--scale", "tiny",
        env=env,
    )
    assert completed.returncode != 0
    assert "REPRO_TELEMETRY_DIR" in completed.stderr
    assert completed.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = _run_cli(
        "--workload", "captive_paper", "--seconds", "1", cwd=tmp_path
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for metric in layers.PER_LAYER:
        assert f"`{metric.name}`" in readme, metric.name
