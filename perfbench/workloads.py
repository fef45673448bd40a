"""The benchmark's workloads: inputs from a seed, timed closed batches, checks.

Every workload is a closed batch run by one process: the next cell (or
drain cycle) starts when the previous one has finished, the executor
runs ``workers=1`` and the drains use one in-process ``QueueWorker``, so
at most the worker and its heartbeat thread are alive.  The program
only ever receives the configs and sweep spec generated here from the
benchmark's ``--seed``.

* ``captive_paper`` — ``captive_fixed_80`` at paper population (400
  providers, 200 consumers) through ``run_simulation``, once per paper
  method per round.  The candidate set never changes, so the engine's
  candidate cache always hits and ring pushes stay lockstep.
* ``autonomy_paper`` — ``autonomous_full`` at paper population: the
  same layers, but departures move the pool epoch, so the candidate
  cache misses, pushes scatter and views are rebuilt.  The horizon puts
  the first departure checks well inside every cell.
* ``grid_drain`` — the whole scenario catalog × the paper methods × two
  seeds at ``tiny`` scale, drained cold through a fresh queue and store
  (write path), re-drained warm from a fresh queue (read path: every
  job a store hit), then summarised and rendered (report path).

Calls into ``repro`` that the tracer wraps are made through module
attributes (``engine.run_simulation``, ...), so a traced run sees them.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import repro.analysis.figures as figures
import repro.simulation.engine as engine
import repro.sweeps.aggregate as aggregate
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import ResultStore, cache_key
from repro.scheduler.queue import WorkQueue
from repro.scheduler.worker import QueueWorker
from repro.simulation.config import paper_config, tiny_config
from repro.simulation.matchmaking import UniversalMatchmaker
from repro.sweeps.scenarios import available_scenarios, scenario_catalog
from repro.sweeps.spec import SweepSpec

from perfbench import calibrate, layers
from perfbench.tracer import Tracer

__all__ = ["Checks", "WORKLOADS", "run_workload", "series_digest", "setup"]

WORKLOADS = ("captive_paper", "autonomy_paper", "grid_drain")

#: Paper-population horizons: long enough that ``autonomous_full``'s
#: departure checks (every 30 s after the warmup, three consecutive
#: trips to leave) remove providers mid-cell — at 90 s, so the last
#: quarter of every cell runs on a shrunken pool — and short enough that
#: a round of three methods fits a run three times.
PAPER_WORKLOADS = {
    "captive_paper": (
        "captive_fixed_80",
        dict(duration=60.0, warmup_time=20.0, sample_interval=10.0),
    ),
    "autonomy_paper": (
        "autonomous_full",
        dict(duration=120.0, warmup_time=0.0, sample_interval=10.0),
    ),
}

#: ``tiny`` benchmark scale (the benchmark's own tests): tiny-config
#: paper cells and a three-scenario, one-seed grid.
TINY_GRID_SCENARIOS = ("captive_fixed_80", "autonomous_full", "captive_outage")
GRID_SEEDS_PER_CYCLE = 2
#: Paper rounds per run at least, so every method has two cells.
MIN_ROUNDS = 2
SETUP_REPEATS = 3


def series_digest(result) -> str:
    """SHA-256 over a result's sampled series (times, then sorted names).

    The same fingerprint the golden tests pin: a change meant only to
    make the program faster must leave it identical for every cell.
    """
    digest = hashlib.sha256()
    digest.update(result.times().tobytes())
    for name in sorted(result.collector.names):
        digest.update(name.encode())
        digest.update(result.series(name).tobytes())
    return digest.hexdigest()


def count_problems(issued: int, served: int, unserved: int) -> list[str]:
    """What is wrong with one cell's query counters (empty: nothing)."""
    problems = []
    if issued != served + unserved:
        problems.append(
            f"issued {issued} != served {served} + unserved {unserved}"
        )
    if served <= 0:
        problems.append("no query served")
    return problems


class Checks:
    """Counts checked operations and prints every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def operation(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"CHECK FAILED {label}: {problem}", flush=True)


class CountingMatchmaker(UniversalMatchmaker):
    """The paper's universal matchmaker, counting cache invalidations.

    The engine asks only on a candidate-cache miss, so every active mask
    it asks under after the first is an invalidation by a departure.
    """

    def __init__(self) -> None:
        self._masks: set[bytes] = set()

    def candidates(self, query, active):
        self._masks.add(active.tobytes())
        return super().candidates(query, active)

    @property
    def invalidations(self) -> int:
        return max(len(self._masks) - 1, 0)


# ---------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------


def paper_inputs(workload: str, scale: str):
    scenario, horizon = PAPER_WORKLOADS[workload]
    base = paper_config(**horizon) if scale == "paper" else tiny_config()
    return scenario, scenario_catalog(base, names=(scenario,))[scenario].config


def grid_spec(seed: int, cycle: int, scale: str) -> SweepSpec:
    if scale == "paper":
        scenarios = available_scenarios()
        count = GRID_SEEDS_PER_CYCLE
    else:
        scenarios, count = TINY_GRID_SCENARIOS, 1
    first = seed * 1000 + cycle * count
    return SweepSpec(
        name="perfbench-grid",
        scenarios=scenarios,
        methods=layers.PAPER_METHODS,
        seeds=tuple(range(first, first + count)),
        scale="tiny",
    )


def cell_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def _repeat(run, gross_s, tracer, seconds, minimum=1):
    """Run batches (rounds or cycles) for about ``seconds``.

    ``run(index, label)`` runs batch ``index``; ``gross_s(batch)`` is
    its wall time.  Batches repeat while another one would end nearer
    ``seconds`` than short of it.  Traced, batch 0 first runs untraced
    as the reference — the trace overhead and the proof that the
    wrappers only observe — and the batches that follow are traced.
    Returns ``(reference, batches)``.
    """
    started = perf_counter()
    reference = None
    if tracer is not None:
        reference = run(0, "")
        layers.install(tracer)
    batches = []
    try:
        while True:
            batches.append(
                run(len(batches), "" if tracer is None else " traced")
            )
            walls = [gross_s(batch) for batch in batches]
            elapsed = perf_counter() - started
            if len(batches) >= minimum and (
                elapsed + statistics.median(walls) / 2 > seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return reference, batches


def setup(workload: str, seed: int, scale: str, workdir: Path) -> float:
    """Median reference seconds of repeated set-ups of ``workload``.

    Paper workloads build their config and construct one engine per
    method; the grid builds its spec and configs and initialises (and
    enqueues) a queue.
    """
    times = []
    for repeat in range(SETUP_REPEATS):
        root = workdir / f"setup-{repeat}"
        with calibrate.Stopwatch() as watch:
            if workload == "grid_drain":
                spec = grid_spec(seed, 0, scale)
                spec.configs()
                WorkQueue.init(root, spec)
            else:
                _, config = paper_inputs(workload, scale)
                for method in layers.PAPER_METHODS:
                    engine.MediatorSimulation(
                        config, method, seed=cell_seed(seed, 0)
                    )
        shutil.rmtree(root, ignore_errors=True)
        times.append(watch.reference_s)
    return statistics.median(times)


# ---------------------------------------------------------------------
# paper-population workloads
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    method: str
    seed: int
    gross_s: float
    wall_s: float
    ref_s: float
    ref_cpu_s: float
    issued: int
    served: int
    unserved: int
    departures: int
    invalidations: int
    digest: str


def _run_round(workload, scenario, config, seed, checks, label) -> list[Cell]:
    cells = []
    for method in layers.PAPER_METHODS:
        matchmaker = CountingMatchmaker()
        with calibrate.Stopwatch() as watch:
            result = engine.run_simulation(
                config, method, seed=seed, matchmaker=matchmaker
            )
        cell = Cell(
            method=method,
            seed=seed,
            gross_s=watch.gross_s,
            wall_s=watch.wall_s,
            ref_s=watch.reference_s,
            ref_cpu_s=watch.reference_cpu_s,
            issued=result.queries_issued,
            served=result.queries_served,
            unserved=result.queries_unserved,
            departures=len(result.departures),
            invalidations=matchmaker.invalidations,
            digest=series_digest(result),
        )
        checks.operation(
            f"{workload} {method} seed={seed}",
            count_problems(cell.issued, cell.served, cell.unserved),
        )
        print(
            f"digest {workload}{label} {scenario} {method} seed={seed} "
            f"{cell.digest} served={cell.served} "
            f"departures={cell.departures} wall_s={cell.wall_s:.4f} "
            f"ref_s={cell.ref_s:.4f}",
            flush=True,
        )
        cells.append(cell)
    return cells


def _paper(workload, seed, seconds, tracer, scale, checks) -> dict:
    scenario, config = paper_inputs(workload, scale)
    reference, rounds = _repeat(
        lambda index, label: _run_round(
            workload, scenario, config, cell_seed(seed, index), checks, label
        ),
        lambda cells: sum(c.gross_s for c in cells),
        tracer,
        seconds,
        minimum=MIN_ROUNDS,
    )

    cells = [cell for r in rounds for cell in r]
    if workload == "autonomy_paper":
        problems = []
        if not any(c.departures for c in cells):
            problems.append("no departure in any cell")
        if not any(c.invalidations for c in cells):
            problems.append("no candidate-cache invalidation in any cell")
        checks.operation(f"{workload} autonomy", problems)

    if tracer is not None:
        checks.operation(
            f"{workload} traced digests",
            [
                f"{t.method} seed={t.seed}: traced {t.digest} != "
                f"untraced {u.digest}"
                for t, u in zip(rounds[0], reference)
                if t.digest != u.digest
            ],
        )
        return {
            "wall_s": sum(c.gross_s for c in cells),
            "counters": {
                "simulation.queries.issued": sum(c.issued for c in cells),
                "simulation.queries.served": sum(c.served for c in cells),
                "simulation.queries.unserved": sum(
                    c.unserved for c in cells
                ),
                "simulation.departures.count": sum(
                    c.departures for c in cells
                ),
                "trace.overhead": sum(c.ref_s for c in rounds[0])
                / sum(c.ref_s for c in reference),
            },
        }

    def median_over_rounds(value) -> float:
        return statistics.median(value(r) for r in rounds)

    return {
        "qps": median_over_rounds(
            lambda r: sum(c.served for c in r) / sum(c.ref_s for c in r)
        ),
        "qps.sqlb": statistics.median(
            c.served / c.ref_s for c in cells if c.method == "sqlb"
        ),
        "qps_cpu": median_over_rounds(
            lambda r: sum(c.served for c in r) / sum(c.ref_cpu_s for c in r)
        ),
        "cells_per_hour": median_over_rounds(
            lambda r: len(r) * 3600.0 / sum(c.ref_s for c in r)
        ),
        "info": {
            "qps.wall": median_over_rounds(
                lambda r: sum(c.served for c in r) / sum(c.wall_s for c in r)
            ),
            "machine_speed": statistics.median(
                c.ref_s / c.wall_s for c in cells
            ),
        },
    }


# ---------------------------------------------------------------------
# queue-drain orchestration
# ---------------------------------------------------------------------


class ObservedStore(ResultStore):
    """A result store keeping every result it writes or serves, by phase.

    Lets the benchmark check the drains' outputs without a second round
    of store reads; the cache keys are computed after the timed part.
    """

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.phase = "cold"
        self.seen: dict[str, list] = {"cold": [], "warm": [], "report": []}

    def get(self, config, method, seed):
        result = super().get(config, method, seed)
        if result is not None:
            self.seen[self.phase].append((config, method, seed, result))
        return result

    def put(self, result, method=None):
        key = super().put(result, method=method)
        self.seen[self.phase].append(
            (result.config, method or result.method_name, result.seed, result)
        )
        return key


@dataclass(frozen=True)
class Cycle:
    """One cold/warm/report cycle: raw walls and reference seconds.

    ``gross_s`` times include the calibration probe (as spans do);
    ``cold_wall_s`` does not.
    """

    gross_s: float
    cold_wall_s: float
    cold_ref_s: float
    cold_cpu_ref_s: float
    warm_gross_s: float
    warm_ref_s: float
    report_ref_s: float
    jobs: int
    served: int
    sqlb_served: int
    sqlb_job_ref_s: float
    issued: int
    unserved: int
    departures: int
    digests: dict[str, str]


def _queue_problems(queue: WorkQueue, state: str, jobs: int) -> list[str]:
    problems = []
    if not queue.counts().drained:
        problems.append(f"queue not drained: {queue.counts()}")
    errors = queue.error_records()
    if errors:
        problems.append(f"{len(errors)} error records")
    records = queue.done_records()
    if len(records) != jobs:
        problems.append(f"{len(records)} done records for {jobs} jobs")
    wrong = [r["id"] for r in records if r.get("state") != state]
    if wrong:
        problems.append(f"{len(wrong)} jobs not {state}: {wrong[:3]}")
    return problems


def _grid_cycle(spec, root, checks, label) -> Cycle:
    jobs = len(spec.expand())
    cold_queue = WorkQueue.init(root / "queue-cold", spec)
    warm_queue = WorkQueue.init(root / "queue-warm", spec)
    store = ObservedStore(root / "store")
    executor = ExperimentExecutor(workers=1, store=store)

    with calibrate.Stopwatch() as cold_watch:
        QueueWorker(cold_queue, executor, owner="perfbench-cold").run()
    store.phase = "warm"
    with calibrate.Stopwatch() as warm_watch:
        QueueWorker(warm_queue, executor, owner="perfbench-warm").run()
    store.phase = "report"
    with calibrate.Stopwatch() as report_watch:
        summaries = aggregate.sweep_summary(spec, executor)
        render = figures.render_catalog(
            store.root, root / "figures", formats=("json",)
        )

    # -- checks (untimed) --------------------------------------------
    records = {r["key"]: r for r in cold_queue.done_records()}
    cold = {
        cache_key(config, method, seed): result
        for config, method, seed, result in store.seen["cold"]
    }
    digests = {}
    served = sqlb_served = issued = unserved = departures = 0
    sqlb_job_s = 0.0
    for key, result in cold.items():
        record = records.get(key, {})
        name = (
            f"{record.get('scenario')} {record.get('method')} "
            f"seed={record.get('seed')}"
        )
        checks.operation(
            f"grid_drain cold {name}",
            count_problems(
                result.queries_issued,
                result.queries_served,
                result.queries_unserved,
            ),
        )
        digests[key] = series_digest(result)
        print(f"digest grid_drain{label} {name} {digests[key]}", flush=True)
        served += result.queries_served
        issued += result.queries_issued
        unserved += result.queries_unserved
        departures += len(result.departures)
        if record.get("method") == "sqlb":
            sqlb_served += result.queries_served
            sqlb_job_s += record["duration_s"]
    checks.operation(
        "grid_drain cold queue",
        _queue_problems(cold_queue, "simulated", jobs)
        + (
            [f"{len(cold)} results written for {jobs} jobs"]
            if len(cold) != jobs
            else []
        ),
    )
    warm = {
        cache_key(config, method, seed): result
        for config, method, seed, result in store.seen["warm"]
    }
    for key in digests:
        problems = []
        if key not in warm:
            problems.append("not served from the store")
        elif series_digest(warm[key]) != digests[key]:
            problems.append("warm series digest differs from the cold run")
        checks.operation(f"grid_drain warm {key[:16]}", problems)
    checks.operation(
        "grid_drain warm queue",
        _queue_problems(warm_queue, "store_hit", jobs),
    )
    expected = {f"{spec.name}.json" for spec in figures.FIGURE_CATALOG}
    problems = []
    written = {path.name for path in render.written if path.is_file()}
    if written != expected or not render.wrote_everything:
        problems.append(
            f"figures missing: {sorted(expected - written)} "
            f"skipped: {list(render.skipped)}"
        )
    if len(summaries) != len(spec.scenarios) * len(spec.methods):
        problems.append(f"{len(summaries)} summary rows")
    checks.operation("grid_drain report", problems)
    # Done-record durations include the probe's time; scale it out.
    sqlb_job_s *= cold_watch.wall_s / cold_watch.gross_s
    return Cycle(
        gross_s=cold_watch.gross_s + warm_watch.gross_s + report_watch.gross_s,
        cold_wall_s=cold_watch.wall_s,
        cold_ref_s=cold_watch.reference_s,
        cold_cpu_ref_s=cold_watch.reference_cpu_s,
        warm_gross_s=warm_watch.gross_s,
        warm_ref_s=warm_watch.reference_s,
        report_ref_s=report_watch.reference_s,
        jobs=jobs,
        served=served,
        sqlb_served=sqlb_served,
        sqlb_job_ref_s=cold_watch.reference(sqlb_job_s),
        issued=issued,
        unserved=unserved,
        departures=departures,
        digests=digests,
    )


def _grid(seed, seconds, tracer, scale, checks, workdir) -> dict:
    def cycle(index: int, label: str) -> Cycle:
        root = workdir / f"cycle-{index}{label.strip()}"
        try:
            spec = grid_spec(seed, index, scale)
            return _grid_cycle(spec, root, checks, label)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    reference, cycles = _repeat(
        cycle, lambda c: c.gross_s, tracer, seconds
    )

    def median(value) -> float:
        return statistics.median(value(c) for c in cycles)

    def reference_s(c: Cycle) -> float:
        return c.cold_ref_s + c.warm_ref_s + c.report_ref_s

    if tracer is not None:
        first = cycles[0]
        checks.operation(
            "grid_drain traced digests",
            [
                f"{key[:16]}: traced {digest} != untraced "
                f"{reference.digests.get(key)}"
                for key, digest in first.digests.items()
                if reference.digests.get(key) != digest
            ],
        )
        return {
            "wall_s": sum(c.gross_s for c in cycles),
            "counters": {
                "simulation.queries.issued": sum(c.issued for c in cycles),
                "simulation.queries.served": sum(c.served for c in cycles),
                "simulation.queries.unserved": sum(
                    c.unserved for c in cycles
                ),
                "simulation.departures.count": sum(
                    c.departures for c in cycles
                ),
                "scheduler.warm_drain.s": median(lambda c: c.warm_gross_s),
                "trace.overhead": reference_s(first) / reference_s(reference),
            },
        }
    return {
        "qps": median(lambda c: c.served / c.cold_ref_s),
        "qps.sqlb": median(lambda c: c.sqlb_served / c.sqlb_job_ref_s),
        "qps_cpu": median(lambda c: c.served / c.cold_cpu_ref_s),
        "cells_per_hour": median(lambda c: c.jobs * 3600.0 / c.cold_ref_s),
        "info": {
            # Measured and printed, not gated (see perfbench/README.md).
            "warm_drain_s": median(lambda c: c.warm_ref_s),
            "report_s": median(lambda c: c.report_ref_s),
            "qps.wall": median(lambda c: c.served / c.cold_wall_s),
            "machine_speed": median(lambda c: c.cold_ref_s / c.cold_wall_s),
        },
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    scale: str,
    checks: Checks,
    workdir: Path,
) -> dict:
    """Run one workload's timed part.

    Untraced: the end-to-end values it measures (``setup_s`` and
    ``peak_rss_mb`` are the caller's).  Traced: ``wall_s`` of the
    traced part and the per-layer tallies that are not spans.
    """
    if workload == "grid_drain":
        return _grid(seed, seconds, tracer, scale, checks, workdir)
    return _paper(workload, seed, seconds, tracer, scale, checks)
