"""Which ``repro`` calls the traced run wraps, and the per-layer metrics.

The layers are the ``repro`` packages the benchmark process calls into:
``simulation``, ``core``, ``allocation``, ``model``, ``experiments``,
``scheduler``, ``sweeps`` and ``analysis``.  Functions the engine
imported by name (``provider_intention_vector``, ``query_adequation``,
...) are wrapped where the engine looks them up, in
``repro.simulation.engine``; methods are wrapped on their classes.

Span names are the per-layer metric names, so ``ProviderPool`` —
which lives in ``repro.simulation.participants`` but whose cost is the
``model`` layer's ring logs and satisfaction views — is filed under
``model``.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.tracer import SpanStats, Tracer

__all__ = ["PER_LAYER", "install", "per_layer_metrics"]

#: The paper's three methods, in the order every workload runs them.
PAPER_METHODS = ("sqlb", "capacity", "mariposa")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


def _us(name: str) -> Metric:
    return Metric(name, "us", "lower")


#: Every per-layer metric, in print order (``BENCHMARK.json`` lists the
#: same names, units and directions).  What each should move is in
#: ``perfbench/README.md``.
PER_LAYER: tuple[Metric, ...] = (
    *(_us(f"allocation.select.us.{method}") for method in PAPER_METHODS),
    Metric("allocation.select.share", "ratio", "lower"),
    _us("core.provider_intention_vector.us"),
    Metric("core.provider_intention_vector.share", "ratio", "lower"),
    _us("model.ProviderPool.record_proposals.us"),
    Metric("model.ProviderPool.record_proposals.share", "ratio", "lower"),
    _us("model.ConsumerPool.record_query.us"),
    _us("model.ProviderPool.satisfactions_of.us"),
    _us("model.query_adequation.us"),
    _us("model.query_satisfaction.us"),
    Metric("model.ring.uniform_pushes", "count", "higher"),
    Metric("model.ring.scattered_pushes", "count", "lower"),
    Metric("model.view_rebuilds", "count", "lower"),
    _us("simulation.ProviderPreferences.draw.us"),
    _us("simulation.ConsumerPreferences.for_consumer.us"),
    _us("simulation.QueryFactory.create.us"),
    _us("simulation.ProviderQueues.assign.us"),
    _us("simulation.ProviderQueues.backlog_seconds_of.us"),
    _us("simulation.UtilizationTracker.advance.us"),
    _us("simulation.UtilizationTracker.assign.us"),
    _us("simulation.UtilizationTracker.utilization_of.us"),
    Metric("simulation.engine_self.share", "ratio", "lower"),
    Metric("simulation.matchmaker.candidates.calls", "count", "lower"),
    Metric("simulation.candidate_cache.hit_ratio", "ratio", "higher"),
    Metric("simulation.DeparturePolicy.check.ms", "ms", "lower"),
    Metric("simulation.departures.count", "count", "lower"),
    Metric("simulation.queries.issued", "count", "higher"),
    Metric("simulation.queries.served", "count", "higher"),
    Metric("simulation.queries.unserved", "count", "lower"),
    Metric("simulation.run_simulation.share", "ratio", "lower"),
    Metric("experiments.ResultStore.put.ms", "ms", "lower"),
    Metric("experiments.ResultStore.put.bytes", "B", "lower"),
    Metric("experiments.ResultStore.get_hit.ms", "ms", "lower"),
    Metric("experiments.ResultStore.get_miss.ms", "ms", "lower"),
    Metric(
        "experiments.ExperimentExecutor.run_detailed.self_ms", "ms", "lower"
    ),
    *(
        Metric(f"scheduler.WorkQueue.{call}.ms", "ms", "lower")
        for call in (
            "claim",
            "ack",
            "requeue_expired",
            "heartbeat",
            "write_worker_counters",
        )
    ),
    Metric("scheduler.worker_self.share", "ratio", "lower"),
    Metric("scheduler.warm_drain.s", "s", "lower"),
    Metric("sweeps.sweep_summary.s", "s", "lower"),
    Metric("analysis.render_catalog.s", "s", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
)

#: Spans whose self time the ``.share`` metrics add up.
_SHARES = {
    "allocation.select.share": tuple(
        f"allocation.select.{method}" for method in PAPER_METHODS
    ),
    "core.provider_intention_vector.share": (
        "core.provider_intention_vector",
    ),
    "model.ProviderPool.record_proposals.share": (
        "model.ProviderPool.record_proposals",
    ),
    "simulation.engine_self.share": ("simulation.run_simulation",),
    "scheduler.worker_self.share": ("scheduler.QueueWorker.run",),
}


def install(tracer: Tracer) -> None:
    """Wrap every traced call of every layer (undo: ``uninstall``)."""
    import repro.analysis.figures as figures
    import repro.experiments.executor as executor
    import repro.simulation.engine as engine
    import repro.sweeps.aggregate as aggregate
    from repro.allocation import (
        CapacityBasedMethod,
        MariposaMethod,
        SQLBMethod,
    )
    from repro.experiments.executor import ExperimentExecutor
    from repro.experiments.store import ResultStore
    from repro.scheduler.queue import WorkQueue
    from repro.scheduler.worker import QueueWorker
    from repro.simulation.departures import DeparturePolicy
    from repro.simulation.matchmaking import UniversalMatchmaker
    from repro.simulation.participants import ConsumerPool, ProviderPool
    from repro.simulation.preferences import (
        ConsumerPreferences,
        ProviderPreferences,
    )
    from repro.simulation.queries import QueryFactory
    from repro.simulation.queueing import ProviderQueues
    from repro.simulation.utilization import UtilizationTracker

    for module in (engine, executor):
        tracer.trace(module, "run_simulation", "simulation.run_simulation")
    for module, function, layer in (
        (engine, "provider_intention_vector", "core"),
        (engine, "query_adequation", "model"),
        (engine, "query_satisfaction", "model"),
        (aggregate, "sweep_summary", "sweeps"),
        (figures, "render_catalog", "analysis"),
    ):
        tracer.trace(module, function, f"{layer}.{function}")
    for cls, method in zip(
        (SQLBMethod, CapacityBasedMethod, MariposaMethod), PAPER_METHODS
    ):
        tracer.trace(cls, "select", f"allocation.select.{method}")
    for cls, calls, layer in (
        (ProviderPool, ("record_proposals", "satisfactions_of"), "model"),
        (ConsumerPool, ("record_query",), "model"),
        (ProviderPreferences, ("draw",), "simulation"),
        (ConsumerPreferences, ("for_consumer",), "simulation"),
        (QueryFactory, ("create",), "simulation"),
        (ProviderQueues, ("assign", "backlog_seconds_of"), "simulation"),
        (
            UtilizationTracker,
            ("advance", "assign", "utilization_of"),
            "simulation",
        ),
        (ExperimentExecutor, ("run_detailed",), "experiments"),
        (
            WorkQueue,
            (
                "claim",
                "ack",
                "requeue_expired",
                "heartbeat",
                "write_worker_counters",
            ),
            "scheduler",
        ),
        (QueueWorker, ("run",), "scheduler"),
    ):
        for call in calls:
            tracer.trace(cls, call, f"{layer}.{cls.__name__}.{call}")
    tracer.trace(
        UniversalMatchmaker, "candidates", "simulation.matchmaker.candidates"
    )
    for call in ("check_providers", "check_consumers"):
        tracer.trace(
            DeparturePolicy, call, f"simulation.DeparturePolicy.{call}"
        )
    tracer.trace(
        ResultStore,
        "get",
        "experiments.ResultStore.get",
        rename=lambda result: "experiments.ResultStore."
        + ("get_miss" if result is None else "get_hit"),
    )

    def put(original):
        traced = tracer.wrap(original, "experiments.ResultStore.put")

        def put_counting_bytes(store, *args, **kwargs):
            key = traced(store, *args, **kwargs)
            tracer.count(
                "experiments.ResultStore.put.bytes",
                sum(
                    (store.root / f"{key}{suffix}").stat().st_size
                    for suffix in (".npz", ".json")
                ),
            )
            return key

        return put_counting_bytes

    tracer.patch(ResultStore, "put", put)

    def run(original):
        def run_reading_pools(simulation):
            result = original(simulation)
            pushes = simulation.consumers.push_stats()
            for kind, count in simulation.providers.push_stats().items():
                pushes[kind] += count
            tracer.count("model.ring.uniform_pushes", pushes["uniform"])
            tracer.count("model.ring.scattered_pushes", pushes["scattered"])
            tracer.count(
                "model.view_rebuilds",
                simulation.consumers.view_rebuilds
                + simulation.providers.view_rebuilds,
            )
            return result

        return run_reading_pools

    tracer.patch(engine.MediatorSimulation, "run", run)


def per_layer_metrics(
    stats: dict[str, SpanStats],
    counters: dict[str, float],
    wall_s: float,
) -> dict[str, float]:
    """Reduce span stats and counters to every :data:`PER_LAYER` value.

    ``counters`` carries the tallies the workloads add (simulated query
    counts, departures, drain and report times, the trace overhead).
    ``wall_s`` is the traced part's wall time, the base of every
    ``.share``.  A call the workload never made reads 0.
    """
    empty = SpanStats(0, 0.0, 0.0, 0.0, 0.0)

    def span(name: str) -> SpanStats:
        return stats.get(name, empty)

    values: dict[str, float] = {}
    for metric in PER_LAYER:
        name = metric.name
        if name in _SHARES:
            self_s = sum(span(s).self_s for s in _SHARES[name])
            values[name] = self_s / wall_s if wall_s > 0 else 0.0
        elif name.startswith("allocation.select.us."):
            method = name.rsplit(".", 1)[1]
            values[name] = span(f"allocation.select.{method}").median_s * 1e6
        elif name.endswith(".us"):
            values[name] = span(name[: -len(".us")]).median_s * 1e6
        elif name == "simulation.DeparturePolicy.check.ms":
            # One departure check is one call of each: mean per check.
            checks = span("simulation.DeparturePolicy.check_providers")
            consumers = span("simulation.DeparturePolicy.check_consumers")
            values[name] = (
                (checks.total_s + consumers.total_s) / checks.calls * 1e3
                if checks.calls
                else 0.0
            )
        elif name.endswith(".self_ms"):
            values[name] = (
                span(name[: -len(".self_ms")]).median_self_s * 1e3
            )
        elif name.endswith(".ms"):
            values[name] = span(name[: -len(".ms")]).median_s * 1e3
        elif name in ("sweeps.sweep_summary.s", "analysis.render_catalog.s"):
            # Per report pass: the median call.
            values[name] = span(name[: -len(".s")]).median_s
        elif name == "simulation.matchmaker.candidates.calls":
            values[name] = span("simulation.matchmaker.candidates").calls
        elif name == "simulation.candidate_cache.hit_ratio":
            issued = counters.get("simulation.queries.issued", 0)
            misses = span("simulation.matchmaker.candidates").calls
            values[name] = 1.0 - misses / issued if issued else 0.0
        elif name == "simulation.run_simulation.share":
            values[name] = (
                span("simulation.run_simulation").total_s / wall_s
                if wall_s > 0
                else 0.0
            )
        elif name == "experiments.ResultStore.put.bytes":
            calls = span("experiments.ResultStore.put").calls
            values[name] = counters.get(name, 0) / calls if calls else 0.0
        else:
            values[name] = float(counters.get(name, 0))
    return values
