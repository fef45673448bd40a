"""The mediator simulation engine.

A mono-mediator discrete-event simulation of the paper's evaluation
environment (Section 6.1): consumers issue queries in a Poisson process;
for each query the mediator gathers the candidate set, collects the
consumer's and providers' intentions (lines 2-5 of Algorithm 1), hands
the decision to the configured allocation method, and updates queues,
utilisation, and the satisfaction model.  Metrics are sampled on a fixed
grid; with autonomy enabled, departure thresholds are checked
periodically after a warmup.

Because provider service is deterministic (FIFO queues with known
capacity), query completions are computed at assignment time and the
event loop reduces to a single ordered pass over arrivals — no event
heap is needed, which keeps the pure-Python hot path tight.  That pass
is one loop over ``(time, consumer, klass)`` arrivals, live (Poisson)
or replayed from a trace (:mod:`repro.simulation.trace`); before each
arrival it runs the samples, departure checks and faults due by then.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from time import perf_counter

import numpy as np

from repro.allocation.base import AllocationMethod, AllocationRequest
from repro.allocation.registry import build_method
from repro.audit.recorder import get_audit
from repro.core.intentions import (
    consumer_intention_vector,
    provider_intention_vector,
)
from repro.model import metrics
from repro.model.consumer_profile import query_adequation, query_satisfaction
from repro.model.strategic import StrategicReporting
from repro.simulation.capacity import assign_capacities
from repro.simulation.config import SimulationConfig
from repro.simulation.departures import DeparturePolicy, DepartureRecord
from repro.simulation.faults import compile_fault_events
from repro.simulation.matchmaking import Matchmaker, UniversalMatchmaker
from repro.simulation.participants import ConsumerPool, ProviderPool
from repro.simulation.preferences import (
    build_consumer_preferences,
    build_provider_preferences,
)
from repro.simulation.queries import SKIPPED, QueryFactory
from repro.simulation.queueing import ProviderQueues
from repro.simulation.reputation import ReputationRegistry
from repro.simulation.rng import RngFactory
from repro.simulation.stats import TimeSeriesCollector
from repro.simulation.utilization import UtilizationTracker
from repro.simulation.workload import PoissonArrivals
from repro.telemetry.registry import get_telemetry

__all__ = [
    "ENGINE_VERSION",
    "MediatorSimulation",
    "SimulationResult",
    "run_simulation",
]

#: Version tag of the simulation semantics.  The persistent result
#: store (``repro.experiments.store``) mixes this into its cache keys,
#: so bumping it invalidates every cached run.  Bump whenever a change
#: alters the numbers a simulation produces for the same
#: (config, method, seed) — not for pure refactors.
ENGINE_VERSION = "1"

#: Hot-path phases the telemetry layer times, in execution order.
#: ``arrival`` covers the consumer draw and query construction; the
#: other six partition :meth:`MediatorSimulation._dispatch`:
#: ``candidate_lookup`` (the cached ``P_q``), ``intentions`` (everything
#: the allocation request carries: utilisation, the provider preference
#: draw, satisfactions, both intention vectors, backlog), ``selection``
#: (the method's choice and its validation), ``queueing`` (queue
#: assignment, response time, utilisation bookkeeping),
#: ``consumer_update`` and ``provider_update`` (the satisfaction model).
ENGINE_PHASES = (
    "arrival",
    "candidate_lookup",
    "intentions",
    "selection",
    "queueing",
    "consumer_update",
    "provider_update",
)

#: Feed the dispatch-latency quantile timer every Nth issued query.
#: The stride is a deterministic counter — never an RNG draw — so
#: sampling cannot perturb the simulation's random streams.
_DISPATCH_SAMPLE_STRIDE = 8


class _CandidateEntry(tuple):
    """A cached ``(candidates, capacities)`` pair.

    It also carries what depends only on (consumer, candidate set) in
    ``consumer_intention_mode == "preference"``: ``consumer_block`` is
    ``None`` until the first dispatch that needs it builds a
    :class:`_ConsumerBlock`, and it is dropped with the entry.
    """

    consumer_block: _ConsumerBlock | None = None


class _ConsumerBlock:
    """Every consumer's intentions towards one candidate set.

    ``intentions`` is ``preferences[:, candidates]`` (in preference mode
    the intentions *are* the preferences) and ``clipped`` its
    ``[-1, 1]`` clip, both read-only C-ordered ``(n_consumers ×
    n_candidates)`` blocks whose contiguous rows are what the per-query
    path gathers and clips.
    ``adequations`` memoises ``query_adequation`` of a consumer's
    clipped row — Equation 1 of a fixed row is a constant.
    """

    __slots__ = ("adequations", "clipped", "intentions")

    def __init__(self, preferences: np.ndarray, candidates: np.ndarray):
        intentions = preferences.take(candidates, axis=1)
        # min/max pair == np.clip without its dispatch wrapper (the same
        # pair the per-query path applies to one row).
        clipped = np.maximum(intentions, -1.0)
        np.minimum(clipped, 1.0, out=clipped)
        intentions.flags.writeable = False
        clipped.flags.writeable = False
        self.intentions = intentions
        self.clipped = clipped
        self.adequations: dict[int, float] = {}


def _finite_values(values: np.ndarray) -> np.ndarray:
    """The finite entries of ``values`` (one ``isfinite`` scan).

    ``_sample`` needs both the mean and the fairness of several sampled
    vectors; sharing the compressed finite array between them halves the
    ``isfinite`` scans per sample.
    """
    return values[np.isfinite(values)]


def _mean_of_finite(finite: np.ndarray) -> float:
    """Mean of an already-compressed finite array; NaN when empty."""
    if finite.size == 0:
        return float("nan")
    return float(finite.mean())


def _fairness_of_finite(finite: np.ndarray) -> float:
    if finite.size == 0:
        return float("nan")
    return metrics.fairness(finite)


def _finite_mean(values: np.ndarray) -> float:
    """Mean over finite entries; NaN when none remain."""
    return _mean_of_finite(_finite_values(values))


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes
    ----------
    method_name, seed, config:
        Provenance of the run.
    collector:
        The sampled time series (see the engine's ``_sample`` for the
        series catalogue).
    departures:
        Every departure, in order, with reasons and provider classes.
    queries_issued / queries_served / queries_unserved:
        Issue counters.  Unserved means no active capable provider
        existed at arrival time (only possible with autonomy).
    response_time_mean / response_time_post_warmup:
        Consumer-observed response time averages over the whole run and
        over the post-warmup portion.
    final:
        Named end-of-run arrays (per-provider/consumer characteristics,
        classes, activity) for distributional analysis.
    initial_providers / initial_consumers:
        The run's initial population sizes, recorded explicitly so the
        departure fractions are always taken over the population the
        run actually started with (0 falls back to the config sizes for
        results built by hand).
    """

    method_name: str
    seed: int
    config: SimulationConfig
    collector: TimeSeriesCollector
    departures: list[DepartureRecord] = field(default_factory=list)
    queries_issued: int = 0
    queries_served: int = 0
    queries_unserved: int = 0
    response_time_mean: float = float("nan")
    response_time_post_warmup: float = float("nan")
    final: dict[str, np.ndarray] = field(default_factory=dict)
    initial_providers: int = 0
    initial_consumers: int = 0

    def times(self) -> np.ndarray:
        return self.collector.times()

    def series(self, name: str) -> np.ndarray:
        return self.collector.series(name)

    def _departure_fraction(self, kind: str, initial: int) -> float:
        departed = {d.index for d in self.departures if d.kind == kind}
        if not departed:
            return 0.0
        return len(departed) / initial

    def provider_departure_fraction(self) -> float:
        """Fraction of the run's *initial* provider population that left.

        Counts distinct providers (a participant can only leave once)
        over the population the run started with, so the fraction always
        agrees with ``1 - final["provider_active"].mean()``.
        """
        initial = self.initial_providers or self.config.n_providers
        return self._departure_fraction("provider", initial)

    def consumer_departure_fraction(self) -> float:
        """Fraction of the run's *initial* consumer population that left."""
        initial = self.initial_consumers or self.config.n_consumers
        return self._departure_fraction("consumer", initial)


class MediatorSimulation:
    """One configured run: an environment, a method, and a seed.

    Parameters
    ----------
    config:
        The environment (populations, workload, autonomy, ...).
    method:
        An :class:`~repro.allocation.base.AllocationMethod` instance or a
        registry name (``"sqlb"``, ``"capacity"``, ``"mariposa"``, ...).
    seed:
        Root seed; the run is fully deterministic given (config, method,
        seed).
    matchmaker:
        Candidate-set source; defaults to the paper's universal
        matchmaker (every provider can treat every query).
    recorder:
        Optional trace recorder (see :mod:`repro.simulation.trace`);
        when set, every arrival's (time, consumer, class) is recorded,
        with class :data:`~repro.simulation.queries.SKIPPED` for an
        arrival that issued nothing.  Recording observes the run
        without altering it.
    """

    def __init__(
        self,
        config: SimulationConfig,
        method: AllocationMethod | str,
        seed: int = 0,
        matchmaker: Matchmaker | None = None,
        recorder=None,
    ) -> None:
        self.config = config
        if isinstance(method, str):
            method = build_method(method, config)
        self.method = method
        self.seed = int(seed)
        self._matchmaker = matchmaker or UniversalMatchmaker()
        self._recorder = recorder

        rngs = RngFactory(seed)
        self._rng_environment = rngs.get("environment")
        self._rng_workload = rngs.get("workload")
        self._rng_provider_prefs = rngs.get("provider_preferences")
        self._rng_method = rngs.get("method")
        self._rng_queries = rngs.get("queries")
        # The adversarial dimensions request their streams only when
        # configured: an unconfigured feature must not shift the spawn
        # order of the five streams above (bit-identity with the
        # pre-fault engine), and both streams are consumed entirely at
        # setup, so stream *order* between the two is immaterial.
        self._fault_events = (
            ()
            if config.faults is None
            else compile_fault_events(
                config.faults,
                config.duration,
                config.n_providers,
                rngs.get("faults"),
            )
        )
        self._fault_cursor = 0
        self._fault_down: set[int] = set()
        self._strategic = (
            None
            if config.strategic is None
            else StrategicReporting(
                config.strategic, config.n_providers, rngs.get("strategic")
            )
        )

        # --- environment ---------------------------------------------
        self.capacity = assign_capacities(
            config.n_providers, config.capacity, self._rng_environment
        )
        self.consumer_prefs = build_consumer_preferences(
            config.n_consumers,
            config.n_providers,
            config.consumer_interest,
            self._rng_environment,
        )
        self.provider_prefs = build_provider_preferences(
            config.n_providers,
            len(config.query_classes.costs),
            config.provider_adaptation,
            config.provider_pref_mode,
            self._rng_provider_prefs,
        )
        self.reputation = ReputationRegistry(
            config.n_providers,
            initial=self._rng_environment.uniform(
                0.05, 1.0, config.n_providers
            ),
            feedback_weight=0.0,
        )

        # --- live state ------------------------------------------------
        self.consumers = ConsumerPool(
            config.n_consumers,
            config.consumer_memory,
            config.initial_satisfaction,
        )
        self.providers = ProviderPool(
            config.n_providers,
            config.provider_memory,
            config.initial_satisfaction,
            warm_start_entries=config.warm_start_entries,
        )
        self.queues = ProviderQueues(self.capacity.rates)
        self.utilization = UtilizationTracker(
            self.capacity.rates,
            config.utilization_window,
            config.utilization_bins,
        )
        self._departure_policy = DeparturePolicy(
            config.departures,
            interest_classes=self.consumer_prefs.interest_classes,
            adaptation_classes=self.provider_prefs.adaptation_classes,
            capacity_classes=self.capacity.classes,
            warm_start_entries=config.warm_start_entries,
        )
        self._factory = QueryFactory(
            config.query_classes, config.queries_per_request, self._rng_queries
        )

        # --- hot-path caches and scratch buffers ------------------------
        # Candidate sets are constant between departures (the active mask
        # only changes in _check_departures), so they are cached per query
        # class and invalidated by comparing pool epochs.  Only matchmakers
        # that declare themselves a pure function of (query class, active
        # mask) participate — a custom matchmaker depending on anything
        # else stays on the uncached path.
        self._matchmaker_cacheable = bool(
            getattr(self._matchmaker, "cacheable_by_class", False)
        )
        self._candidate_cache: dict[int, _CandidateEntry] = {}
        self._candidate_epoch = -1
        # Consumer blocks ride on cached candidate entries, so they need
        # a cacheable matchmaker; only preference-mode intentions are a
        # function of (consumer, candidate set) alone.
        self._consumer_blocks = (
            self._matchmaker_cacheable
            and config.consumer_intention_mode == "preference"
        )
        # Per-query scratch reused across arrivals so the hot loop stops
        # allocating full-population intermediates (the ring log copies
        # what it stores, so reuse is safe).
        self._ci_clip_scratch = np.empty(config.n_providers, dtype=float)
        self._pi_clip_scratch = np.empty(config.n_providers, dtype=float)

        # --- telemetry --------------------------------------------------
        # Phase accumulators are plain float sums, allocated only when a
        # registry is active; every hot-path mark is gated on a single
        # ``is not None`` check, so disabled runs skip the clock reads
        # entirely.  The cache tallies below are unconditional plain-int
        # arithmetic: cheap, and they never feed back into the run.
        self._telemetry = get_telemetry()
        self._phase_acc: dict[str, float] | None = (
            dict.fromkeys(ENGINE_PHASES, 0.0)
            if self._telemetry is not None
            else None
        )
        self._run_span: int | None = None
        self._run_started = 0.0
        self._dispatch_stride = 0
        self._candidate_hits = 0
        self._candidate_misses = 0

        # --- decision audit ---------------------------------------------
        # Same discipline as telemetry: resolved once per engine, every
        # hot-path hook behind a single ``is not None`` check, no RNG
        # stream touched, no arithmetic reordered — the recorder reads
        # copies of the per-query vectors only after the method has
        # chosen, so audited runs stay bit-identical to unaudited ones.
        self._audit = get_audit()
        if self._audit is not None:
            self._audit.begin_run(
                method=self.method.name,
                seed=self.seed,
                capacity_rates=self.capacity.rates,
                n_classes=len(config.query_classes.costs),
                epsilon=config.epsilon,
                fixed_omega=config.fixed_omega,
            )

        # --- accounting -------------------------------------------------
        self._collector = TimeSeriesCollector()
        self._departures: list[DepartureRecord] = []
        # Running per-kind counts so sampling never rescans the full
        # departure list (that scan was O(samples × departures)).
        self._provider_departure_count = 0
        self._consumer_departure_count = 0
        self._queries_issued = 0
        self._queries_served = 0
        self._queries_unserved = 0
        self._response_sum = 0.0
        self._response_count = 0
        self._response_sum_post_warmup = 0.0
        self._response_count_post_warmup = 0
        self._interval_response_sum = 0.0
        self._interval_response_count = 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the full horizon and return the run's results.

        A ``None`` consumer or class is drawn from the queries stream at
        issue time: the consumer first, the class only if it is active.
        """
        config = self.config
        self.method.reset()
        if self._telemetry is not None:
            self._run_span = self._telemetry.span_open("run", self.method.name)
            self._run_started = perf_counter()
        arrivals = self._arrival_source()
        self._next_sample = config.sample_interval
        self._next_check = (
            config.warmup_time + config.departure_check_interval
            if self._autonomy_enabled()
            else float("inf")
        )
        next_due = float("-inf")  # the first arrival brings the ladder up
        n_consumers = config.n_consumers
        draw_consumer = self._rng_queries.integers
        active = self.consumers.active
        create = self._factory.create
        recorder = self._recorder
        acc = self._phase_acc

        for time, consumer, klass in arrivals:
            if next_due <= time:
                next_due = self._advance_to(time)
            if acc is not None:
                mark = perf_counter()
            if consumer is None:
                consumer = int(draw_consumer(n_consumers))
            if klass == SKIPPED or not active[consumer]:
                # A departed consumer issues nothing; its share of the
                # arrival process vanishes with it (Section 6.3.2: fewer
                # incoming queries after consumer departures).  The
                # arrival is still recorded: replay must run the ladder
                # at every arrival instant, issued or not.
                if recorder is not None:
                    recorder.record(time, consumer, SKIPPED)
                if acc is not None:
                    acc["arrival"] += perf_counter() - mark
                continue
            query = create(consumer, time, klass)
            if recorder is not None:
                recorder.record(time, consumer, query.klass)
            if acc is not None:
                acc["arrival"] += perf_counter() - mark
            self._dispatch(query, time)

        self._flush_samples(config.duration)
        return self._build_result()

    def _arrival_source(self) -> Iterator[tuple]:
        """The run's ``(time, consumer, klass)`` arrivals, in time order.

        A trace replay bypasses the workload and queries streams
        wholesale, so replays under any method see the same queries.
        Live arrivals leave consumer and class ``None`` for :meth:`run`.
        """
        config = self.config
        workload = config.workload
        if workload.kind == "trace":
            # Local import: trace.py imports this module for recording.
            from repro.simulation.trace import load_trace

            trace = load_trace(
                workload.trace_path, expected_digest=workload.trace_digest
            )
            self._check_trace_compatible(trace)
            return zip(
                trace.times.tolist(),
                trace.consumers.tolist(),
                trace.klasses.tolist(),
            )
        # Hoist the capacity/cost constants out of the per-candidate rate
        # evaluation; the expression keeps arrival_rate_at's exact
        # left-to-right arithmetic so the thinning stream is unchanged.
        total_capacity = config.total_capacity()
        mean_cost = config.query_classes.mean_cost
        duration = config.duration

        def rate_at(time: float) -> float:
            return (
                workload.fraction_at(time, duration) * total_capacity / mean_cost
            )

        arrivals = PoissonArrivals(
            rate_at=rate_at,
            peak_rate=config.peak_arrival_rate(),
            duration=duration,
            rng=self._rng_workload,
            # A fixed workload's rate always equals the peak, so every
            # candidate is accepted and the per-candidate rate evaluation
            # can be skipped (the thinning draw itself is kept).
            constant_rate=workload.kind == "fixed",
        )
        return zip(arrivals, repeat(None), repeat(None))

    def _advance_to(self, time: float) -> float:
        """Run the samples, then the departure checks, then the faults
        due by ``time``; return the instant the next one falls due."""
        self._flush_samples(time)
        interval = self.config.departure_check_interval
        while self._next_check <= time:
            self._check_departures(self._next_check)
            self._next_check += interval
        self._apply_faults_until(time)
        events = self._fault_events
        next_fault = (
            events[self._fault_cursor].time
            if self._fault_cursor < len(events)
            else float("inf")
        )
        return min(self._next_sample, self._next_check, next_fault)

    def _flush_samples(self, time: float) -> None:
        """Take every sample due by ``time``, each after its faults (the
        post-horizon tail runs only this)."""
        interval = self.config.sample_interval
        while self._next_sample <= time:
            self._apply_faults_until(self._next_sample)
            self._sample(self._next_sample)
            self._next_sample += interval

    def _check_trace_compatible(self, trace) -> None:
        config = self.config
        mismatches = []
        if trace.n_consumers != config.n_consumers:
            mismatches.append(
                f"consumers {trace.n_consumers} != {config.n_consumers}"
            )
        if trace.n_providers != config.n_providers:
            mismatches.append(
                f"providers {trace.n_providers} != {config.n_providers}"
            )
        if trace.duration != config.duration:
            mismatches.append(
                f"duration {trace.duration} != {config.duration}"
            )
        if tuple(trace.query_costs) != tuple(config.query_classes.costs):
            mismatches.append(
                f"query costs {tuple(trace.query_costs)} != "
                f"{tuple(config.query_classes.costs)}"
            )
        if mismatches:
            raise ValueError(
                "trace was recorded against a different environment: "
                + "; ".join(mismatches)
            )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _apply_faults_until(self, time: float) -> None:
        """Apply every compiled fault event scheduled at or before ``time``.

        Events take effect at the first engine event (arrival or sample)
        at or after their scheduled time — exact sub-interval timing is
        below the fidelity of the simulation's sampled outputs.
        """
        events = self._fault_events
        cursor = self._fault_cursor
        while cursor < len(events) and events[cursor].time <= time:
            self._apply_fault_event(events[cursor])
            cursor += 1
        self._fault_cursor = cursor

    def _apply_fault_event(self, event) -> None:
        providers = self.providers
        if event.action == "down":
            for index in event.providers:
                # Permanently-departed providers stay departed; already
                # fault-downed providers (overlapping windows) are not
                # double-claimed, so the first recovery restores them.
                if providers.active[index] and index not in self._fault_down:
                    providers.deactivate(index)
                    self._fault_down.add(index)
        else:
            for index in event.providers:
                # Only providers *this* layer took down come back — an
                # autonomy departure is never reversed by a recovery.
                if index in self._fault_down:
                    providers.reactivate(index)
                    self._fault_down.discard(index)

    # ------------------------------------------------------------------
    # per-query processing
    # ------------------------------------------------------------------

    def _candidate_entry(self, query) -> _CandidateEntry:
        """(candidates, their capacities) for ``query``, cached between
        departures.

        Invariant: for a cacheable matchmaker the cached array always
        equals ``matchmaker.candidates(query, active)`` recomputed fresh
        — the cache is keyed by query class and dropped whenever the
        provider pool's epoch (bumped on every ``deactivate``) moves.
        The capacity gather and the consumer block ride along because
        they depend only on the candidate set.  Every array of the
        entry is read-only.
        """
        if not self._matchmaker_cacheable:
            self._candidate_misses += 1
            return self._new_entry(
                self._matchmaker.candidates(query, self.providers.active)
            )
        epoch = self.providers.epoch
        if epoch != self._candidate_epoch:
            self._candidate_cache.clear()
            self._candidate_epoch = epoch
        entry = self._candidate_cache.get(query.klass)
        if entry is None:
            self._candidate_misses += 1
            candidates = self._matchmaker.candidates(
                query, self.providers.active
            )
            # Class-independent matchmakers (the universal one) produce
            # the same candidate set for every class; reusing the first
            # equal entry keeps one array *object* per epoch, which the
            # downstream identity-keyed caches (preference bands,
            # utilization denominators, ring-log lockstep) rely on to
            # hit across query classes, and one consumer block.
            for existing in self._candidate_cache.values():
                if np.array_equal(existing[0], candidates):
                    entry = existing
                    break
            else:
                entry = self._new_entry(candidates)
            self._candidate_cache[query.klass] = entry
        else:
            self._candidate_hits += 1
        return entry

    def _new_entry(self, candidates: np.ndarray) -> _CandidateEntry:
        # Read-only: the entry is shared by every query of its class,
        # and the identity-keyed caches downstream (ring-log lockstep,
        # preference bands, utilisation denominators) trust its arrays
        # never to change, so a method writing into
        # ``request.candidates`` or ``request.capacities`` must fail.
        capacities = self.capacity.rates[candidates]
        candidates.flags.writeable = False
        capacities.flags.writeable = False
        return _CandidateEntry((candidates, capacities))

    def _candidates(self, query) -> np.ndarray:
        """The candidate set for ``query`` (see :meth:`_candidate_entry`)."""
        return self._candidate_entry(query)[0]

    def _dispatch(self, query, time: float) -> None:
        """Mediate one issued query (Algorithm 1 body)."""
        config = self.config
        consumer = query.consumer
        self._queries_issued += 1

        # Phase marks are gated on a single None check each; ``mark``
        # carries the running perf_counter between phase boundaries.
        acc = self._phase_acc
        if acc is not None:
            started = mark = perf_counter()

        audit = self._audit
        if audit is not None:
            hits_before = self._candidate_hits
        entry = self._candidate_entry(query)
        candidates, capacities = entry
        if acc is not None:
            now = perf_counter()
            acc["candidate_lookup"] += now - mark
            mark = now
        if candidates.size == 0:
            self._queries_unserved += 1
            if audit is not None:
                audit.record_unserved()
            return

        self.utilization.advance(time)
        utilizations = self.utilization.utilization_of(candidates)
        provider_preferences = self.provider_prefs.draw(
            candidates, query.klass
        )
        # Strategic providers distort what they *report*; their private
        # satisfaction (record_proposals below) is judged against the
        # truthful draw.  reported is provider_preferences itself when
        # no strategic spec is configured.
        if self._strategic is not None:
            reported_preferences = self._strategic.report(
                candidates, provider_preferences
            )
        else:
            reported_preferences = provider_preferences
        if config.fixed_provider_satisfaction is not None:
            provider_pref_satisfaction = np.full(
                candidates.size, config.fixed_provider_satisfaction
            )
        else:
            provider_pref_satisfaction = self.providers.satisfactions_of(
                candidates, "preference"
            )
        provider_intentions = provider_intention_vector(
            reported_preferences,
            utilizations,
            provider_pref_satisfaction,
            epsilon=config.epsilon,
        )
        block = self._consumer_block(entry)
        if block is not None:
            consumer_intentions = block.intentions[consumer]
        else:
            consumer_intentions = self._consumer_intentions(
                consumer, candidates
            )

        consumer_satisfaction = self.consumers.satisfaction_of(consumer)
        provider_satisfactions = self.providers.satisfactions_of(
            candidates, "intention"
        )

        # Bypass the frozen-dataclass __init__ (twelve object.__setattr__
        # calls per query); the instance is indistinguishable from a
        # normally-constructed AllocationRequest.
        request = AllocationRequest.__new__(AllocationRequest)
        request.__dict__.update(
            time=time,
            query=query,
            candidates=candidates,
            consumer_intentions=consumer_intentions,
            provider_intentions=provider_intentions,
            provider_preferences=reported_preferences,
            utilizations=utilizations,
            capacities=capacities,
            backlog_seconds=self.queues.backlog_seconds_of(candidates, time),
            consumer_satisfaction=consumer_satisfaction,
            provider_satisfactions=provider_satisfactions,
            rng=self._rng_method,
        )
        if acc is not None:
            now = perf_counter()
            acc["intentions"] += now - mark
            mark = now

        positions = np.asarray(self.method.select(request), dtype=np.int64)
        # Everything downstream records the allocation through the q.n
        # selected positions, as Python ints: one scalar step per
        # selected provider instead of candidate-width masks.
        picks = positions.tolist()
        self._validate_selection(picks, request)
        selected = candidates[positions].tolist()
        if acc is not None:
            now = perf_counter()
            acc["selection"] += now - mark
            mark = now

        completions = self.queues.assign(selected, query.cost_units, time)
        response = self.queues.response_time(completions, time)
        self._record_response(response, time)
        self.utilization.assign(selected, query.cost_units)
        if acc is not None:
            now = perf_counter()
            acc["queueing"] += now - mark
            mark = now

        # --- satisfaction model updates -------------------------------
        # Clips land in preallocated scratch (the pools copy what they
        # store, so the buffers can be reused next arrival); a consumer
        # block holds the consumer's clip and adequation already.
        n_candidates = candidates.size
        if block is not None:
            ci_clipped = block.clipped[consumer]
            adequation = block.adequations.get(consumer)
            if adequation is None:
                adequation = query_adequation(ci_clipped)
                block.adequations[consumer] = adequation
        else:
            # min/max pair == np.clip without its dispatch wrapper.
            ci_clipped = self._ci_clip_scratch[:n_candidates]
            np.maximum(consumer_intentions, -1.0, out=ci_clipped)
            np.minimum(ci_clipped, 1.0, out=ci_clipped)
            adequation = query_adequation(ci_clipped)
        satisfaction = query_satisfaction(
            ci_clipped[positions], query.n_desired
        )
        self.consumers.record_query(consumer, adequation, satisfaction)
        if acc is not None:
            now = perf_counter()
            acc["consumer_update"] += now - mark
            mark = now

        pi_clipped = self._pi_clip_scratch[:n_candidates]
        np.maximum(provider_intentions, -1.0, out=pi_clipped)
        np.minimum(pi_clipped, 1.0, out=pi_clipped)
        self.providers.record_proposals(
            candidates,
            intentions=pi_clipped,
            preferences=provider_preferences,
            selected=picks,
        )
        self._queries_served += 1
        if acc is not None:
            now = perf_counter()
            acc["provider_update"] += now - mark
            self._dispatch_stride += 1
            if self._dispatch_stride % _DISPATCH_SAMPLE_STRIDE == 0:
                self._telemetry.observe("engine.dispatch_s", now - started)
        if audit is not None:
            # After the phase marks so audit cost never skews the phase
            # breakdown; everything passed is read-only to the recorder
            # and ``consumer_satisfaction`` is the pre-update value.
            audit.record(
                time=time,
                consumer=consumer,
                klass=query.klass,
                n_desired=query.n_desired,
                cache_hit=self._candidate_hits > hits_before,
                candidates=candidates,
                positions=positions,
                provider_intentions=provider_intentions,
                consumer_intentions=consumer_intentions,
                utilizations=utilizations,
                consumer_satisfaction=consumer_satisfaction,
                provider_satisfactions=provider_satisfactions,
                adequation=adequation,
                satisfaction=satisfaction,
            )

    def _consumer_block(self, entry: _CandidateEntry) -> _ConsumerBlock | None:
        """``entry``'s consumer block, built on first use; ``None`` when
        intentions are computed per query (formula mode, or a matchmaker
        whose entries are not cached)."""
        if not self._consumer_blocks:
            return None
        block = entry.consumer_block
        if block is None:
            block = _ConsumerBlock(self.consumer_prefs.matrix, entry[0])
            entry.consumer_block = block
        return block

    def _consumer_intentions(
        self, consumer: int, candidates: np.ndarray
    ) -> np.ndarray:
        """Per-query ``CI_q`` (the path without a consumer block)."""
        config = self.config
        preferences = self.consumer_prefs.for_consumer(consumer, candidates)
        if config.consumer_intention_mode == "preference":
            # The paper's experimental setting: υ = 1, intentions are
            # exactly the consumer's preferences.  ``for_consumer``
            # gathers with an index array, so this is already a fresh
            # array — no defensive copy needed.
            return preferences
        return consumer_intention_vector(
            preferences,
            self.reputation.of(candidates),
            upsilon=config.upsilon,
            epsilon=config.epsilon,
        )

    @staticmethod
    def _validate_selection(
        picks: list[int], request: AllocationRequest
    ) -> None:
        expected = request.n_to_select
        if len(picks) != expected:
            raise ValueError(
                f"method {request.query.qid}: selected {len(picks)} "
                f"providers, expected {expected}"
            )
        if len(picks) == 1:
            # The paper's q.n = 1: a singleton cannot repeat.
            if not 0 <= picks[0] < request.n_candidates:
                raise ValueError("selection out of candidate range")
            return
        if picks and (min(picks) < 0 or max(picks) >= request.n_candidates):
            raise ValueError("selection out of candidate range")
        if len(set(picks)) != len(picks):
            raise ValueError("selection contains duplicates")

    def _record_response(self, response: float, time: float) -> None:
        self._response_sum += response
        self._response_count += 1
        self._interval_response_sum += response
        self._interval_response_count += 1
        if time >= self.config.warmup_time:
            self._response_sum_post_warmup += response
            self._response_count_post_warmup += 1

    # ------------------------------------------------------------------
    # sampling and departures
    # ------------------------------------------------------------------

    def _autonomy_enabled(self) -> bool:
        rules = self.config.departures
        return rules.consumers_may_leave or bool(rules.provider_reasons)

    def _check_departures(self, time: float) -> None:
        self.utilization.advance(time)
        optimal = self.config.optimal_utilization_at(time)
        records = self._departure_policy.check_providers(
            time,
            self.providers,
            self.utilization.utilization(),
            optimal,
        )
        records.extend(
            self._departure_policy.check_consumers(time, self.consumers)
        )
        self._departures.extend(records)
        for record in records:
            if record.kind == "provider":
                self._provider_departure_count += 1
            else:
                self._consumer_departure_count += 1

    def _sample(self, time: float) -> None:
        self.utilization.advance(time)
        active_p = self.providers.active
        active_c = self.consumers.active

        sample: dict[str, float] = {
            "workload_fraction": self.config.workload.fraction_at(
                time, self.config.duration
            ),
            "active_providers": float(active_p.sum()),
            "active_consumers": float(active_c.sum()),
            "provider_departures_cumulative": float(
                self._provider_departure_count
            ),
            "consumer_departures_cumulative": float(
                self._consumer_departure_count
            ),
        }

        utilization = self.utilization.utilization()
        if active_p.any():
            ut_finite = _finite_values(utilization[active_p])
            sample["utilization_mean"] = _mean_of_finite(ut_finite)
            sample["utilization_fairness"] = _fairness_of_finite(ut_finite)
        else:
            sample["utilization_mean"] = float("nan")
            sample["utilization_fairness"] = float("nan")

        for basis in ("intention", "preference"):
            # The satisfaction vector feeds both the mean and the
            # fairness, so its finite mask is computed once and shared.
            sat_finite = _finite_values(
                self.providers.satisfactions(basis)[active_p]
            )
            adq = self.providers.adequations(basis)[active_p]
            alloc = self.providers.allocation_satisfactions(basis)[active_p]
            prefix = f"provider_{basis}"
            sample[f"{prefix}_satisfaction_mean"] = _mean_of_finite(sat_finite)
            sample[f"{prefix}_adequation_mean"] = _finite_mean(adq)
            sample[f"{prefix}_allocation_satisfaction_mean"] = _finite_mean(
                alloc
            )
            sample[f"{prefix}_satisfaction_fairness"] = _fairness_of_finite(
                sat_finite
            )

        consumer_sat_finite = _finite_values(
            self.consumers.satisfactions()[active_c]
        )
        consumer_adq = self.consumers.adequations()[active_c]
        consumer_alloc = self.consumers.allocation_satisfactions()[active_c]
        sample["consumer_satisfaction_mean"] = _mean_of_finite(
            consumer_sat_finite
        )
        sample["consumer_adequation_mean"] = _finite_mean(consumer_adq)
        sample["consumer_allocation_satisfaction_mean"] = _finite_mean(
            consumer_alloc
        )
        sample["consumer_satisfaction_fairness"] = _fairness_of_finite(
            consumer_sat_finite
        )

        if self._interval_response_count:
            sample["response_time_mean"] = (
                self._interval_response_sum / self._interval_response_count
            )
        else:
            sample["response_time_mean"] = float("nan")
        self._interval_response_sum = 0.0
        self._interval_response_count = 0

        self._collector.add_sample(time, sample)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _build_result(self) -> SimulationResult:
        overall = (
            self._response_sum / self._response_count
            if self._response_count
            else float("nan")
        )
        post = (
            self._response_sum_post_warmup / self._response_count_post_warmup
            if self._response_count_post_warmup
            else float("nan")
        )
        final = {
            "provider_active": self.providers.active.copy(),
            "consumer_active": self.consumers.active.copy(),
            "provider_satisfaction_intention": self.providers.satisfactions(
                "intention"
            ),
            "provider_satisfaction_preference": self.providers.satisfactions(
                "preference"
            ),
            "provider_adequation_intention": self.providers.adequations(
                "intention"
            ),
            "provider_adequation_preference": self.providers.adequations(
                "preference"
            ),
            "consumer_satisfaction": self.consumers.satisfactions(),
            "consumer_adequation": self.consumers.adequations(),
            "utilization": self.utilization.utilization(),
            "capacity_classes": self.capacity.classes.copy(),
            "interest_classes": self.consumer_prefs.interest_classes.copy(),
            "adaptation_classes": self.provider_prefs.adaptation_classes.copy(),
            "completed_counts": self.queues.completed_counts(),
        }
        if self._telemetry is not None:
            self._emit_telemetry()
        return SimulationResult(
            method_name=self.method.name,
            seed=self.seed,
            config=self.config,
            collector=self._collector,
            departures=self._departures,
            queries_issued=self._queries_issued,
            queries_served=self._queries_served,
            queries_unserved=self._queries_unserved,
            response_time_mean=overall,
            response_time_post_warmup=post,
            final=final,
            initial_providers=self.providers.size,
            initial_consumers=self.consumers.size,
        )

    def _emit_telemetry(self) -> None:
        """Flush this run's tallies into the active registry.

        Phase events are emitted while the run span is still open, so
        they parent under it; the span closes last with the run's wall
        time.  All of this happens once, after the horizon — nothing
        here is on the hot path.
        """
        telemetry = self._telemetry
        for name, seconds in (self._phase_acc or {}).items():
            telemetry.event("phase", name, duration_s=seconds)
        telemetry.count(
            "engine.candidate_cache_hits", self._candidate_hits
        )
        telemetry.count(
            "engine.candidate_cache_misses", self._candidate_misses
        )
        pushes = self.consumers.push_stats()
        for kind, count in self.providers.push_stats().items():
            pushes[kind] += count
        telemetry.count("engine.ring_uniform_pushes", pushes["uniform"])
        telemetry.count("engine.ring_scattered_pushes", pushes["scattered"])
        telemetry.count("engine.ring_scalar_pushes", pushes["scalar"])
        telemetry.count(
            "engine.view_rebuilds",
            self.consumers.view_rebuilds + self.providers.view_rebuilds,
        )
        telemetry.count("engine.queries_issued", self._queries_issued)
        telemetry.count("engine.queries_served", self._queries_served)
        telemetry.count("engine.queries_unserved", self._queries_unserved)
        if self._run_span is not None:
            telemetry.span_close(
                self._run_span,
                "run",
                self.method.name,
                perf_counter() - self._run_started,
                attrs={
                    "method": self.method.name,
                    "seed": self.seed,
                    "queries_issued": self._queries_issued,
                    "queries_served": self._queries_served,
                },
            )
            self._run_span = None


def run_simulation(
    config: SimulationConfig,
    method: AllocationMethod | str,
    seed: int = 0,
    matchmaker: Matchmaker | None = None,
) -> SimulationResult:
    """Convenience wrapper: build and run one simulation."""
    return MediatorSimulation(
        config, method, seed=seed, matchmaker=matchmaker
    ).run()
