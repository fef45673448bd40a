"""Named failure-injection sites for the scheduler/store stack.

The queue and store document crash-ordering invariants ("the rename is
the only commit point", "done wins over leases", "nothing is ever
partially visible") that were, until this module, *assumed* — no test
ever made a write actually fail between two commit points.  A
**failpoint** is a named site threaded through those paths where a
controlled fault can be injected: an ``OSError``, a disk-full error, a
torn (half-written) payload, or an outright ``os._exit`` hard crash.

Activation is environment-driven so injected chaos crosses process
boundaries (worker subprocesses, pool children) for free::

    REPRO_FAILPOINTS="site:action:policy[,site:action:policy...]"

``site`` is an ``fnmatch`` glob over the dotted site names below;
``action`` is one of

* ``raise``  — raise :class:`FailpointError` (an ``OSError``, EIO)
* ``enospc`` — raise :class:`FailpointError` with ``errno.ENOSPC``
* ``torn``   — at payload-write sites only: write a truncated prefix of
  the payload, then raise — the footprint of a writer that died
  mid-write (the final path is never touched; tempfile + rename
  guarantees that, and this action is how the guarantee is exercised)
* ``crash``  — ``os._exit(CRASH_EXIT_CODE)``: no cleanup, no ``finally``
  blocks, no atexit — the closest a test can get to ``kill -9`` from
  the inside

and ``policy`` decides *when* a hit fires:

* ``N`` (an integer) — fire on the Nth hit of this rule, once
* ``every-K`` — fire on every Kth hit
* ``pX`` (e.g. ``p0.25``) — fire each hit with probability X, drawn
  from a dedicated ``random.Random`` seeded by ``REPRO_FAILPOINTS_SEED``
  (default 0) — **never** from a simulation RNG stream

Discipline (the same contract as :mod:`repro.telemetry`):

* **Import leaf.**  This module imports nothing outside
  :mod:`repro.reliability` and no third-party code; anything may
  import it.
* **Provable no-op when disabled.**  :func:`failpoint` is one function
  call and a ``None`` check when ``REPRO_FAILPOINTS`` is unset; the
  environment is read once per process (re-resolved on fork), never
  per call, and no clock or RNG is ever touched.
* **Simulation RNG streams are never consumed.**  The probability
  policy draws from its own stdlib ``random.Random``; enabling
  failpoints cannot change what any simulation computes — only whether
  its I/O survives.

Protocol sites (the commit points of the documented protocols)::

    queue.enqueue.record            before the job-record write
    queue.enqueue.ticket            between job record and ticket writes
    queue.claim.before_rename       heartbeat written, rename not attempted
    queue.claim.after_rename        lease exists, job record not yet read
    queue.heartbeat                 before the heartbeat write
    queue.ack.before_done           result stored, done record not written
    queue.ack.after_done            done written, lease not yet unlinked
    queue.requeue                   before a failed lease's attempts bump
    queue.park                      before an error record is created
    worker.loop                     top of each worker loop iteration
    audit.commit.shard              run buffered, shard not yet written
    audit.commit.manifest           shard written, manifest not yet written

Writer sites: every artefact goes through
:func:`repro.reliability.artifacts.atomic_write` (or its create-only
sibling ``atomic_create``), which fires three sites of its writer's
family — ``<family>.data`` (the payload write into the temp file; the
only site a ``torn`` rule acts on), ``<family>.before_replace`` (temp
complete, not yet committed) and ``<family>.after_replace`` (the
rename or link landed)::

    store.write        result-store entries, queue records, sweep
                       manifests, figure exports
    store.create       create-only queue records (error parks, fsck
                       repairs)
    trace.write        recorded arrival traces
    audit.write        audit shards and their manifests
    telemetry.write    per-process event streams, merged streams,
                       ops bundles
    fleet.write        the fleet supervisor's ``fleet.json``
    profile.write      per-job cProfile dumps

No family's name matches another family's glob, so ``store.write.*``
reaches exactly the writes it always reached; ``*.write.*`` reaches
every replacing writer at once.
"""

from __future__ import annotations

import dataclasses
import errno
import fnmatch
import os
import random

from repro.reliability.singleton import ProcessSingleton

__all__ = [
    "CRASH_EXIT_CODE",
    "FAILPOINTS_ENV",
    "FAILPOINTS_SEED_ENV",
    "FailpointError",
    "Failpoints",
    "configure_failpoints",
    "failpoint",
    "failpoints_session",
    "failpoints_state",
    "get_failpoints",
    "parse_failpoints",
    "torn_payload",
    "trip_counts",
]

#: Environment variable holding the injection spec (unset = disabled).
FAILPOINTS_ENV = "REPRO_FAILPOINTS"

#: Seed of the dedicated reliability RNG the ``pX`` policy draws from.
FAILPOINTS_SEED_ENV = "REPRO_FAILPOINTS_SEED"

#: Exit status of a ``crash`` action — distinguishable from every other
#: failure mode, so supervisors and tests can assert "the failpoint
#: killed it" rather than "something went wrong".
CRASH_EXIT_CODE = 73

_ACTIONS = ("raise", "enospc", "torn", "crash")


class FailpointError(OSError):
    """An injected I/O failure.

    Subclasses ``OSError`` deliberately: every transient-fault handler
    in the repo catches ``OSError``, and an injected fault must flow
    through exactly the code paths a real one would.
    """


@dataclasses.dataclass
class _Rule:
    """One parsed ``site:action:policy`` clause, with its hit state."""

    pattern: str
    action: str
    policy: str
    nth: int | None = None
    every: int | None = None
    probability: float | None = None
    hits: int = 0
    fired: int = 0

    def should_fire(self, rng: random.Random) -> bool:
        """Bump the hit counter and decide whether this hit fires."""
        self.hits += 1
        if self.nth is not None:
            fire = self.hits == self.nth
        elif self.every is not None:
            fire = self.hits % self.every == 0
        else:
            fire = rng.random() < (self.probability or 0.0)
        if fire:
            self.fired += 1
        return fire


def _parse_rule(clause: str) -> _Rule:
    parts = clause.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"bad failpoint clause {clause!r}: expected site:action:policy"
        )
    pattern, action, policy = (part.strip() for part in parts)
    if not pattern:
        raise ValueError(f"bad failpoint clause {clause!r}: empty site")
    if action not in _ACTIONS:
        raise ValueError(
            f"unknown failpoint action {action!r} in {clause!r}; "
            f"available: {', '.join(_ACTIONS)}"
        )
    rule = _Rule(pattern=pattern, action=action, policy=policy)
    try:
        if policy.startswith("every-"):
            rule.every = int(policy[len("every-"):])
            if rule.every < 1:
                raise ValueError
        elif policy.startswith("p"):
            rule.probability = float(policy[1:])
            if not 0.0 <= rule.probability <= 1.0:
                raise ValueError
        else:
            rule.nth = int(policy)
            if rule.nth < 1:
                raise ValueError
    except ValueError:
        raise ValueError(
            f"bad failpoint policy {policy!r} in {clause!r}; expected an "
            "Nth-hit integer, 'every-K', or 'pX' with 0 <= X <= 1"
        ) from None
    return rule


class Failpoints:
    """The parsed, stateful registry of one process's injection rules."""

    def __init__(self, rules: list[_Rule], seed: int = 0) -> None:
        self._rules = rules
        self._rng = random.Random(seed)
        # site -> rules whose glob matches it, resolved once per site so
        # steady-state hits are a dict lookup, not an fnmatch scan.
        self._site_rules: dict[str, list[_Rule]] = {}

    def _rules_for(self, site: str) -> list[_Rule]:
        matched = self._site_rules.get(site)
        if matched is None:
            matched = [
                rule
                for rule in self._rules
                if fnmatch.fnmatchcase(site, rule.pattern)
            ]
            self._site_rules[site] = matched
        return matched

    def _fire(self, site: str, rule: _Rule) -> None:
        if rule.action == "crash":
            # A hard crash: skip every finally block, atexit handler,
            # and buffered flush this process would otherwise run.
            os._exit(CRASH_EXIT_CODE)
        if rule.action == "enospc":
            raise FailpointError(
                errno.ENOSPC,
                f"injected ENOSPC at failpoint {site}",
            )
        raise FailpointError(
            errno.EIO, f"injected I/O error at failpoint {site}"
        )

    def hit(self, site: str) -> None:
        """Evaluate non-torn rules at ``site``; raise/crash on a fire."""
        for rule in self._rules_for(site):
            if rule.action == "torn":
                continue
            if rule.should_fire(self._rng):
                self._fire(site, rule)

    def torn(self, site: str, data: bytes) -> bytes | None:
        """The truncated payload if a torn rule fires here, else None."""
        for rule in self._rules_for(site):
            if rule.action != "torn":
                continue
            if rule.should_fire(self._rng):
                return data[: len(data) // 2]
        return None

    def trip_counts(self) -> dict[str, int]:
        """pattern → number of fires so far (all actions)."""
        counts: dict[str, int] = {}
        for rule in self._rules:
            counts[rule.pattern] = counts.get(rule.pattern, 0) + rule.fired
        return counts


def parse_failpoints(spec: str, seed: int = 0) -> Failpoints:
    """Parse a ``REPRO_FAILPOINTS`` spec string into a registry.

    Raises ``ValueError`` on malformed clauses — a typo'd chaos spec
    must fail loudly, not silently inject nothing.
    """
    rules = [
        _parse_rule(clause)
        for clause in spec.split(",")
        if clause.strip()
    ]
    if not rules:
        raise ValueError(f"failpoint spec {spec!r} contains no clauses")
    return Failpoints(rules, seed=seed)


# ---------------------------------------------------------------------
# process-wide active registry (same lazy/fork discipline as telemetry)
# ---------------------------------------------------------------------


def _from_environment() -> Failpoints | None:
    spec = os.environ.get(FAILPOINTS_ENV, "").strip()
    if not spec:
        return None
    seed_raw = os.environ.get(FAILPOINTS_SEED_ENV, "").strip()
    return parse_failpoints(spec, seed=int(seed_raw) if seed_raw else 0)


def _build(spec: str | None, seed: int = 0) -> Failpoints | None:
    return parse_failpoints(spec, seed=seed) if spec else None


#: The process's registry: resolved from the environment on first use,
#: and afresh in a forked child, so each process owns its hit counters
#: and the same seeded decision sequence.
failpoints_state = ProcessSingleton(_from_environment, _build)

#: The active registry, or ``None`` when disabled.
get_failpoints = failpoints_state.get
#: Install (``spec``) or clear (``None``) the registry explicitly.
configure_failpoints = failpoints_state.configure
#: Scoped registry for tests; restores the previous state on exit.
failpoints_session = failpoints_state.session


def failpoint(site: str) -> None:
    """Evaluate the named injection site.

    The no-op path — failpoints disabled, the overwhelmingly common
    case — is one function call and a ``None`` check.
    """
    registry = get_failpoints()
    if registry is None:
        return
    registry.hit(site)


def torn_payload(site: str, data: bytes) -> bytes | None:
    """The truncated payload a torn rule injects at ``site``, or None.

    Payload-write sites call this once per write; a non-None return
    means "write this prefix instead, then fail" — the caller writes
    the prefix and raises, leaving the half-written temp file a crashed
    writer would.
    """
    registry = get_failpoints()
    if registry is None:
        return None
    return registry.torn(site, data)


def trip_counts() -> dict[str, int]:
    """Fire counts of the active registry (empty when disabled)."""
    registry = get_failpoints()
    return {} if registry is None else registry.trip_counts()
