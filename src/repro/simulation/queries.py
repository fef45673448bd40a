"""Queries and query generation (Section 2 and Section 6.1).

A query is the paper's triple ``q = <c, d, n>``: the issuing consumer,
a task description, and the number of providers the consumer wants.  In
the simulation the description reduces to a *query class* (which fixes
the treatment cost in units) because the matchmaking step is assumed
sound and complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.config import QueryClassSpec

__all__ = ["SKIPPED", "Query", "QueryFactory"]

#: Query-class sentinel for an arrival that issued no query (its drawn
#: consumer had departed).
SKIPPED = -1


@dataclass(frozen=True)
class Query:
    """One feasible query.

    Attributes
    ----------
    qid:
        Monotonically increasing identifier (issue order).
    consumer:
        Index of the issuing consumer (``q.c``).
    klass:
        Query-class index into the configuration's
        :class:`~repro.simulation.config.QueryClassSpec`.
    cost_units:
        Treatment units this query consumes at a high-capacity provider
        (``q.d`` reduced to its cost).
    n_desired:
        ``q.n`` — how many providers the consumer wants.
    issued_at:
        Simulation time of arrival at the mediator.
    """

    qid: int
    consumer: int
    klass: int
    cost_units: float
    n_desired: int
    issued_at: float

    def __post_init__(self) -> None:
        if self.n_desired < 1:
            raise ValueError(f"q.n must be at least 1, got {self.n_desired}")
        if self.cost_units <= 0:
            raise ValueError(f"cost must be positive, got {self.cost_units}")


class QueryFactory:
    """Draws query classes and assembles :class:`Query` objects."""

    def __init__(
        self,
        spec: QueryClassSpec,
        n_desired: int,
        rng: np.random.Generator,
    ) -> None:
        self._spec = spec
        self._costs = np.asarray(spec.costs, dtype=float)
        weights = np.asarray(spec.weights, dtype=float)
        self._probabilities = weights / weights.sum()
        # Precomputed inverse-CDF table replicating Generator.choice's
        # internals (cumsum, normalise, searchsorted against one uniform
        # draw): same class sequence, same RNG stream, none of choice's
        # per-call validation overhead.
        self._cdf = self._probabilities.cumsum()
        self._cdf /= self._cdf[-1]
        self._cost_list = [float(cost) for cost in self._costs]
        self._n_desired = int(n_desired)
        self._rng = rng
        self._next_id = 0

    @property
    def issued(self) -> int:
        """How many queries this factory has created."""
        return self._next_id

    def create(
        self, consumer: int, issued_at: float, klass: int | None = None
    ) -> Query:
        """Issue a query for ``consumer``, drawing its class if not given.

        The class draw is ``Generator.choice(n, p=...)`` unrolled: one
        uniform against the precomputed CDF, which consumes the exact
        same stream (verified bit-identical in the RNG tests).  A given
        ``klass`` (trace replay: the class was drawn when the trace was
        recorded) draws nothing.
        """
        if klass is None:
            klass = int(
                self._cdf.searchsorted(self._rng.random(), side="right")
            )
        # Bypass the frozen-dataclass __init__ (per-field object.__setattr__
        # plus __post_init__): every field here is valid by construction —
        # costs and n_desired were validated when the spec/factory were
        # built.  The resulting instance is indistinguishable from a
        # normally-constructed Query.
        query = Query.__new__(Query)
        query.__dict__.update(
            qid=self._next_id,
            consumer=consumer,
            klass=klass,
            cost_units=self._cost_list[klass],
            n_desired=self._n_desired,
            issued_at=issued_at,
        )
        self._next_id += 1
        return query
