"""Provider execution queues and response-time accounting.

Each provider processes the queries allocated to it one at a time, in
FIFO order — the standard model for the paper's "treatment units"
capacity: a query of ``u`` units takes ``u / C_p`` seconds of exclusive
service at provider ``p``.  Because service is deterministic once the
allocation is fixed, the queue reduces to a per-provider
``busy_until`` clock and completions can be computed at assignment time;
there is no need to materialise completion events.

Response time follows the paper's convention (Section 6.3.1): the
elapsed time from the moment a query is issued to the moment its
consumer receives the response — for multi-provider allocations, when
the *last* selected provider finishes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["ProviderQueues"]


class ProviderQueues:
    """FIFO work queues for the whole provider population.

    Parameters
    ----------
    capacities:
        Per-provider capacity in treatment units per second.
    """

    def __init__(self, capacities: np.ndarray) -> None:
        capacities = np.asarray(capacities, dtype=float)
        if capacities.ndim != 1 or capacities.size == 0:
            raise ValueError("capacities must be a non-empty 1-D array")
        if capacities.min() <= 0:
            raise ValueError("capacities must be positive")
        self._capacities = capacities
        self._busy_until = np.zeros(capacities.size, dtype=float)
        self._completed = np.zeros(capacities.size, dtype=np.int64)
        self._busy_time = np.zeros(capacities.size, dtype=float)

    @property
    def busy_until(self) -> np.ndarray:
        """Per-provider time at which its queue drains (live view)."""
        return self._busy_until

    def backlog_seconds(self, now: float) -> np.ndarray:
        """Seconds of queued work ahead of a new arrival, per provider."""
        return np.maximum(self._busy_until - now, 0.0)

    def backlog_seconds_of(self, providers: np.ndarray, now: float) -> np.ndarray:
        """:meth:`backlog_seconds` for a provider subset only.

        Saves the full-population subtract/maximum when the caller (the
        engine, once per query) only needs the candidate rows.
        """
        return np.maximum(self._busy_until[providers] - now, 0.0)

    def estimate_delay(
        self, providers: np.ndarray, cost_units: float, now: float
    ) -> np.ndarray:
        """Queue wait plus service time if the query went to each provider.

        This is the delay estimate providers quote in their Mariposa-like
        bids; it is exact under the deterministic-service model.
        """
        providers = np.asarray(providers, dtype=np.int64)
        wait = np.maximum(self._busy_until[providers] - now, 0.0)
        service = cost_units / self._capacities[providers]
        return wait + service

    def assign(
        self, providers: Sequence[int], cost_units: float, now: float
    ) -> list[float]:
        """Enqueue one query at each selected provider.

        Returns the per-provider completion times, in ``providers``
        order.  The same query going to several providers (``q.n > 1``)
        is executed independently by each of them: one scalar step per
        provider, each IEEE operation the same as its vector lane.
        """
        if not len(providers):
            raise ValueError("cannot assign a query to zero providers")
        if cost_units <= 0:
            raise ValueError(f"cost must be positive, got {cost_units}")
        busy_until = self._busy_until
        completions = []
        for provider in providers:
            busy = float(busy_until[provider])
            start = busy if busy > now else now
            service = cost_units / float(self._capacities[provider])
            completion = start + service
            busy_until[provider] = completion
            self._completed[provider] += 1
            self._busy_time[provider] += service
            completions.append(completion)
        return completions

    def response_time(
        self, completions: Sequence[float], issued_at: float
    ) -> float:
        """Consumer-observed response time for one query's completions."""
        return float(max(completions) - issued_at)

    def completed_counts(self) -> np.ndarray:
        """Number of queries each provider has been assigned (copy)."""
        return self._completed.copy()

    def busy_seconds(self) -> np.ndarray:
        """Total service seconds accumulated per provider (copy)."""
        return self._busy_time.copy()
