"""Sliding-window utilisation tracking (the paper's ``Ut(p)``).

The paper defines utilisation only informally — "how much [a provider]
is loaded w.r.t. its capacity" (Section 2), computed "as in [16]" — but
anchors it numerically: at a workload of 80 % of total system capacity,
the *optimal* utilisation of a provider is 0.8 (Section 6.3.2).  We
therefore measure, per provider,

    ``Ut(p) = units assigned to p within the last W seconds / (C_p · W)``

which satisfies the anchor exactly (a perfectly proportional allocation
at X % workload gives every provider ``Ut = X/100``) and exceeds 1 when
a provider is assigned more than it can absorb — the regime Definition 8
and Figure 4(g) need to express.

The window is discretised into bins so the tracker is O(providers) per
advance (vectorised) and O(assigned) scalar steps per update.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["UtilizationTracker"]


class UtilizationTracker:
    """Binned sliding-window assigned-work meter for all providers.

    Parameters
    ----------
    capacities:
        Per-provider capacity in treatment units per second.
    window:
        Window length ``W`` in simulated seconds.
    bins:
        Number of bins the window is split into; more bins give a
        smoother window at slightly higher advance cost.
    """

    def __init__(
        self, capacities: np.ndarray, window: float, bins: int
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        capacities = np.asarray(capacities, dtype=float)
        if capacities.ndim != 1 or capacities.size == 0:
            raise ValueError("capacities must be a non-empty 1-D array")
        if capacities.min() <= 0:
            raise ValueError("capacities must be positive")
        self._capacities = capacities
        self._window = float(window)
        self._bins = int(bins)
        self._bin_width = self._window / self._bins
        self._work = np.zeros((capacities.size, self._bins), dtype=float)
        self._current_bin = 0
        self._bin_start = 0.0
        self._row_sums = np.zeros(capacities.size, dtype=float)
        # Identity-keyed cache for utilization_of: the engine passes the
        # same cached candidates array between departures, so the
        # capacity-times-window denominator gather is reused.
        self._cached_providers: np.ndarray | None = None
        self._cached_denominator: np.ndarray | None = None

    @property
    def window(self) -> float:
        """The window length ``W`` in seconds."""
        return self._window

    def advance(self, now: float) -> None:
        """Roll the window forward to simulation time ``now``.

        Bins older than ``W`` are dropped.  Time must not go backwards.
        """
        if now < self._bin_start:
            raise ValueError(
                f"time went backwards: {now} < bin start {self._bin_start}"
            )
        steps = int((now - self._bin_start) / self._bin_width)
        if steps <= 0:
            return
        if steps >= self._bins:
            # The whole window has aged out.
            self._work[:] = 0.0
            self._row_sums[:] = 0.0
            self._current_bin = 0
            self._bin_start += steps * self._bin_width
            return
        for _ in range(steps):
            self._current_bin = (self._current_bin + 1) % self._bins
            expired = self._work[:, self._current_bin]
            self._row_sums -= expired
            self._work[:, self._current_bin] = 0.0
        self._bin_start += steps * self._bin_width
        # Guard against drift pushing a sum slightly negative.
        np.maximum(self._row_sums, 0.0, out=self._row_sums)

    def assign(self, providers: Sequence[int], units: float) -> None:
        """Record ``units`` of work assigned now to each given provider.

        One scalar step per provider; a provider listed twice is
        charged twice, in order.
        """
        work = self._work
        row_sums = self._row_sums
        current = self._current_bin
        for provider in providers:
            work[provider, current] += units
            row_sums[provider] += units

    def utilization(self) -> np.ndarray:
        """Current ``Ut(p)`` for every provider (a fresh array)."""
        return self._row_sums / (self._capacities * self._window)

    def utilization_of(self, providers: np.ndarray) -> np.ndarray:
        """Current ``Ut(p)`` for a provider subset."""
        if providers is not self._cached_providers:
            self._cached_denominator = self._capacities[providers] * self._window
            self._cached_providers = providers
        return self._row_sums[providers] / self._cached_denominator

    def reset(self) -> None:
        """Clear all recorded work (keeps the clock position)."""
        self._work[:] = 0.0
        self._row_sums[:] = 0.0
