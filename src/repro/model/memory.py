"""Bounded interaction memories (the paper's "k last interactions").

Section 3 of the paper defines every participant characteristic
(adequation, satisfaction, allocation satisfaction) as an average over the
participant's *k last interactions* with the system: the k last issued
queries for a consumer, the k last proposed queries for a provider.

This module provides the storage for those sliding windows:

* :class:`InteractionMemory` — a scalar ring buffer with O(1) running
  mean, used by the object-level profiles in
  :mod:`repro.model.consumer_profile` and
  :mod:`repro.model.provider_profile`.
* :class:`RowRingLog` — a vectorised bank of per-entity ring buffers with
  several value channels and per-channel running sums, used on the
  simulator hot path where one query touches hundreds of providers at
  once.  The channels share one stacked storage block so a push updates
  every channel's running sums with single (channels × rows) array
  operations instead of one set of operations per channel.

Running sums accumulate floating-point drift, so both classes refresh
their sums from the raw buffer after a fixed number of pushes; tests
assert the running mean never diverges from a recomputed one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["InteractionMemory", "RowRingLog"]

#: Refresh running sums from the raw buffer every this many pushes.
_RESYNC_INTERVAL = 4096


class InteractionMemory:
    """A fixed-capacity ring buffer of floats with an O(1) running mean.

    Models the memory a single participant keeps of its ``k`` last
    interactions (footnote 3 of the paper: ``k`` may differ per
    participant).  Once more than ``capacity`` values have been pushed,
    the oldest value silently falls out of the window, exactly as the
    paper's sliding assessment requires.

    Parameters
    ----------
    capacity:
        The ``k`` of the paper — how many interactions are remembered.
        Must be a positive integer.

    Examples
    --------
    >>> mem = InteractionMemory(capacity=2)
    >>> mem.push(1.0)
    >>> mem.push(0.0)
    >>> mem.push(0.5)      # evicts the 1.0
    >>> mem.mean()
    0.25
    """

    __slots__ = ("_buffer", "_capacity", "_count", "_pos", "_pushes", "_sum")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._buffer = np.zeros(self._capacity, dtype=float)
        self._pos = 0
        self._count = 0
        self._sum = 0.0
        self._pushes = 0

    @property
    def capacity(self) -> int:
        """The window size ``k``."""
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        # An empty memory is falsy, mirroring standard containers.
        return self._count > 0

    def __iter__(self) -> Iterator[float]:
        return iter(self.values())

    def push(self, value: float) -> None:
        """Record one interaction, evicting the oldest if at capacity."""
        if self._count == self._capacity:
            self._sum -= self._buffer[self._pos]
        else:
            self._count += 1
        self._buffer[self._pos] = value
        self._sum += value
        self._pos = (self._pos + 1) % self._capacity
        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()

    def extend(self, values: Sequence[float]) -> None:
        """Push several interactions in chronological order.

        Bulk path: instead of ``len(values)`` scalar pushes, the ring
        slots the new values land in are computed once and written with
        a single vectorised assignment (only the last ``capacity``
        values can survive, so older ones are never written at all).
        The running sum is refreshed from the raw buffer afterwards, so
        it is at least as accurate as the scalar path's incremental sum;
        the remembered window is bit-identical.
        """
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.size == 0:
            return
        capacity = self._capacity
        tail = arr[-capacity:]
        slots = (self._pos + np.arange(arr.size - tail.size, arr.size)) % capacity
        self._buffer[slots] = tail
        self._pos = (self._pos + arr.size) % capacity
        self._count = min(self._count + arr.size, capacity)
        self._pushes += arr.size
        self._resync()

    def mean(self, default: float = 0.0) -> float:
        """Average of the remembered window, or ``default`` when empty."""
        if self._count == 0:
            return default
        return self._sum / self._count

    def values(self) -> np.ndarray:
        """The remembered values, oldest first (a copy)."""
        if self._count < self._capacity:
            return self._buffer[: self._count].copy()
        return np.concatenate(
            (self._buffer[self._pos :], self._buffer[: self._pos])
        )

    def clear(self) -> None:
        """Forget every interaction."""
        self._buffer[:] = 0.0
        self._pos = 0
        self._count = 0
        self._sum = 0.0

    def _resync(self) -> None:
        if self._count < self._capacity:
            self._sum = float(self._buffer[: self._count].sum())
        else:
            self._sum = float(self._buffer.sum())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InteractionMemory(capacity={self._capacity}, "
            f"len={self._count}, mean={self.mean():.4f})"
        )


class RowRingLog:
    """A bank of per-row ring buffers with named channels and masked sums.

    One row per entity (e.g. one per provider), each row a sliding window
    of the entity's last ``capacity`` interactions.  Every interaction
    carries one float per *channel* (e.g. the shown intention and the
    private preference) plus a boolean *performed* flag.  The class keeps,
    per row and channel, a running sum over the whole window and a running
    sum restricted to performed entries, which is exactly what
    Definitions 4 and 5 of the paper need (adequation averages over all
    proposed queries, satisfaction only over the performed subset).

    All mutating operations accept arrays of row indices so that a single
    query that is proposed to hundreds of providers costs one vectorised
    call.

    Parameters
    ----------
    rows:
        Number of entities.
    capacity:
        Window size ``k`` shared by all rows.
    channels:
        Names of the float channels stored per interaction.
    """

    def __init__(self, rows: int, capacity: int, channels: Sequence[str]) -> None:
        if rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not channels:
            raise ValueError("at least one channel is required")
        if len(set(channels)) != len(channels):
            raise ValueError(f"duplicate channel names in {channels!r}")
        self._rows = int(rows)
        self._capacity = int(capacity)
        self._channels = tuple(channels)
        self._channel_set = frozenset(self._channels)
        self._channel_index = {
            name: index for index, name in enumerate(self._channels)
        }
        n_channels = len(self._channels)
        # Slot-major, channel-last storage: ``_data[slot]`` is the
        # contiguous (rows x channels) plane every row writes its
        # ``slot``-th interaction into.  Rows that are always pushed
        # together stay in ring lockstep, so the common full-population
        # push touches exactly one contiguous plane (see _push_many);
        # the channel axis rides along in the same operations.
        self._data = np.zeros(
            (self._capacity, self._rows, n_channels), dtype=float
        )
        self._performed = np.zeros((self._capacity, self._rows), dtype=bool)
        self._pos = np.zeros(self._rows, dtype=np.int64)
        self._count = np.zeros(self._rows, dtype=np.int64)
        self._sum_all = np.zeros((self._rows, n_channels), dtype=float)
        self._sum_performed = np.zeros((self._rows, n_channels), dtype=float)
        self._count_performed = np.zeros(self._rows, dtype=np.int64)
        self._pushes = 0
        self._generation = 0
        self._arange = np.arange(self._rows)
        # Identity cache: the last rows array verified to be arange(rows)
        # (callers like the engine reuse one cached candidates array, so
        # an `is` check replaces an elementwise comparison per push).
        self._known_full_rows: np.ndarray | None = None
        # Lockstep bookkeeping.  _uniform_slot is the ring slot every
        # row currently sits at while the whole bank advances together
        # (None once any partial push breaks global lockstep); _all_full
        # latches once every window has filled — counts never decrease,
        # so from then on pushes skip the count update.
        self._uniform_slot: int | None = 0
        self._all_full = False
        # Push-path tallies (telemetry reads these; plain ints, always
        # maintained — they never feed back into the simulation).
        self.uniform_pushes = 0
        self.scattered_pushes = 0
        self.scalar_pushes = 0

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def channels(self) -> tuple[str, ...]:
        return self._channels

    @property
    def generation(self) -> int:
        """Bumped whenever the running sums are rebuilt wholesale.

        A drift-cancelling :meth:`_resync` rewrites the sums of *every*
        row, so any caller maintaining derived per-row caches (the
        participant pools) must discard them when this changes; between
        generations only the rows reported by :meth:`push` are dirtied.
        """
        return self._generation

    def push_stats(self) -> dict[str, int]:
        """How often each push path ran (uniform fast path vs rest)."""
        return {
            "uniform": self.uniform_pushes,
            "scattered": self.scattered_pushes,
            "scalar": self.scalar_pushes,
        }

    def counts(self) -> np.ndarray:
        """Per-row number of remembered interactions (copy)."""
        return self._count.copy()

    def performed_counts(self) -> np.ndarray:
        """Per-row number of remembered *performed* interactions (copy)."""
        return self._count_performed.copy()

    def push_positions(
        self,
        row_indices: np.ndarray,
        values: Sequence[np.ndarray],
        performed: Sequence[int],
    ) -> list[int]:
        """Record one interaction for each row in ``row_indices``.

        Parameters
        ----------
        row_indices:
            Integer array of **distinct** rows that observed this
            interaction.  Distinctness is a hard requirement, not a
            hint: the running sums accumulate with fancy indexing,
            which silently drops duplicate contributions (no error is
            raised), corrupting every mean until the next resync.
        values:
            One float array per channel, in channel order, each
            aligned with ``row_indices``.
        performed:
            Positions into ``row_indices`` of the rows that actually
            performed the interaction (for providers: the query was
            allocated to them).  They must be distinct and in range —
            unlike a boolean mask, a list of positions could count a
            row twice — or ``ValueError`` is raised.

        Returns
        -------
        list[int]
            The rows whose *performed* running sums changed — rows that
            performed this interaction or evicted a performed one —
            each once, in no particular order.  (Every pushed row's
            whole-window sums change, so there is no point reporting
            those.)  Callers maintaining performed-mean caches only
            need to refresh these rows.
        """
        rows = np.asarray(row_indices, dtype=np.int64)
        n_rows = rows.size
        if isinstance(performed, np.ndarray):
            if performed.dtype == bool:
                raise TypeError("performed must be positions, not a mask")
            performed = performed.tolist()
        if len(performed) == 1:
            if not 0 <= performed[0] < n_rows:
                raise ValueError("performed position out of range")
        elif performed:
            if min(performed) < 0 or max(performed) >= n_rows:
                raise ValueError("performed position out of range")
            if len(set(performed)) != len(performed):
                raise ValueError("performed positions contain duplicates")
        if len(values) != len(self._channels):
            raise ValueError(
                f"expected {len(self._channels)} channel arrays, "
                f"got {len(values)}"
            )
        for name, value in zip(self._channels, values):
            if np.shape(value) != rows.shape:
                raise ValueError(f"channel {name!r} must align with row_indices")
        if n_rows == 0:
            return []

        if n_rows == 1:
            row = int(rows[0])
            moved = self._apply_scalar_push(
                row, [value[0] for value in values], bool(performed)
            )
            dirty = [row] if moved else []
        else:
            dirty = self._push_many(rows, values, performed)

        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()
        return dirty

    def push(
        self,
        row_indices: np.ndarray,
        values: dict[str, np.ndarray],
        performed: np.ndarray,
    ) -> np.ndarray:
        """:meth:`push_positions` with channels by name and a boolean
        ``performed`` mask aligned with ``row_indices``; returns the
        dirty rows as an array, in ``row_indices`` order."""
        rows = np.asarray(row_indices, dtype=np.int64)
        performed = np.asarray(performed, dtype=bool)
        if performed.shape != rows.shape:
            raise ValueError("performed must align with row_indices")
        if values.keys() != self._channel_set:
            missing = set(self._channels) ^ set(values)
            raise ValueError(f"channel mismatch: {sorted(missing)}")
        dirty = self.push_positions(
            rows,
            [values[name] for name in self._channels],
            np.flatnonzero(performed).tolist(),
        )
        return rows[np.isin(rows, dirty)]

    def _is_all_rows(self, rows: np.ndarray) -> bool:
        if rows.size != self._rows:
            return False
        if rows is self._arange or rows is self._known_full_rows:
            return True
        if np.array_equal(rows, self._arange):
            self._known_full_rows = rows
            return True
        return False

    # Every push path below relies on one invariant of the ring: a slot
    # a row has not written yet (its window is not full) holds +0.0 in
    # every channel and no performed flag.  "Evicting" such a slot
    # therefore subtracts +0.0 — exactly what a full-mask select would
    # subtract — and finds no performed entry, so no path needs a
    # window-full mask, and the slot's flags alone name the performed
    # evictions.  Each path evicts before it adds, per row, so the
    # running sums stay bit-identical whichever path a push takes.

    def _push_many(
        self,
        rows: np.ndarray,
        values: Sequence[np.ndarray],
        performed: Sequence[int],
    ) -> list[int]:
        all_rows = self._is_all_rows(rows)
        if all_rows and self._uniform_slot is not None:
            # Global lockstep: the slot is known without touching _pos.
            return self._push_lockstep(self._uniform_slot, values, performed)
        pos = self._pos if all_rows else self._pos[rows]
        slot = int(pos[0])
        if (pos == slot).all():
            if all_rows:
                return self._push_lockstep(slot, values, performed)
            self.uniform_pushes += 1
        else:
            self.scattered_pushes += 1
        self._uniform_slot = None
        return self._push_rows(rows, pos, values, performed)

    def _push_lockstep(
        self,
        slot: int,
        values: Sequence[np.ndarray],
        performed: Sequence[int],
    ) -> list[int]:
        # Every row sits at ``slot`` (they have been pushed in lockstep
        # since construction — the universal-matchmaker hot path), so
        # one contiguous plane holds every outgoing and incoming value:
        # the whole-window update is two dense (rows x channels)
        # operations, the channels are written straight into the plane,
        # and the performed sums move only on the rows that evict a
        # performed entry or perform this push (row == position here).
        self.uniform_pushes += 1
        plane = self._data[slot]
        flags = self._performed[slot]
        sums = self._sum_performed
        counts = self._count_performed
        evicted = flags.nonzero()[0].tolist()
        self._sum_all -= plane
        for row in evicted:
            sums[row] -= plane[row]
            counts[row] -= 1
            flags[row] = False
        for index, value in enumerate(values):
            plane[:, index] = value
        self._sum_all += plane
        for row in performed:
            sums[row] += plane[row]
            counts[row] += 1
            flags[row] = True
        self._advance_counts(None)
        next_slot = (slot + 1) % self._capacity
        self._pos.fill(next_slot)
        self._uniform_slot = next_slot
        return _union(evicted, performed)

    def _push_rows(
        self,
        rows: np.ndarray,
        pos: np.ndarray,
        values: Sequence[np.ndarray],
        performed: Sequence[int],
    ) -> list[int]:
        # Row ``rows[i]`` writes its slot ``pos[i]``: a row subset still
        # in lockstep (the rows left after departures) or rows at
        # different slots (scattered) — the same pairwise fancy
        # indexing.  Rows are distinct (see push_positions), so it
        # accumulates exactly like a duplicate-safe ufunc.at scatter.
        old = self._data[pos, rows]
        evicted = self._performed[pos, rows].nonzero()[0].tolist()
        sums = self._sum_performed
        counts = self._count_performed
        self._sum_all[rows] -= old
        for index in evicted:
            row = rows[index]
            sums[row] -= old[index]
            counts[row] -= 1
        for index, value in enumerate(values):
            self._data[pos, rows, index] = value
        new = self._data[pos, rows]
        self._sum_all[rows] += new
        for index in performed:
            row = rows[index]
            sums[row] += new[index]
            counts[row] += 1
        self._performed[pos, rows] = False
        self._performed[pos[performed], rows[performed]] = True
        self._advance_counts(rows)
        self._pos[rows] = (pos + 1) % self._capacity
        return rows[_union(evicted, performed)].tolist()

    def _advance_counts(self, rows: np.ndarray | None) -> None:
        # Window fill grows by one per push until every window is full;
        # counts never decrease, so _all_full latches for good.
        if self._all_full:
            return
        if rows is None:
            np.minimum(self._count + 1, self._capacity, out=self._count)
        else:
            self._count[rows] = np.minimum(
                self._count[rows] + 1, self._capacity
            )
        if bool((self._count == self._capacity).all()):
            self._all_full = True

    def push_scalar(
        self, row: int, values: Sequence[float], performed: bool
    ) -> bool:
        """Scalar push of one row, values given in channel order.

        The cheapest way to record a single participant's interaction
        (every consumer query): no index arrays, no per-channel dict of
        singleton arrays.  Arithmetic and resync cadence are identical
        to :meth:`push_positions` with one row.  Returns whether the performed
        running sums moved (the row performed or evicted a performed
        entry).
        """
        if len(values) != len(self._channels):
            raise ValueError(
                f"expected {len(self._channels)} channel values, "
                f"got {len(values)}"
            )
        dirty = self._apply_scalar_push(row, values, performed)
        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()
        return dirty

    def _apply_scalar_push(
        self, row: int, values: Sequence[float], performed: bool
    ) -> bool:
        # Scalar core shared by push_scalar and single-row pushes: each
        # cell read as a Python float (an IEEE double, like the array),
        # updated in the same evict-old-then-add-new order as the vector
        # paths and written back, so the sums stay bit-identical while
        # skipping the fancy indexing machinery.  Returns whether the
        # performed sums moved.
        self.scalar_pushes += 1
        pos = self._pos.item(row)
        full = self._count.item(row) == self._capacity
        old_performed = full and self._performed.item(pos, row)
        moved = performed or old_performed
        data = self._data
        sum_all = self._sum_all
        sum_performed = self._sum_performed
        for index, value in enumerate(values):
            new = float(value)
            old = data.item(pos, row, index)
            total = sum_all.item(row, index)
            if full:
                total -= old
            sum_all[row, index] = total + new
            if moved:
                total = sum_performed.item(row, index)
                if old_performed:
                    total -= old
                if performed:
                    total += new
                sum_performed[row, index] = total
            data[pos, row, index] = new

        if performed != old_performed:
            self._count_performed[row] += 1 if performed else -1
        self._performed[pos, row] = performed
        if not full:
            self._count[row] += 1
        self._pos[row] = (pos + 1) % self._capacity
        if self._rows > 1:
            self._uniform_slot = None
        else:
            self._uniform_slot = (pos + 1) % self._capacity
        return moved

    def push_all_rows(
        self, values: dict[str, np.ndarray], performed: np.ndarray
    ) -> np.ndarray:
        """:meth:`push` of one interaction observed by *every* row."""
        return self.push(self._arange, values, performed)

    def mean_all(self, channel: str, default: float = 0.0) -> np.ndarray:
        """Per-row mean of ``channel`` over the whole window."""
        sums = self._sum_all[:, self._channel_index[channel]]
        out = np.full(self._rows, default, dtype=float)
        nonempty = self._count > 0
        out[nonempty] = sums[nonempty] / self._count[nonempty]
        return out

    def mean_performed(self, channel: str, default: float = 0.0) -> np.ndarray:
        """Per-row mean of ``channel`` over performed entries only."""
        sums = self._sum_performed[:, self._channel_index[channel]]
        out = np.full(self._rows, default, dtype=float)
        nonempty = self._count_performed > 0
        out[nonempty] = sums[nonempty] / self._count_performed[nonempty]
        return out

    def mean_all_rows(
        self, channel: str, rows: np.ndarray, default: float = 0.0
    ) -> np.ndarray:
        """:meth:`mean_all` restricted to ``rows`` (bit-identical there).

        The per-row arithmetic is the same elementwise sum/count divide
        as the full-population method, so a cache refreshed row-by-row
        through this never drifts from a wholesale recompute.
        """
        sums = self._sum_all[rows, self._channel_index[channel]]
        counts = self._count[rows]
        out = np.full(rows.shape, default, dtype=float)
        nonempty = counts > 0
        out[nonempty] = sums[nonempty] / counts[nonempty]
        return out

    def mean_performed_rows(
        self, channel: str, rows: np.ndarray, default: float = 0.0
    ) -> np.ndarray:
        """:meth:`mean_performed` restricted to ``rows``."""
        sums = self._sum_performed[rows, self._channel_index[channel]]
        counts = self._count_performed[rows]
        out = np.full(rows.shape, default, dtype=float)
        nonempty = counts > 0
        out[nonempty] = sums[nonempty] / counts[nonempty]
        return out

    def row_means(self, row: int, default: float = 0.0) -> list[float]:
        """:meth:`mean_all` of one row, every channel in channel order,
        as Python floats (the same correctly rounded divide)."""
        count = self._count.item(row)
        if count == 0:
            return [default] * len(self._channels)
        return [total / count for total in self._sum_all[row].tolist()]

    def row_performed_means(
        self, row: int, default: float = 0.0
    ) -> list[float]:
        """:meth:`mean_performed` of one row, like :meth:`row_means`."""
        count = self._count_performed.item(row)
        if count == 0:
            return [default] * len(self._channels)
        return [total / count for total in self._sum_performed[row].tolist()]

    def row_values(self, row: int, channel: str) -> np.ndarray:
        """The remembered values of one row/channel, oldest first."""
        count = int(self._count[row])
        pos = int(self._pos[row])
        data = self._data[:, row, self._channel_index[channel]]
        if count < self._capacity:
            return data[:count].copy()
        return np.concatenate((data[pos:], data[:pos]))

    def _resync(self) -> None:
        # Rebuild running sums from the raw buffers to cancel FP drift.
        self._generation += 1
        # valid[slot, row]: slot holds a live interaction of row.
        valid = (
            np.arange(self._capacity)[:, None] < self._count[None, :]
        )
        performed = self._performed & valid
        self._sum_all = np.where(valid[:, :, None], self._data, 0.0).sum(axis=0)
        self._sum_performed = np.where(
            performed[:, :, None], self._data, 0.0
        ).sum(axis=0)
        self._count_performed = performed.sum(axis=0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RowRingLog(rows={self._rows}, capacity={self._capacity}, "
            f"channels={self._channels!r})"
        )


def _union(evicted: list[int], performed: Sequence[int]) -> list[int]:
    """Positions in either list, each once (both are duplicate-free)."""
    if not evicted:
        return list(performed)
    merged = set(evicted)
    merged.update(performed)
    return list(merged)
