"""Sparse performed bookkeeping in ``RowRingLog`` stays exact.

Pushes update the performed running sums and counts only on the rows
that perform the push or evict a performed entry.  After every push,
through each path (full-population lockstep, a row subset sharing one
slot, scattered rows), the maintained sums must equal a wholesale
``_resync`` recompute.  Values are multiples of 1/8, so every sum is
exact and the comparison can be bitwise.

The positions form of the push (``push_positions``) is also checked
against a frozen copy of the earlier mask-based push, array by array as
int64 bits, and must reject duplicate or out-of-range positions.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.memory import _RESYNC_INTERVAL, RowRingLog
from repro.simulation.participants import ProviderPool

ROWS = 6
GRID = np.arange(-8, 9) / 8.0


def assert_matches_resync(log):
    fresh = copy.deepcopy(log)
    fresh._resync()
    np.testing.assert_array_equal(
        log._sum_performed.view(np.int64), fresh._sum_performed.view(np.int64)
    )
    np.testing.assert_array_equal(log._count_performed, fresh._count_performed)
    np.testing.assert_array_equal(
        log._sum_all.view(np.int64), fresh._sum_all.view(np.int64)
    )


def push(log, rows, rng):
    n = rows.size
    performed = rng.random(n) < 0.4
    dirty = log.push(
        rows,
        {"a": rng.choice(GRID, n), "b": rng.choice(GRID, n)},
        performed,
    )
    return performed, dirty


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 4),
    subsets=st.lists(
        st.one_of(
            st.none(),  # a full-population push
            st.lists(st.integers(0, ROWS - 1), min_size=1, unique=True),
        ),
        min_size=1,
        max_size=25,
    ),
    seed=st.integers(0, 2**16),
)
def test_sums_match_resync_after_every_push(capacity, subsets, seed):
    rng = np.random.default_rng(seed)
    log = RowRingLog(rows=ROWS, capacity=capacity, channels=("a", "b"))
    for subset in subsets:
        rows = (
            np.arange(ROWS) if subset is None else np.array(sorted(subset))
        )
        performed_before = log._count_performed.copy()
        performed, dirty = push(log, rows, rng)
        assert_matches_resync(log)
        # Dirty rows are exactly the rows whose performed counts or
        # sums could move: the performers plus performed-entry evictions.
        moved = np.flatnonzero(log._count_performed != performed_before)
        assert set(moved) <= set(dirty.tolist())
        assert set(rows[performed].tolist()) <= set(dirty.tolist())


def test_every_push_path_is_exercised():
    rng = np.random.default_rng(7)
    log = RowRingLog(rows=ROWS, capacity=3, channels=("a", "b"))
    everyone = np.arange(ROWS)
    for _ in range(4):  # lockstep, filling and then wrapping the window
        push(log, everyone, rng)
        assert_matches_resync(log)
    push(log, np.array([1, 3, 4]), rng)  # subset sharing one slot
    assert_matches_resync(log)
    uniform = log.uniform_pushes
    for _ in range(4):  # rows now sit at different slots
        push(log, everyone, rng)
        assert_matches_resync(log)
    assert uniform == 5
    assert log.scattered_pushes == 4


class FrozenMaskLog(RowRingLog):
    """The mask-based push as it stood before positions replaced masks.

    A frozen copy (``push`` with a candidate-width boolean mask, the
    stacked-channel temporary, the window-full masks and the
    ``flatnonzero`` scans); :meth:`RowRingLog.push_positions` must leave
    every array bit-identical to it and report the same dirty rows.
    """

    def __init__(self, rows, capacity, channels):
        super().__init__(rows, capacity, channels)
        self._empty_rows = np.empty(0, dtype=np.int64)
        self._dirty_mask = None

    def push(self, row_indices, values, performed):
        rows = np.asarray(row_indices, dtype=np.int64)
        if rows.size == 0:
            return self._empty_rows
        performed = np.asarray(performed, dtype=bool)
        if rows.size == 1:
            dirty = self._push_one(int(rows[0]), values, bool(performed[0]))
            dirty_rows = rows if dirty else self._empty_rows
        else:
            dirty_rows = self._push_many(rows, values, performed)
        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()
        return dirty_rows

    def _stack_values(self, values, shape):
        stacked = np.empty(shape + (len(self._channels),), dtype=float)
        for name, index in self._channel_index.items():
            stacked[..., index] = np.asarray(values[name], dtype=float)
        return stacked

    def _push_many(self, rows, values, performed):
        new = self._stack_values(values, rows.shape)
        all_rows = self._is_all_rows(rows)
        if all_rows and self._uniform_slot is not None:
            self._push_uniform_slot(
                rows, self._uniform_slot, new, performed, all_rows=True
            )
            return rows[self._dirty_mask]
        pos = self._pos if all_rows else self._pos[rows]
        slot = pos[0]
        if (pos == slot).all():
            self._push_uniform_slot(
                rows, int(slot), new, performed, all_rows=all_rows
            )
            return rows[self._dirty_mask]
        self._uniform_slot = None
        return self._push_scattered(rows, pos, new, performed)

    def _push_uniform_slot(self, rows, slot, new, performed, all_rows):
        self.uniform_pushes += 1
        plane = self._data[slot]
        performed_plane = self._performed[slot]
        capacity = self._capacity
        if all_rows:
            old = plane
            if self._all_full:
                old_performed = performed_plane
                self._sum_all -= old
            else:
                full = self._count == capacity
                old_performed = performed_plane & full
                self._sum_all -= np.where(full[:, None], old, 0.0)
            self._dirty_mask = performed | old_performed
            self._move_performed(rows, old, old_performed, new, performed)
            plane[...] = new
            self._sum_all += new
            performed_plane[...] = performed
            if not self._all_full:
                np.minimum(self._count + 1, capacity, out=self._count)
                if bool((self._count == capacity).all()):
                    self._all_full = True
            self._pos[...] = (slot + 1) % capacity
            self._uniform_slot = (slot + 1) % capacity
        else:
            old = plane[rows]
            if self._all_full:
                old_performed = performed_plane[rows]
                self._sum_all[rows] -= old
            else:
                full = self._count[rows] == capacity
                old_performed = performed_plane[rows] & full
                self._sum_all[rows] -= np.where(full[:, None], old, 0.0)
            self._dirty_mask = performed | old_performed
            self._move_performed(rows, old, old_performed, new, performed)
            plane[rows] = new
            self._sum_all[rows] += new
            performed_plane[rows] = performed
            if not self._all_full:
                self._count[rows] = np.minimum(self._count[rows] + 1, capacity)
                if bool((self._count == capacity).all()):
                    self._all_full = True
            self._pos[rows] = (slot + 1) % capacity
            self._uniform_slot = None

    def _move_performed(self, rows, old, old_performed, new, performed):
        sums = self._sum_performed
        counts = self._count_performed
        for index in np.flatnonzero(old_performed).tolist():
            row = rows[index]
            sums[row] -= old[index]
            counts[row] -= 1
        for index in np.flatnonzero(performed).tolist():
            row = rows[index]
            sums[row] += new[index]
            counts[row] += 1

    def _push_scattered(self, rows, pos, new, performed):
        self.scattered_pushes += 1
        full = self._count[rows] == self._capacity
        old_performed = self._performed[pos, rows] & full
        old = self._data[pos, rows]
        self._sum_all[rows] -= np.where(full[:, None], old, 0.0)
        self._move_performed(rows, old, old_performed, new, performed)
        self._data[pos, rows] = new
        self._sum_all[rows] += new
        self._performed[pos, rows] = performed
        if not self._all_full:
            self._count[rows] = np.minimum(
                self._count[rows] + 1, self._capacity
            )
        self._pos[rows] = (pos + 1) % self._capacity
        return rows[performed | old_performed]

    def _push_one(self, row, values, performed):
        scalars = [
            np.asarray(values[name], dtype=float)[0] for name in self._channels
        ]
        self.scalar_pushes += 1
        pos = int(self._pos[row])
        full = int(self._count[row]) == self._capacity
        old_performed = full and bool(self._performed[pos, row])
        data = self._data
        sum_all = self._sum_all
        sum_performed = self._sum_performed
        for index, value in enumerate(scalars):
            new = float(value)
            old = float(data[pos, row, index])
            if full:
                sum_all[row, index] -= old
            if old_performed:
                sum_performed[row, index] -= old
            data[pos, row, index] = new
            sum_all[row, index] += new
            if performed:
                sum_performed[row, index] += new
        self._count_performed[row] += int(performed) - int(old_performed)
        self._performed[pos, row] = performed
        if not full:
            self._count[row] += 1
        self._pos[row] = (pos + 1) % self._capacity
        if self._rows > 1:
            self._uniform_slot = None
        else:
            self._uniform_slot = (pos + 1) % self._capacity
        return performed or old_performed


def assert_same_state(log, frozen):
    for name in ("_sum_all", "_sum_performed", "_data"):
        np.testing.assert_array_equal(
            getattr(log, name).view(np.int64),
            getattr(frozen, name).view(np.int64),
            err_msg=name,
        )
    for name in ("_count_performed", "_pos", "_count", "_performed"):
        np.testing.assert_array_equal(
            getattr(log, name), getattr(frozen, name), err_msg=name
        )
    assert log.generation == frozen.generation
    assert log.push_stats() == frozen.push_stats()


@settings(max_examples=80, deadline=None)
@given(
    capacity=st.integers(1, 4),
    warm_start=st.booleans(),
    resync_in=st.integers(1, 30),
    pushes=st.lists(
        st.tuples(
            st.one_of(
                st.none(),  # a full-population push
                st.lists(st.integers(0, ROWS - 1), min_size=1, unique=True),
            ),
            # Performed positions, drawn in arbitrary order; reduced
            # modulo the push's width and deduplicated below.
            st.lists(st.integers(0, ROWS - 1), max_size=ROWS),
        ),
        min_size=1,
        max_size=25,
    ),
    seed=st.integers(0, 2**16),
)
def test_positions_push_equals_frozen_mask_push(
    capacity, warm_start, resync_in, pushes, seed
):
    """Lockstep all-rows, lockstep subset and scattered pushes, windows
    not yet full, a ``_RESYNC_INTERVAL`` boundary, and the warm-start
    eviction that dirties every row: the positions path matches the
    frozen mask path bit for bit after every push."""
    rng = np.random.default_rng(seed)
    log = RowRingLog(rows=ROWS, capacity=capacity, channels=("a", "b"))
    frozen = FrozenMaskLog(rows=ROWS, capacity=capacity, channels=("a", "b"))
    for ring in (log, frozen):
        # Start close to a resync so some sequences cross it.
        ring._pushes = _RESYNC_INTERVAL - resync_in
    everyone = np.arange(ROWS)
    if warm_start:
        # ProviderPool's warm start: one all-performed entry per row,
        # whose eviction one window later dirties every row.
        seed_values = np.full(ROWS, 0.25)
        dirty = log.push_positions(
            everyone, (seed_values, seed_values), range(ROWS)
        )
        expected = frozen.push(
            everyone,
            {"a": seed_values, "b": seed_values},
            np.ones(ROWS, dtype=bool),
        )
        assert set(dirty) == set(expected.tolist())
    for subset, drawn in pushes:
        rows = everyone if subset is None else np.array(sorted(subset))
        positions = list(dict.fromkeys(p % rows.size for p in drawn))
        values = (rng.uniform(-1, 1, rows.size), rng.uniform(-1, 1, rows.size))
        mask = np.zeros(rows.size, dtype=bool)
        mask[positions] = True
        dirty = log.push_positions(rows, values, positions)
        expected = frozen.push(
            rows, {"a": values[0], "b": values[1]}, mask
        )
        assert all(type(row) is int for row in dirty)
        assert len(dirty) == len(set(dirty))
        assert set(dirty) == set(expected.tolist())
        assert_same_state(log, frozen)


def test_equivalence_sequences_reach_every_path():
    """A fixed sequence through the same comparison reaches each path
    the hypothesis test samples, so none of them can silently drop out."""
    rng = np.random.default_rng(3)
    log = RowRingLog(rows=ROWS, capacity=2, channels=("a", "b"))
    frozen = FrozenMaskLog(rows=ROWS, capacity=2, channels=("a", "b"))
    for ring in (log, frozen):
        ring._pushes = _RESYNC_INTERVAL - 6
    everyone = np.arange(ROWS)
    plan = [
        (everyone, list(range(ROWS))),  # warm start, window not full
        (everyone, [4]),  # fills the window
        (everyone, [2, 0]),  # evicts every row's warm start
        (np.array([1, 3, 4]), [1]),  # lockstep subset
        (everyone, [5, 3]),  # scattered
        (everyone, []),  # scattered across the resync
        (np.array([2]), [0]),  # single row
    ]
    dirty_sizes = []
    for rows, positions in plan:
        values = (rng.uniform(-1, 1, rows.size), rng.uniform(-1, 1, rows.size))
        mask = np.zeros(rows.size, dtype=bool)
        mask[positions] = True
        dirty = log.push_positions(rows, values, positions)
        expected = frozen.push(rows, {"a": values[0], "b": values[1]}, mask)
        assert set(dirty) == set(expected.tolist())
        assert_same_state(log, frozen)
        dirty_sizes.append(len(dirty))
    assert dirty_sizes[2] == ROWS
    assert log.generation == 1
    assert log.push_stats() == {"uniform": 4, "scattered": 2, "scalar": 1}


class TestBadPositions:
    def _log(self):
        return RowRingLog(rows=ROWS, capacity=3, channels=("a", "b"))

    def _values(self, n):
        return (np.zeros(n), np.zeros(n))

    @pytest.mark.parametrize(
        "positions", ([1, 1], [0, 2, 0], [ROWS], [-1], [0, ROWS])
    )
    def test_push_positions_rejects(self, positions):
        log = self._log()
        before = log._sum_all.copy()
        with pytest.raises(ValueError):
            log.push_positions(
                np.arange(ROWS), self._values(ROWS), positions
            )
        # Rejected before anything moved.
        assert log._count.sum() == 0
        np.testing.assert_array_equal(log._sum_all, before)

    def test_push_positions_rejects_out_of_range_for_subset(self):
        # Position 3 is a valid row but not a position into 3 rows.
        with pytest.raises(ValueError):
            self._log().push_positions(
                np.array([0, 2, 4]), self._values(3), [3]
            )

    def test_push_positions_rejects_a_mask(self):
        with pytest.raises(TypeError):
            self._log().push_positions(
                np.arange(ROWS), self._values(ROWS), np.ones(ROWS, bool)
            )

    @pytest.mark.parametrize("selected", ([0, 0], [4], [-1]))
    def test_record_proposals_rejects(self, selected):
        pool = ProviderPool(
            4, memory=5, initial_satisfaction=0.5, warm_start_entries=1
        )
        with pytest.raises(ValueError):
            pool.record_proposals(
                np.arange(4),
                intentions=np.zeros(4),
                preferences=np.zeros(4),
                selected=selected,
            )
