"""Sparse performed bookkeeping in ``RowRingLog`` stays exact.

Pushes update the performed running sums and counts only on the rows
that perform the push or evict a performed entry.  After every push,
through each path (full-population lockstep, a row subset sharing one
slot, scattered rows), the maintained sums must equal a wholesale
``_resync`` recompute.  Values are multiples of 1/8, so every sum is
exact and the comparison can be bitwise.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.memory import RowRingLog

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
