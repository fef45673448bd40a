"""Mariposa's single winner equals the first qualified bid of the ranking.

For ``q.n = 1`` the method scans ``-bids`` with unqualified bids masked
to ``-inf`` instead of sorting every bid.  The winner and the method
RNG stream must match the full-ranking route: ``rank_providers`` on
``-bids``, first qualified entry, cheapest-overall backfill when none
qualifies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.mariposa import MariposaMethod
from repro.core.ranking import rank_providers
from tests.allocation.test_methods import make_request


def ranked_winner(method, request):
    """The winner by the full ranking (the pre-scan implementation)."""
    bids = method.bids(request)
    delays = request.backlog_seconds + (
        request.query.cost_units / request.capacities
    )
    ranking = rank_providers(
        -bids, rng=request.rng, tie_break=method._tie_break
    )
    qualified = delays[ranking] <= method._max_delay
    winners = ranking[qualified][:1]
    if winners.size == 0:
        winners = ranking[~qualified][:1]
    return winners


def request_pair(**fields):
    """Two identical requests with identical, independent RNGs."""
    return make_request(**fields), make_request(**fields)


def assert_same_choice(method, fields):
    scan, ranked = request_pair(**fields)
    winner = method.select(scan)
    assert winner.tolist() == ranked_winner(method, ranked).tolist()
    # Both routes drew the same jitter: the streams stay in step.
    assert scan.rng.random() == ranked.rng.random()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 12),
    tie_break=st.sampled_from(["random", "index"]),
    seed=st.integers(0, 2**16),
)
def test_random_requests(data, n, tie_break, seed):
    # Coarse preference/utilisation grids make equal bids (ties) common.
    grid = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    fields = dict(
        n_providers=n,
        provider_preferences=data.draw(st.lists(grid, min_size=n, max_size=n)),
        utilizations=data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)
        ),
        backlog=data.draw(
            st.lists(st.sampled_from([0.0, 5.0, 20.0]), min_size=n, max_size=n)
        ),
        seed=seed,
    )
    assert_same_choice(MariposaMethod(tie_break=tie_break), fields)


@pytest.mark.parametrize("tie_break", ["random", "index"])
def test_all_bids_tied(tie_break):
    assert_same_choice(
        MariposaMethod(tie_break=tie_break), dict(n_providers=6, seed=11)
    )


@pytest.mark.parametrize("tie_break", ["random", "index"])
def test_no_bid_qualifies(tie_break):
    fields = dict(
        n_providers=5,
        provider_preferences=[0.2, 0.9, -0.4, 0.9, 0.1],
        backlog=[50.0] * 5,
    )
    method = MariposaMethod(tie_break=tie_break)
    assert_same_choice(method, fields)
    # The cheapest bid (preference 0.9, lowest position on a tie under
    # the index tie-break) wins the backfill.
    if tie_break == "index":
        assert method.select(make_request(**fields)).tolist() == [1]


def test_cheaper_unqualified_bid_loses():
    fields = dict(
        n_providers=3,
        provider_preferences=[1.0, 0.0, -1.0],
        backlog=[30.0, 0.0, 0.0],
    )
    method = MariposaMethod()
    assert_same_choice(method, fields)
    assert method.select(make_request(**fields)).tolist() == [1]


def test_single_candidate():
    assert_same_choice(MariposaMethod(), dict(n_providers=1))


@pytest.mark.parametrize("tie_break", ["random", "index"])
def test_nan_bid_among_unqualified_raises(tie_break):
    request = make_request(
        n_providers=4,
        provider_preferences=[0.5, float("nan"), 0.5, 0.5],
        backlog=[0.0, 50.0, 0.0, 0.0],
    )
    with pytest.raises(ValueError, match="NaN"):
        MariposaMethod(tie_break=tie_break).select(request)
