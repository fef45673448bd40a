"""The one-power-pair kernels equal the two-branch formulas bit for bit.

``provider_intention_vector``, ``consumer_intention_vector`` and
``provider_score_vector`` pick each lane's bases before a single pair
of ``np.power`` calls.  The frozen copies below are the earlier
evaluate-both-branches-then-select forms; every lane must match them
exactly (compared as int64 bit patterns, so -0.0 and NaN payloads
count), including on zero bases, exponents 0 and 1, overloaded
utilisations, intentions below -1 and the broadcasting surface path.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.intentions import (
    consumer_intention_vector,
    provider_intention_surface,
    provider_intention_vector,
)
from repro.core.scoring import provider_score_vector


def two_branch_provider_intention(prf, ut, sat, epsilon=1.0):
    prf, ut, sat = np.broadcast_arrays(
        np.asarray(prf, dtype=float),
        np.asarray(ut, dtype=float),
        np.asarray(sat, dtype=float),
    )
    positive = (prf > 0.0) & (ut < 1.0)
    one_minus_sat = 1.0 - sat
    pos = np.power(np.maximum(prf, 0.0), one_minus_sat) * np.power(
        np.maximum(1.0 - ut, 0.0), sat
    )
    neg = -(
        np.power(1.0 - prf + epsilon, one_minus_sat)
        * np.power(ut + epsilon, sat)
    )
    return np.where(positive, pos, neg)


def two_branch_consumer_intention(prf, rep, upsilon, epsilon=1.0):
    prf = np.asarray(prf, dtype=float)
    rep = np.broadcast_to(np.asarray(rep, dtype=float), prf.shape)
    positive = (prf > 0.0) & (rep > 0.0)
    pos = np.power(np.maximum(prf, 0.0), upsilon) * np.power(
        np.maximum(rep, 0.0), 1.0 - upsilon
    )
    neg = -(
        np.power(1.0 - prf + epsilon, upsilon)
        * np.power(1.0 - rep + epsilon, 1.0 - upsilon)
    )
    return np.where(positive, pos, neg)


def two_branch_score(pi, ci, om, epsilon=1.0):
    pi, ci, om = np.broadcast_arrays(
        np.asarray(pi, dtype=float),
        np.asarray(ci, dtype=float),
        np.asarray(om, dtype=float),
    )
    positive = (pi > 0.0) & (ci > 0.0)
    one_minus_om = 1.0 - om
    pos = np.power(np.maximum(pi, 0.0), om) * np.power(
        np.maximum(ci, 0.0), one_minus_om
    )
    neg = -(
        np.power(1.0 - pi + epsilon, om)
        * np.power(1.0 - ci + epsilon, one_minus_om)
    )
    return np.where(positive, pos, neg)


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(
        actual.view(np.int64), expected.view(np.int64)
    )


def _values(low, high, specials):
    """Floats in [low, high], with the branch edges drawn often."""
    return st.one_of(
        st.sampled_from(specials),
        st.floats(low, high, allow_nan=False, allow_subnormal=True),
    )


SIZE = st.integers(1, 40)
PREFERENCE = _values(-1.0, 1.0, [-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0])
UTILIZATION = _values(0.0, 3.0, [0.0, 1.0 - 2**-53, 1.0, 1.5, 3.0])
UNIT = _values(0.0, 1.0, [0.0, 1.0, 0.5])
INTENTION = _values(-3.0, 1.0, [-3.0, -1.0, -0.0, 0.0, 1e-300, 1.0])
EPSILON = st.sampled_from([1.0, 0.5, 1e-3])


def _vector(elements):
    return SIZE.flatmap(lambda n: arrays(np.float64, n, elements=elements))


class TestProviderIntention:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), epsilon=EPSILON)
    def test_aligned_vectors(self, data, epsilon):
        n = data.draw(SIZE)
        prf = data.draw(arrays(np.float64, n, elements=PREFERENCE))
        ut = data.draw(arrays(np.float64, n, elements=UTILIZATION))
        sat = data.draw(arrays(np.float64, n, elements=UNIT))
        assert_same_bits(
            provider_intention_vector(prf, ut, sat, epsilon=epsilon),
            two_branch_provider_intention(prf, ut, sat, epsilon),
        )

    @settings(max_examples=50, deadline=None)
    @given(
        prf=_vector(PREFERENCE),
        ut=_vector(UTILIZATION),
        sat=UNIT,
    )
    def test_broadcast_grid(self, prf, ut, sat):
        assert_same_bits(
            provider_intention_vector(prf[:, None], ut[None, :], sat),
            two_branch_provider_intention(prf[:, None], ut[None, :], sat),
        )

    @given(sat=UNIT)
    def test_surface(self, sat):
        preferences, utilizations, surface = provider_intention_surface(sat)
        assert_same_bits(
            surface,
            two_branch_provider_intention(
                preferences[:, None], utilizations[None, :], sat
            ),
        )

    def test_zero_dimensional_inputs(self):
        assert_same_bits(
            provider_intention_vector(0.3, 0.2, 0.5),
            two_branch_provider_intention(0.3, 0.2, 0.5),
        )


class TestConsumerIntention:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        upsilon=UNIT,
        epsilon=EPSILON,
        scalar_reputation=st.booleans(),
    )
    def test_matches_two_branch_form(
        self, data, upsilon, epsilon, scalar_reputation
    ):
        n = data.draw(SIZE)
        prf = data.draw(arrays(np.float64, n, elements=PREFERENCE))
        if scalar_reputation:
            rep = data.draw(PREFERENCE)
        else:
            rep = data.draw(arrays(np.float64, n, elements=PREFERENCE))
        assert_same_bits(
            consumer_intention_vector(prf, rep, upsilon, epsilon),
            two_branch_consumer_intention(prf, rep, upsilon, epsilon),
        )


class TestProviderScore:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), epsilon=EPSILON)
    def test_aligned_vectors(self, data, epsilon):
        n = data.draw(SIZE)
        pi = data.draw(arrays(np.float64, n, elements=INTENTION))
        ci = data.draw(arrays(np.float64, n, elements=INTENTION))
        om = data.draw(arrays(np.float64, n, elements=UNIT))
        assert_same_bits(
            provider_score_vector(pi, ci, om, epsilon=epsilon),
            two_branch_score(pi, ci, om, epsilon),
        )

    @settings(max_examples=50, deadline=None)
    @given(pi=_vector(INTENTION), ci=_vector(INTENTION), om=UNIT)
    def test_broadcast_grid(self, pi, ci, om):
        assert_same_bits(
            provider_score_vector(pi[:, None], ci[None, :], om),
            two_branch_score(pi[:, None], ci[None, :], om),
        )
