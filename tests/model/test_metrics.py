"""Tests for the Section 4 system metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.model import metrics

unit_values = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=50,
)


class TestMean:
    def test_matches_paper_example(self):
        # Section 4's sensitivity example, mediator m.
        assert metrics.mean([0.2, 1.0, 0.6]) == pytest.approx(0.6)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            metrics.mean([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            metrics.mean([0.5, float("nan")])
        with pytest.raises(ValueError):
            metrics.mean([0.5, float("inf")])

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            metrics.mean(np.zeros((2, 2)))


class TestFairness:
    def test_matches_paper_sensitivity_example(self):
        """Section 4 computes f = 0.77 and 0.97 for mediators m and m'."""
        m = metrics.fairness([0.2, 1.0, 0.6])
        m_prime = metrics.fairness([1.0, 0.7, 0.9])
        assert m == pytest.approx(0.77, abs=0.005)
        # The paper reports 0.97; the exact value is 0.9797.
        assert m_prime == pytest.approx(0.98, abs=0.005)

    def test_equal_values_are_perfectly_fair(self):
        assert metrics.fairness([0.4, 0.4, 0.4]) == pytest.approx(1.0)

    def test_all_zero_is_defined_as_fair(self):
        assert metrics.fairness([0.0, 0.0]) == 1.0

    def test_underflowing_squares_keep_the_index(self):
        # (1e-170)² underflows to 0; the index is still 1/n, not "fair".
        assert metrics.fairness([1e-170, 0.0]) == pytest.approx(0.5)

    def test_single_nonzero_among_many_is_least_fair(self):
        # Jain's index lower bound is 1/n, hit by a single winner.
        n = 10
        values = [0.0] * (n - 1) + [1.0]
        assert metrics.fairness(values) == pytest.approx(1.0 / n)

    @given(unit_values)
    def test_bounds(self, values):
        value = metrics.fairness(values)
        assert 0.0 <= value <= 1.0 + 1e-12

    @given(
        unit_values,
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @example(values=[2.99e-160, 2.99e-160], scale=0.5)
    def test_scale_invariance(self, values, scale):
        """Jain's index is invariant to a positive rescaling of g."""
        scaled = [value * scale for value in values]
        assert metrics.fairness(scaled) == pytest.approx(
            metrics.fairness(values), abs=1e-9
        )


class TestMinMaxRatio:
    def test_balanced_set_is_one(self):
        assert metrics.min_max_ratio([0.5, 0.5]) == pytest.approx(1.0)

    def test_detects_punished_entity(self):
        balanced = metrics.min_max_ratio([0.8, 0.9, 1.0])
        punished = metrics.min_max_ratio([0.0, 0.9, 1.0])
        assert punished < balanced

    def test_c0_keeps_ratio_defined_at_zero_max(self):
        assert metrics.min_max_ratio([0.0, 0.0], c0=0.1) == pytest.approx(1.0)

    def test_rejects_non_positive_c0(self):
        with pytest.raises(ValueError):
            metrics.min_max_ratio([0.5], c0=0.0)

    @given(unit_values, st.floats(min_value=0.01, max_value=5.0))
    def test_bounds_for_non_negative_values(self, values, c0):
        value = metrics.min_max_ratio(values, c0=c0)
        assert 0.0 < value <= 1.0 + 1e-12


class TestEntityForms:
    def test_mean_of_callable(self):
        entities = [{"g": 0.2}, {"g": 0.4}]
        assert metrics.mean_of(lambda e: e["g"], entities) == pytest.approx(0.3)

    def test_fairness_of_callable(self):
        entities = [1.0, 1.0, 1.0]
        assert metrics.fairness_of(lambda e: e, entities) == pytest.approx(1.0)

    def test_min_max_ratio_of_callable(self):
        entities = [0.2, 0.8]
        expected = metrics.min_max_ratio([0.2, 0.8])
        assert metrics.min_max_ratio_of(lambda e: e, entities) == expected


class TestSummarize:
    def test_contains_all_three_metrics(self):
        summary = metrics.summarize([0.2, 1.0, 0.6])
        assert set(summary) == {"mean", "fairness", "min_max_ratio"}
        assert summary["mean"] == pytest.approx(0.6)
