"""z-scores, p-values and box-plot summaries."""

from __future__ import annotations

import math

import pytest

from repro.significance.zscore import (
    empirical_p_value,
    summarize_significance,
    z_score,
)


class TestZScore:
    def test_basic(self):
        # mean 2, population std sqrt(2/3)
        samples = [1, 2, 3]
        assert z_score(4, samples) == pytest.approx(
            (4 - 2) / math.sqrt(2 / 3)
        )

    def test_zero_sigma_equal(self):
        assert z_score(5, [5, 5, 5]) == 0.0

    def test_zero_sigma_above(self):
        assert z_score(9, [5, 5, 5]) == math.inf

    def test_zero_sigma_below(self):
        assert z_score(1, [5, 5, 5]) == -math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            z_score(1, [])


class TestPValue:
    def test_none_reach_real(self):
        # Never 0: the permutation p-value (k + 1) / (n + 1) floors at 1/4.
        assert empirical_p_value(10, [1, 2, 3]) == pytest.approx(1 / 4)

    def test_some_reach_real(self):
        assert empirical_p_value(2, [1, 2, 3]) == pytest.approx(3 / 4)

    def test_all_reach_real(self):
        assert empirical_p_value(0, [1, 2, 3]) == 1.0


class TestSummary:
    def test_summary_fields(self):
        s = summarize_significance(100, [10, 20, 30, 40])
        assert s.real == 100
        assert s.mean == 25
        assert s.minimum == 10 and s.maximum == 40
        assert s.q1 == pytest.approx(17.5)
        assert s.median == pytest.approx(25)
        assert s.q3 == pytest.approx(32.5)
        assert s.p_value == pytest.approx(1 / 5)
        assert (s.exceeding, s.num_random) == (0, 4)
        assert s.z > 0

    def test_single_sample(self):
        s = summarize_significance(5, [3])
        assert s.median == 3
        assert s.z == math.inf
