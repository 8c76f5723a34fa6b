"""Unit tests for the Wilson interval and the chi-square test helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from arbor.rng import RngStream
from arbor.stats import wilson_interval

from chisq import chi_square_gof, chi_square_two_sample


class TestWilsonInterval:
    def test_zero_successes_starts_at_zero(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01

    def test_all_successes_ends_at_one(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0
        assert lo > 0.99

    def test_returns_builtin_floats(self):
        # numpy scalars leak into JSON and CSV output otherwise
        lo, hi = wilson_interval(3, 10)
        assert type(lo) is float and type(hi) is float

    @given(st.integers(0, 500), st.integers(1, 500))
    def test_contains_point_estimate(self, k, extra):
        n = k + extra
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_wider_at_fewer_trials(self):
        lo1, hi1 = wilson_interval(5, 50)
        lo2, hi2 = wilson_interval(50, 500)
        assert hi1 - lo1 > hi2 - lo2

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("confidence", [0.95])
    def test_matches_uncached_formula(self, confidence):
        # every interval must equal the formula with scipy's quantile
        # recomputed, bit for bit
        def uncached(k, n):
            z = sps.norm.ppf(0.5 + confidence / 2.0)
            phat = k / n
            denom = 1.0 + z * z / n
            centre = (phat + z * z / (2 * n)) / denom
            half = (z / denom) * math.sqrt(
                phat * (1 - phat) / n + z * z / (4 * n * n))
            lo = 0.0 if k == 0 else float(max(0.0, centre - half))
            hi = 1.0 if k == n else float(min(1.0, centre + half))
            return lo, hi

        for n in (1, 7, 100, 20_000, 100_000):
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
                assert wilson_interval(k, n) == uncached(k, n)

    @pytest.mark.parametrize("successes", [-1, 11])
    def test_rejects_successes_outside_trials(self, successes):
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(successes, 10)


class TestChiSquareGof:
    def test_accepts_matching_law(self):
        gen = RngStream(5, 0).gen
        pmf = {0: 0.5, 1: 0.3, 2: 0.2}
        samples = gen.choice(3, size=5000, p=[0.5, 0.3, 0.2])
        assert chi_square_gof(samples, pmf) > 0.01

    def test_rejects_wrong_law(self):
        gen = RngStream(5, 1).gen
        samples = gen.choice(3, size=5000, p=[0.5, 0.3, 0.2])
        assert chi_square_gof(samples, {0: 0.2, 1: 0.3, 2: 0.5}) < 1e-6

    def test_sample_outside_support_is_zero(self):
        assert chi_square_gof([0, 1, 7], {0: 0.5, 1: 0.5}) == 0.0

    def test_sparse_cells_are_pooled(self):
        # heavy tail of tiny expected counts must not blow up the statistic
        pmf = {k: 2.0 ** -(k + 1) for k in range(30)}
        pmf[0] += 1.0 - sum(pmf.values())
        gen = RngStream(9, 0).gen
        samples = gen.choice(30, size=2000, p=[pmf[k] for k in range(30)])
        assert chi_square_gof(samples, pmf) > 0.001


class TestChiSquareTwoSample:
    def test_same_law_accepted(self):
        gen = RngStream(11, 0).gen
        a = gen.choice(4, size=4000, p=[0.4, 0.3, 0.2, 0.1])
        b = gen.choice(4, size=4000, p=[0.4, 0.3, 0.2, 0.1])
        assert chi_square_two_sample(a, b) > 0.01

    def test_different_laws_rejected(self):
        gen = RngStream(11, 1).gen
        a = gen.choice(4, size=4000, p=[0.4, 0.3, 0.2, 0.1])
        b = gen.choice(4, size=4000, p=[0.1, 0.2, 0.3, 0.4])
        assert chi_square_two_sample(a, b) < 1e-10

    def test_degenerate_support_is_vacuous(self):
        assert chi_square_two_sample([3, 3, 3], [3, 3]) == 1.0
