"""Unit tests for the closed-form tail bounds.

The exhaustive battery here compares bounds against exact laws on every
single-tree statistics with up to 7 nodes; the acceptance suite repeats
this at 9 nodes and adds the large-n and Monte Carlo checks.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from arbor.bounds import (BETA_FLOOR, BoundInput, height_tail_bound,
                          height_tail_bound_no_ones, height_threshold,
                          pair_survival, pair_survival_log_band,
                          pair_survival_log_series, pair_survival_upper,
                          poisson_tail_bound, repeat_threshold,
                          repeat_time_tail_bound, stopping_tail_bound_no_ones)
from arbor.enumeration import (enumerate_degree_statistics,
                               exact_stopping_index_distribution,
                               exact_threshold_sampler_distribution)
from arbor.errors import HasOnes, OutOfRange, PathDegenerate
from arbor.trees import DegreeStatistics


def inp_for(counts):
    return BoundInput.from_stats(DegreeStatistics(counts))


class TestBoundInput:
    def test_scalars(self):
        inp = inp_for({0: 5, 2: 4})
        assert (inp.p1, inp.p2sq, inp.n1, inp.n) == (8, 16, 0, 9)
        assert inp.v == Fraction(16, 8)
        assert inp.branch_scale == pytest.approx(8 / 4)

    def test_v_is_exact_for_near_path_statistics(self):
        # p2sq - n1 = 4 here; a float subtraction of the two large terms
        # would be fine at this size, but the field must stay rational
        inp = inp_for({0: 2, 1: 997, 2: 1})
        assert inp.v == Fraction(1001 - 997, 999)

    def test_path_has_no_branch_scale(self):
        inp = inp_for({0: 1, 1: 6})
        with pytest.raises(PathDegenerate):
            inp.branch_scale


class TestHeightTailBound:
    def test_vacuous_below_beta_floor(self):
        inp = inp_for({0: 5, 2: 4})
        assert height_tail_bound(inp, BETA_FLOOR) == 1.0
        assert height_tail_bound(inp, 1.0) == 1.0

    def test_formula_above_floor(self):
        inp = inp_for({0: 5, 2: 4})
        beta = 216.0
        want = math.exp(-(beta ** (1 / 3) / 3) * inp.branch_scale) \
            + 2 * math.exp(-beta ** (2 / 3) / 24)
        assert height_tail_bound(inp, beta) == pytest.approx(want)

    @given(st.floats(71.0, 1e5), st.floats(1.001, 3.0))
    def test_monotone_in_beta(self, beta, step):
        inp = inp_for({0: 5, 2: 4})
        assert height_tail_bound(inp, beta * step) <= height_tail_bound(inp, beta)

    def test_threshold_scales_linearly(self):
        inp = inp_for({0: 5, 2: 4})
        assert height_threshold(inp, 10.0) == pytest.approx(20.0)

    def test_nan_beta_threshold_is_refused(self):
        # the threshold was a silent nan
        with pytest.raises(OutOfRange):
            height_threshold(inp_for({0: 5, 2: 4}), math.nan)

    def test_path_raises_even_below_floor(self):
        inp = inp_for({0: 1, 1: 6})
        with pytest.raises(PathDegenerate):
            height_tail_bound(inp, 1.0)


class TestNoOnesBounds:
    def test_reject_degree_one_nodes(self):
        inp = inp_for({0: 2, 1: 1, 2: 1})
        with pytest.raises(HasOnes):
            height_tail_bound_no_ones(inp, 2)
        with pytest.raises(HasOnes):
            stopping_tail_bound_no_ones(inp, 2)

    def test_vacuous_below_one(self):
        inp = inp_for({0: 5, 2: 4})
        assert height_tail_bound_no_ones(inp, 0.5) == 1.0
        assert stopping_tail_bound_no_ones(inp, 0.5) == 1.0

    def test_spot_values(self):
        inp = inp_for({0: 5, 2: 4})
        assert stopping_tail_bound_no_ones(inp, 5) == pytest.approx(math.exp(-1))
        assert stopping_tail_bound_no_ones(inp, 1) == 1.0
        assert height_tail_bound_no_ones(inp, 4) == pytest.approx(math.exp(-1))

    @given(st.floats(1.0, 50.0), st.floats(0.1, 5.0))
    def test_monotone_in_ell(self, ell, step):
        inp = inp_for({0: 5, 2: 4})
        assert height_tail_bound_no_ones(inp, ell + step) \
            <= height_tail_bound_no_ones(inp, ell)
        assert stopping_tail_bound_no_ones(inp, ell + step) \
            <= stopping_tail_bound_no_ones(inp, ell)

    def test_stopping_bound_needs_the_shifted_event(self):
        """For {0:2, 2:1} the stopping index is identically 2, so
        P(index >= 2) = 1 exceeds the bound at ell = 2 while
        P(index > 2) = 0 respects it.  The bound is compared against the
        strict-survival event everywhere in this package; pairing it with
        the >= event would be wrong, and this pins that convention."""
        stats = DegreeStatistics({0: 2, 2: 1})
        inp = BoundInput.from_stats(stats)
        law = exact_stopping_index_distribution(stats)
        assert law.pmf() == {2: Fraction(1)}
        bound = stopping_tail_bound_no_ones(inp, 2)
        assert bound == pytest.approx(math.exp(-0.25))
        assert float(law.tail_geq(2)) > bound
        assert float(law.survival(2)) <= bound

    def test_exhaustive_small_battery(self):
        """Exact tails never exceed the bounds on any leafless-one-free
        statistics with at most 7 nodes, at every integer level."""
        for stats in enumerate_degree_statistics(7):
            if stats.norms().n1 > 0 or stats.n < 2:
                continue
            inp = BoundInput.from_stats(stats)
            height = exact_threshold_sampler_distribution(stats)
            sigma = exact_stopping_index_distribution(stats)
            for ell in range(1, stats.n + 1):
                assert float(height.tail_geq(ell)) \
                    <= height_tail_bound_no_ones(inp, ell) + 1e-12
                assert float(sigma.survival(ell)) \
                    <= stopping_tail_bound_no_ones(inp, ell) + 1e-12


class TestRepeatTimeBound:
    def test_degenerate_v(self):
        inp = inp_for({0: 1, 1: 4})
        assert inp.v == 0
        assert repeat_threshold(inp, 100.0) == math.inf
        assert repeat_time_tail_bound(inp, 100.0) == 0.0

    @pytest.mark.parametrize("counts", [{0: 5, 2: 4}, {0: 1, 1: 4}])
    def test_nan_beta_threshold_is_refused(self, counts):
        # the threshold was a silent nan (inf when v = 0)
        with pytest.raises(OutOfRange):
            repeat_threshold(inp_for(counts), math.nan)

    def test_arithmetic_example(self):
        inp = inp_for({0: 5, 2: 4})
        want = math.exp(-10 / 3) + 2 * math.exp(-25 / 24)
        assert repeat_time_tail_bound(inp, 125.0) == pytest.approx(min(1.0, want))
        assert repeat_threshold(inp, 125.0) == pytest.approx(125 * 2.0)

    def test_vacuous_below_floor(self):
        inp = inp_for({0: 5, 2: 4})
        assert repeat_time_tail_bound(inp, 10.0) == 1.0

    def test_vacuous_at_floor(self):
        # the floor is shared with the height bound: neither holds there
        inp = BoundInput.from_stats(DegreeStatistics({0: 64, 2: 63}))
        assert repeat_time_tail_bound(inp, BETA_FLOOR) == 1.0
        assert height_tail_bound(inp, BETA_FLOOR) == 1.0

    @given(st.floats(71.0, 1e5), st.floats(1.001, 3.0))
    def test_monotone_in_beta(self, beta, step):
        inp = inp_for({0: 5, 2: 4})
        assert repeat_time_tail_bound(inp, beta * step) \
            <= repeat_time_tail_bound(inp, beta)


degree_lists = st.lists(st.integers(0, 9), min_size=2, max_size=12)


class TestPairSurvival:
    def test_no_big_degrees_means_no_decay(self):
        assert pair_survival(5.0, [1, 0]) == 1.0
        assert pair_survival_log_series(5.0, [1, 0]) == 0.0
        assert pair_survival_upper(0.5, [1, 0]) == 1.0

    def test_hand_value(self):
        # one degree-2 interval among 3 nodes at t = 1
        assert pair_survival(1.0, [2, 0, 0]) \
            == pytest.approx(1.5 * math.exp(-0.5))
        assert pair_survival_upper(1.0, [2, 0, 0]) \
            == pytest.approx(math.exp(-1 / 24))

    def test_at_zero(self):
        assert pair_survival(0.0, [3, 2, 0, 0, 0, 0]) == 1.0
        assert pair_survival_log_series(0.0, [3, 2, 0, 0, 0, 0]) == 0.0

    @given(degree_lists, st.floats(0.0, 1.0))
    def test_series_matches_log_product(self, degrees, frac):
        big = [d for d in degrees if d >= 2]
        if not big:
            return
        n = len(degrees)
        t = frac * 1.3 * (n - 1) / max(big)
        series = pair_survival_log_series(t, degrees)
        assert abs(math.log(pair_survival(t, degrees)) - series) < 1e-10

    @given(degree_lists, st.floats(0.0, 1.0))
    def test_upper_bound_holds(self, degrees, frac):
        big = [d for d in degrees if d >= 2]
        if not big:
            return
        n = len(degrees)
        t = frac * (n - 1) / max(big)
        assert pair_survival(t, degrees) \
            <= pair_survival_upper(t, degrees) + 1e-12

    @given(degree_lists, st.floats(0.0, 1.0))
    def test_log_band_contains_log_product(self, degrees, frac):
        big = [d for d in degrees if d >= 2]
        if not big:
            return
        n = len(degrees)
        t = frac * 1.9 * (n - 1) / max(big)
        centre, half = pair_survival_log_band(t, degrees)
        assert abs(math.log(pair_survival(t, degrees)) - centre) \
            <= half + 1e-12

    def test_domain_errors(self):
        with pytest.raises(OutOfRange):
            pair_survival(-1.0, [2, 0, 0])
        with pytest.raises(OutOfRange):
            pair_survival_log_series(4.0, [2, 0, 0])  # t >= 2(n-1)/dmax = 2
        with pytest.raises(OutOfRange):
            pair_survival_upper(1.5, [2, 0, 0])  # t > (n-1)/dmax = 1
        with pytest.raises(OutOfRange):
            pair_survival(0.0, [0])  # single node

    @pytest.mark.parametrize("form", [pair_survival, pair_survival_log_series,
                                      pair_survival_upper,
                                      pair_survival_log_band])
    def test_nan_time_is_refused(self, form):
        with pytest.raises(OutOfRange, match="t must be non-negative"):
            form(math.nan, [2, 0, 0])

    def test_infinite_time_is_refused_by_the_product(self):
        # the product computed inf * 0 = nan here
        with pytest.raises(OutOfRange, match="t must be finite"):
            pair_survival(math.inf, [2, 0, 0])


class TestPoissonTailBound:
    def test_boundary_is_one(self):
        assert poisson_tail_bound(3.0, 3.0) == pytest.approx(1.0)

    def test_frozen_oracle_values(self):
        # exact tails by summation; the bound must sit above both
        assert float(sps.poisson.sf(6, 2)) == pytest.approx(4.533805526e-3)
        assert float(sps.poisson.sf(10, 1)) == pytest.approx(1.004776638e-8)
        assert poisson_tail_bound(2.0, 6.0) >= float(sps.poisson.sf(6, 2))
        assert poisson_tail_bound(1.0, 10.0) >= float(sps.poisson.sf(10, 1))

    @given(st.floats(0.1, 20.0), st.floats(0.0, 40.0))
    def test_dominates_exact_tail(self, t, extra):
        h = t + extra
        exact = float(sps.poisson.sf(math.floor(h), t))
        assert poisson_tail_bound(t, h) >= exact - 1e-12

    def test_domain_errors(self):
        with pytest.raises(OutOfRange):
            poisson_tail_bound(5.0, 4.0)
        with pytest.raises(OutOfRange):
            poisson_tail_bound(0.0, 1.0)

    @pytest.mark.parametrize("t, h", [(1.0, math.nan), (math.nan, 1.0),
                                      (math.nan, math.nan), (1.0, math.inf),
                                      (math.inf, math.inf),
                                      (-math.inf, 1.0), (1.0, -math.inf)])
    def test_non_finite_arguments_are_refused(self, t, h):
        # NaN and an infinite h with finite t returned nan before
        with pytest.raises(OutOfRange):
            poisson_tail_bound(t, h)
