"""Unit tests for simply generated tree models.

Exact rational arithmetic is the backbone here: partition numbers are
cross-checked against direct enumeration sums, and the degree-bundling
surgery is verified by explicit big-integer and Fraction identities.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import zeta

from arbor import samplers
from arbor import weights as weights_module
from arbor.enumeration import (count_forests, enumerate_degree_statistics,
                               enumerate_trees_of_size)
from arbor.errors import (BadParameters, Diverged, OutOfDomain, PhiDiverges,
                          RhoUnknown, TooLarge, ZeroPartition)
from arbor.rng import RngStream
from arbor.trees import DegreeStatistics, build_tree, validate_words
from arbor.weights import (WeightSequence, concentrate_degrees,
                           concentration_count_ratio_ok,
                           concentration_weight_ratio, exact_tree_law,
                           limit_degree_law, nu_sigma_sq, partition_function,
                           phi, psi, sample_simply_generated,
                           simply_generated_sampler,
                           solve_critical_tilt, statistics_weight,
                           tilt_invariance_check, tilted_law)

from chisq import chi_square_gof
from polynomial_reference import poly_mul

BINARY = WeightSequence.from_list([1, 0, 1])
ALL_ONES = WeightSequence.from_list([1] * 9)
# Apery's constant zeta(3) to 22 digits (OEIS A002117), and
# zeta(2) = pi^2/6 (Euler)
ZETA3 = 1.2020569031595942853997
ZETA2 = math.pi ** 2 / 6


def census_weights():
    return WeightSequence.from_generator(
        lambda k: 1.0 if k == 0 else float(k) ** -3.0, rho_hint=1.0)


def factorial_squared():
    return WeightSequence.from_generator(
        lambda k: Fraction(math.factorial(k)) ** 2, rho_hint=0.0)


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


class TestWeightSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSequence.from_list([0, 1])
        with pytest.raises(ValueError):
            WeightSequence.from_list([1, -1])
        with pytest.raises(ValueError):
            WeightSequence()
        with pytest.raises(ValueError):
            WeightSequence(explicit=(1, 1), generator=lambda k: 1.0)
        with pytest.raises(ValueError):
            WeightSequence.from_generator(lambda k: 0.0)

    @pytest.mark.parametrize("weights", [
        [1, math.nan, 1], [1, math.inf], [math.nan], [1, True, 1],
        [1, np.True_], [1, 1, np.float64(math.nan)]],
        ids=["nan", "inf", "nan-first", "bool", "numpy-bool", "numpy-nan"])
    def test_non_finite_and_bool_weights_are_refused(self, weights):
        # nan was accepted: phi and psi returned nan, the critical tilt came
        # out as 3.1e-61 and the partition function "overflowed"
        with pytest.raises(ValueError, match="finite numbers"):
            WeightSequence.from_list(weights)

    @pytest.mark.parametrize("fn", [
        lambda k: math.nan if k == 1 else 2.0 ** -k,
        lambda k: math.inf if k == 2 else 2.0 ** -k,
        lambda k: -0.5 if k == 2 else 2.0 ** -k,
        lambda k: True if k == 0 else 2.0 ** -k],
        ids=["nan", "inf", "negative", "bool"])
    def test_generator_heads_follow_the_explicit_rule(self, fn):
        # w_0, w_1 and w_2 are checked on construction, as an explicit
        # list is; the nan and the bool were accepted
        with pytest.raises(ValueError, match="finite numbers"):
            WeightSequence.from_generator(fn)

    @pytest.mark.parametrize("bad", ["1", None, 1j, [1]],
                             ids=["str", "none", "complex", "list"])
    def test_non_numeric_weights_are_refused(self, bad):
        # a string escaped as TypeError("'<=' not supported ...")
        with pytest.raises(ValueError, match="finite numbers"):
            WeightSequence.from_list([1, bad])
        with pytest.raises(ValueError, match="finite numbers"):
            WeightSequence.from_generator(
                lambda k: bad if k == 2 else 2.0 ** -k)

    def test_exact_weights_beyond_float_range_are_kept(self):
        w = WeightSequence.from_list([1, Fraction(1, 2), 10 ** 400])
        assert w.explicit == (1, Fraction(1, 2), 10 ** 400)

    def test_trailing_zeros_trimmed(self):
        w = WeightSequence.from_list([1, 2, 0, 0])
        assert w.explicit == (1, 2)
        assert w.max_degree == 1
        assert w.weight(5) == 0

    def test_rho_resolution(self):
        assert BINARY.resolve_rho() == (math.inf, False)
        assert census_weights().resolve_rho() == (1.0, False)
        geom = WeightSequence.from_generator(lambda k: Fraction(1, 4 ** k),
                                             cap=500)
        rho, estimated = geom.resolve_rho()
        assert estimated
        assert rho == pytest.approx(4.0, rel=1e-9)

    def test_rho_unknown_when_weights_vanish(self):
        dead_tail = WeightSequence.from_generator(
            lambda k: 1.0 if k == 0 else 0.0, cap=300)
        with pytest.raises(RhoUnknown):
            dead_tail.resolve_rho()

    def test_is_rational(self):
        assert WeightSequence.from_list([1, Fraction(1, 2)]).is_rational()
        assert not WeightSequence.from_list([1, 0.5]).is_rational()
        assert not census_weights().is_rational()

    def test_json_round_trip(self):
        w = WeightSequence.from_list([1, Fraction(1, 2), 3])
        back = WeightSequence.from_json(w.to_json())
        assert back.explicit == (Fraction(1), Fraction(1, 2), Fraction(3))
        assert w.to_json()["rho"] == "infinity"

    def test_generator_does_not_serialise(self):
        with pytest.raises(ValueError):
            census_weights().to_json()


class TestSeries:
    def test_phi_psi_exact_for_rational_input(self):
        t = Fraction(1, 2)
        assert phi(BINARY, t) == Fraction(5, 4)
        assert psi(BINARY, t) == Fraction(2, 5)

    def test_psi_increases(self):
        vals = [psi(BINARY, t / 10) for t in range(1, 10)]
        assert vals == sorted(vals)

    def test_generator_series_converges_at_the_boundary(self):
        # polynomially decaying terms: the Euler-Maclaurin tail closes the
        # gap after a few hundred terms
        w = census_weights()
        assert phi(w, 1.0) == pytest.approx(1.0 + ZETA3, rel=1e-13)
        assert psi(w, 1.0) == pytest.approx(ZETA2 / (1.0 + ZETA3), rel=1e-13)
        assert float(zeta(3, 1)) == pytest.approx(ZETA3, rel=1e-15)

    def test_diverging_series_raises(self):
        with pytest.raises(Diverged):
            phi(census_weights(), 1.5)

    def test_negative_point_rejected(self):
        with pytest.raises(OutOfDomain):
            phi(BINARY, -0.5)

    @pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
    def test_memo_keeps_exact_and_float_sums_apart(self, order):
        w = WeightSequence.from_list([1, Fraction(1, 2), Fraction(1, 3)])
        for t in order + order:
            value = phi(w, t)
            assert type(value) is (Fraction if type(t) is int else float)
            assert float(value) == pytest.approx(11 / 6)

    def test_equal_int_and_float_weights_keep_their_sum_types(self):
        # (1, 2) == (1.0, 2.0), so a memo keyed on the sequence would mix them
        ints, floats = (WeightSequence.from_list(v) for v in ([1, 2], [1.0, 2.0]))
        assert ints == floats
        for w, kind in ((ints, int), (floats, float), (ints, int)):
            assert type(phi(w, 3)) is kind and phi(w, 3) == 7

    def test_generator_series_is_summed_once(self):
        calls = [0]

        def weight(k):
            calls[0] += 1
            return 1.0 if k == 0 else float(k) ** -3.0

        w = WeightSequence.from_generator(weight, rho_hint=1.0)
        first = phi(w, 1.0)
        # 3 for the constructor, 192 for the blocks through the certified
        # checkpoint K = 128
        assert calls[0] <= 256
        calls[0] = 0
        assert phi(w, 1.0) == first and nu_sigma_sq(w)[0] == psi(w, 1.0)
        assert calls[0] > 0  # the power-1 and power-2 series
        calls[0] = 0
        assert phi(w, 1.0) == first and psi(w, 1.0) == nu_sigma_sq(w)[0]
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_a_bad_weight_is_named_where_the_sum_reaches_it(self, bad):
        # the negative weight was summed (phi was 1.3254597981770833) and
        # the nan made phi raise "did not converge"
        w = WeightSequence.from_generator(
            lambda k: bad if k == 7 else 2.0 ** -k)
        with pytest.raises(ValueError, match="w_7 = "):
            phi(w, 0.5)
        # the tilt raised InvalidDistribution, or "overflow" for the nan
        with pytest.raises(ValueError, match="w_7 = "):
            tilted_law(w, 0.5, 20)
        far = WeightSequence.from_generator(
            lambda k: bad if k == 5000 else 2.0 ** -k)
        clean = WeightSequence.from_generator(lambda k: 2.0 ** -k)
        assert phi(far, 0.5) == phi(clean, 0.5)


class TestCriticality:
    def test_finite_support(self):
        nu, sig = nu_sigma_sq(WeightSequence.from_list([1, 1, 1]))
        assert nu == 2.0 and sig == 0.0

    def test_zero_radius(self):
        assert nu_sigma_sq(factorial_squared()) == (0.0, 0.0)

    def test_subcritical_boundary_census(self):
        nu, sig = nu_sigma_sq(census_weights())
        assert nu == pytest.approx(ZETA2 / (1 + ZETA3), rel=1e-13)
        assert nu < 1.0
        assert sig == math.inf

    def test_boundary_chase_that_never_settles_is_diverged(self):
        # k^-2 at rho = 1: Phi(1) = 1 + zeta(2) converges but
        # sum k w_k = sum 1/k does not, so Psi(t) grows without bound as t
        # rises to 1
        w = WeightSequence.from_generator(
            lambda k: 1.0 if k == 0 else float(k) ** -2.0, rho_hint=1.0)
        assert phi(w, 1.0) == pytest.approx(1 + ZETA2, rel=1e-13)
        with pytest.raises(Diverged, match="not settled"):
            nu_sigma_sq(w)

    def test_critical_tilt_binary(self):
        assert solve_critical_tilt(BINARY) == pytest.approx(1.0, abs=1e-12)

    def test_tilt_saturates_at_rho_for_subcritical_boundary(self):
        assert solve_critical_tilt(census_weights()) == 1.0

    def test_tilt_runs_away_without_branching(self):
        assert solve_critical_tilt(WeightSequence.from_list([1, 1])) > 1e12

    def test_no_tilt_at_zero_radius(self):
        with pytest.raises(OutOfDomain):
            solve_critical_tilt(factorial_squared())


class TestLimitDegreeLaw:
    def test_census_masses(self):
        # the masses stop at K = 524,288, where the certified remaining
        # mass K^-2/(2 (1 + zeta(3))) falls below 1e-12, and the rest is
        # renormalised away; the float sum of 524,289 masses that
        # renormalises them is good to about 5e-12
        pi = limit_degree_law(census_weights())
        assert len(pi.masses) == 524_289
        for k, c in enumerate((1, 1, 1 / 8, 1 / 27)):
            assert pi.mass(k) == pytest.approx(c / (1 + ZETA3), rel=1e-11)

    def test_zero_radius_degenerates(self):
        pi = limit_degree_law(factorial_squared())
        assert pi.mass(0) == 1.0

    def test_finite_support_has_no_boundary_law(self):
        with pytest.raises(PhiDiverges):
            limit_degree_law(BINARY)

    def test_tilted_law_ratios(self):
        law = tilted_law(WeightSequence.from_list([1, 2, 3]), 0.5, 2)
        assert law.mass(1) / law.mass(0) == pytest.approx(1.0)
        assert law.mass(2) / law.mass(0) == pytest.approx(0.75)
        with pytest.raises(OutOfDomain):
            tilted_law(BINARY, 0.0, 3)


def _loop_tail(marks):
    """(tail, error) of the power-law rule at the last of three marks
    (K, t_K, d), written out as `_series_sum` states it; None at a slope
    <= 1.05 or without one spacing d of the positive terms since the mark
    before."""
    (k0, t0, _), (k1, t1, _), (k2, t2, d) = marks
    if not d:
        return None
    prev = math.log(t0 / t1) / math.log(k1 / k0)
    alpha = math.log(t1 / t2) / math.log(k2 / k1)
    if alpha <= 1.05:
        return None
    tail = t2 * k2 / (d * (alpha - 1)) - t2 / 2 + d * alpha * t2 / (12 * k2)
    sensitivity = abs(d * t2 / (12 * k2) - t2 * k2 / (d * (alpha - 1) ** 2))
    err = (abs(alpha - prev) * sensitivity
           + d ** 3 * alpha * (alpha + 1) * (alpha + 2) * t2 / (720 * k2 ** 3))
    return tail, err


def _loop_mark(marks, spacing, k, term, cap):
    """Track the spacing of the positive terms from k = 1 through `term`
    at k, `spacing` = [last positive k, common spacing since the last
    mark or 0 if uneven], and append (k, term, spacing) when k is a mark:
    the first positive term, the first at twice the last mark or beyond,
    or the cap.  True when it appended one."""
    if not (term > 0 and k >= 1):
        return False
    last, run = spacing
    gap = 0 if last is None else k - last
    spacing[:] = k, gap if run in (None, gap) else 0
    if marks and k < 2 * marks[-1][0] and k != cap:
        return False
    marks.append((k, term, spacing[1]))
    spacing[1] = None
    return True


def _loop_block_terms(weight, base, lo, hi, power):
    """The terms k^power float(w_k) base^k of lo <= k < hi up to the first
    k whose weight raises or is negative or NaN, and that error (None if
    none), one Python scalar at a time."""
    terms = []
    for k in range(lo, hi):
        try:
            wk = weight(k)
            try:
                wk, pk = float(wk), base ** k
            except OverflowError:
                raise Diverged(f"series term overflowed at k={k}") from None
        except Exception as exc:
            return terms, exc
        if not wk >= 0:
            return terms, ValueError(f"w_{k} = {wk!r} is not a number >= 0")
        terms.append((k ** power if power else 1) * wk * pk)
    return terms, None


def _loop_series_sum(w, t, power):
    """The generator series of `_series_sum` as a term-by-term loop over
    the same blocks (64 terms doubling to 4,096), the reference the numpy
    blocks must match bit for bit.  At each k: the overflow test, then the
    geometric tail (r the largest ratio of the block so far, once the
    ratio does not rise, at a zero term only past the block's last positive
    one), then the power-law tail at a checkpoint."""
    total, last, marks, spacing = 0.0, None, [], [None, None]
    lo, size = 0, 64
    while lo <= w.cap:
        terms, error = _loop_block_terms(w.generator, float(t), lo,
                                         min(lo + size, w.cap + 1), power)
        final = max((k for k, term in enumerate(terms, start=lo) if term > 0),
                    default=-1)
        r = q_prev = None
        for k, term in enumerate(terms, start=lo):
            total += term
            if total > 1e300 or math.isinf(total):
                raise Diverged(f"series exceeded overflow threshold at k={k}")
            if last is not None:
                q = (0.0 if term == 0 else term / last if last
                     else math.inf)
                r = q if r is None else max(r, q)
                if (q_prev is not None and q <= q_prev * (1 + 1e-13) and r < 1
                        and (term > 0 or k > final)):
                    tail = term * r / (1 - r)
                    if tail < 1e-14 * (total + tail):
                        return total + tail, True
                q_prev = q
            last = term
            if _loop_mark(marks, spacing, k, term, w.cap):
                fit = _loop_tail(marks[-3:]) if len(marks) >= 3 else None
                if fit and fit[1] < 1e-14 * (total + fit[0]):
                    return total + fit[0], True
        if error is not None:
            raise error
        lo, size = lo + size, min(2 * size, 4096)
    return total, False


def _loop_limit_masses(w):
    """The masses of `limit_degree_law` as a term-by-term loop, up to the
    first checkpoint whose power-law tail plus error is below 1e-12."""
    rho, _ = w.resolve_rho()
    total = float(phi(w, rho))
    masses, marks, spacing = [], [], [None, None]
    for k in range(1_000_001):
        m = float(w.weight(k)) * rho ** k / total
        masses.append(m)
        if _loop_mark(marks, spacing, k, m, 1_000_000):
            fit = _loop_tail(marks[-3:]) if len(marks) >= 3 else None
            if fit and fit[0] + fit[1] < 1e-12:
                break
    return masses


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


class TestBlockSeriesMatchesScalarLoop:
    # (weights, t): power-law tails certified at a checkpoint (k^-3,
    # k^-2.5, k^-3 on even k at spacing 2) or not before the cap (a slope
    # at most 1.05; k^-3 log k, whose fitted slope drifts; positive terms
    # at uneven spacings); a tilted power law whose slope drifts until the
    # terms are small; geometric tails certified in the first block, in a
    # later one, after a ratio of inf (zero terms between positive ones)
    # or 0 (a dead tail, from k = 10 or k = 1), or past zero terms that
    # end nothing (2^-k off k = 2 mod 3); t^k that would overflow only
    # after the stop, in the stop's block (0.65^k) or beyond it (1/k!);
    # t^k overflowing while the term is small; the total passing 1e300; a
    # weight that raises after the stop, and one that raises before
    CASES = {
        "0.65^k at 1.5": (lambda k: 0.65 ** k, 1.5),
        "0.5^k raising from 60": (lambda k: 0.5 ** k if k < 60 else 1 / 0,
                                  1.0),
        "0.5^k raising from 20": (lambda k: 0.5 ** k if k < 20 else 1 / 0,
                                  1.0),
        "k^-3 at 1": (lambda k: 1.0 if k == 0 else float(k) ** -3.0, 1.0),
        "k^-2.5 at 1": (lambda k: 1.0 if k == 0 else float(k) ** -2.5, 1.0),
        "k^-3 log k at 1": (
            lambda k: 1.0 if k == 0 else math.log(k) * float(k) ** -3.0, 1.0),
        "k^-3 at 1 - 2^-12": (
            lambda k: 1.0 if k == 0 else float(k) ** -3.0, 1 - 2.0 ** -12),
        "k^-1.01 at 1": (lambda k: 1.0 if k == 0 else float(k) ** -1.01,
                         1.0),
        "ones at 0.995": (lambda k: 1.0, 0.995),
        "even 2^-k at 1": (lambda k: 0.0 if k % 2 else 2.0 ** -k, 1.0),
        "even k^-3 at 1": (
            lambda k: 1.0 if k == 0 else 0.0 if k % 2 else float(k) ** -3.0,
            1.0),
        "k^-3 off k = 2 mod 3 at 1": (
            lambda k: 1.0 if k == 0 else 0.0 if k % 3 == 2
            else float(k) ** -3.0, 1.0),
        "2^-k off k = 2 mod 3 at 1": (
            lambda k: 0.0 if k % 3 == 2 else 2.0 ** -k, 1.0),
        "2^-k to k = 9 at 1": (lambda k: 2.0 ** -k if k < 10 else 0.0, 1.0),
        "w_0 alone at 1": (lambda k: 0.0 if k else 1.0, 1.0),
        "1/k! at 1.5": (lambda k: 1.0 / math.factorial(k), 1.5),
        "2^-k at 1.99": (lambda k: 2.0 ** -k, 1.99),
        "1e10 at 1.5": (lambda k: 1.0 if k == 0 else 1e10, 1.5),
    }

    @pytest.mark.parametrize("power", [0, 1, 2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_value_flag_and_error_are_the_loops(self, case, power):
        fn, t = self.CASES[case]
        w = WeightSequence.from_generator(fn)
        assert (_outcome(weights_module._series_sum, w, t, power)
                == _outcome(_loop_series_sum, w, t, power))

    @pytest.mark.parametrize("case, power, expected", [
        ("k^-3 at 1", 0, ("value", True)),
        ("k^-3 at 1", 1, ("value", True)),
        ("k^-2.5 at 1", 0, ("value", True)),
        ("k^-3 log k at 1", 0, ("value", False)),
        ("k^-3 at 1 - 2^-12", 0, ("value", True)),
        ("k^-1.01 at 1", 0, ("value", False)),
        ("ones at 0.995", 0, ("value", True)),
        ("even 2^-k at 1", 0, ("value", True)),
        ("even k^-3 at 1", 0, ("value", True)),
        ("k^-3 off k = 2 mod 3 at 1", 0, ("value", False)),
        ("2^-k off k = 2 mod 3 at 1", 0, ("value", True)),
        ("2^-k to k = 9 at 1", 0, ("value", True)),
        ("w_0 alone at 1", 0, ("value", True)),
        ("1/k! at 1.5", 0, ("value", True)),
        ("0.65^k at 1.5", 0, ("value", True)),
        ("0.5^k raising from 60", 0, ("value", True)),
        ("0.5^k raising from 20", 0,
         ("raised", ZeroDivisionError, "division by zero")),
        ("2^-k at 1.99", 0,
         ("raised", Diverged, "series term overflowed at k=1032")),
        ("1e10 at 1.5", 0,
         ("raised", Diverged, "series exceeded overflow threshold at k=1645"))])
    def test_each_case_takes_its_intended_exit(self, case, power, expected):
        fn, t = self.CASES[case]
        got = _outcome(weights_module._series_sum,
                       WeightSequence.from_generator(fn), t, power)
        if expected[0] == "value":
            assert (got[0], got[1][1]) == expected
        else:
            assert got == expected

    @pytest.mark.parametrize("fn, t, exact, calls", [
        (lambda k: 1.0, 0.975, 40.0, 1_984),
        (lambda k: 1.0, 0.995, 200.0, 8_128),
        (lambda k: 1.0 / math.factorial(k), 1.5, math.exp(1.5), 64)],
        ids=["0.975^k", "0.995^k", "1.5^k/k!"])
    def test_closed_form_sums(self, fn, t, exact, calls):
        # geometric series 1/(1 - t), and e^t.  `calls` is the blocks
        # read through the stop: 0.975^k stops near k = 1,270, 0.995^k near
        # 6,440, both on the geometric tail, and 1.5^k/k! at K = 32 on
        # the power-law tail (the first block's ratios reach 1.5)
        seen = []
        w = WeightSequence.from_generator(lambda k: seen.append(k) or fn(k))
        seen.clear()
        value, ok = weights_module._series_sum(w, t, 0)
        assert ok and value == pytest.approx(exact, rel=1e-13)
        assert len(seen) == calls

    def test_limit_law_masses_are_the_loops(self):
        w = census_weights()
        law = limit_degree_law(w)
        expected = samplers.OffspringDistribution.from_masses(
            _loop_limit_masses(w), renormalize=True)
        assert law.masses == expected.masses


def _fsum_reference(f, tail_integral, n=20_000):
    """(1 + sum_{1 <= k <= n} f(k) by math.fsum, half-width): the rest
    sum_{k > n} f(k) of an f convex past n lies between the trapezoid
    bound I(n) - f(n)/2 and the midpoint bound I(n + 1/2), I(x) the
    integral of f from x on, and the middle of the two is added."""
    lo, hi = tail_integral(n) - f(n) / 2, tail_integral(n + 0.5)
    head = math.fsum([1.0] + [f(k) for k in range(1, n + 1)])
    return head + (lo + hi) / 2, (hi - lo) / 2


class TestCertifiedTails:
    """Each certified generator sum is within 1e-13 of its value; one the
    rules cannot certify is flagged, never silently wrong."""

    @pytest.mark.parametrize("alpha, power, exact", [
        (3.0, 0, 1 + ZETA3), (3.0, 1, ZETA2), (2.0, 0, 1 + ZETA2)],
        ids=["k^-3", "k * k^-3", "k^-2"])
    def test_zeta_values_at_the_boundary(self, alpha, power, exact):
        w = WeightSequence.from_generator(
            lambda k: 1.0 if k == 0 else float(k) ** -alpha, rho_hint=1.0)
        value, ok = weights_module._series_sum(w, 1.0, power)
        assert ok and abs(value - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("fn, exact", [
        (lambda k: 1.0 if k == 0 else 0.0 if k % 2 else float(k) ** -3.0,
         1 + ZETA3 / 8),
        (lambda k: 1.0 if k == 0 else float(k % 2) * float(k) ** -3.0,
         1 + 7 * ZETA3 / 8),
        (lambda k: 0.0 if k % 3 == 2 else 2.0 ** -k, 12 / 7)],
        ids=["even k^-3", "odd k^-3", "2^-k off k = 2 mod 3"])
    def test_periodic_supports(self, fn, exact):
        # the even k of k^-3 sum to zeta(3)/8 and the odd ones to
        # 7 zeta(3)/8; 2^-k summed over k != 2 mod 3 is 2 - (1/4)/(1 - 1/8)
        w = WeightSequence.from_generator(fn, rho_hint=1.0)
        value, ok = weights_module._series_sum(w, 1.0, 0)
        assert ok and abs(value - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("f, weight, tail_integral", [
        (lambda k: k ** -2.5, None, lambda x: x ** -1.5 / 1.5),
        (lambda k: math.log(k) * k ** -3.0, None,
         lambda x: (2 * math.log(x) + 1) / (4 * x * x)),
        # the terms of k = 3m - 2 and 3m, m >= 1: k^-3 off k = 2 mod 3
        (lambda m: (3 * m - 2) ** -3.0 + (3 * m) ** -3.0,
         lambda k: 0.0 if k % 3 == 2 else float(k) ** -3.0,
         lambda x: ((3 * x - 2) ** -2.0 + (3 * x) ** -2.0) / 6)],
        ids=["k^-2.5", "k^-3 log k", "k^-3 off k = 2 mod 3"])
    def test_drifting_and_clean_slopes_are_right_or_flagged(
            self, f, weight, tail_integral):
        w = WeightSequence.from_generator(
            lambda k: 1.0 if k == 0 else (weight or f)(k), rho_hint=1.0)
        value, ok = weights_module._series_sum(w, 1.0, 0)
        ref, half = _fsum_reference(f, tail_integral)
        assert half < 1e-15
        if ok:
            assert abs(value - ref) <= 1e-13 * ref + half
        else:  # the partial sum to the cap, short of the whole
            assert value < ref


def _comprehension_tilted_law(w, t, top):
    """`tilted_law` as it was before its masses came from `_scalar_blocks`:
    one comprehension over every k <= top, kept verbatim as the reference."""
    masses = [float(w.weight(k)) * float(t) ** k for k in range(top + 1)]
    if not all(math.isfinite(m) for m in masses):
        raise Diverged("tilted masses overflow; use a smaller tilt")
    return samplers.OffspringDistribution.from_masses(
        masses, label=f"tilt({t})", renormalize=True)


class TestOneWeightReader:
    @pytest.mark.parametrize("w, t, top", [
        (census_weights(), 1.0, 1_999),
        (WeightSequence.from_list([1, Fraction(1, 2), Fraction(1, 3),
                                   Fraction(1, 5)]), 0.7, 3),
        (WeightSequence.from_list([1, Fraction(1, 2), Fraction(1, 3),
                                   Fraction(1, 5)]), 0.7, 40),
        (WeightSequence.from_list([0.5, 0.25, 0.125]), 1.3, 2),
        (WeightSequence.from_generator(lambda k: 2.0 ** -k), 1.99, 1_000)])
    def test_tilted_law_is_the_comprehensions(self, w, t, top):
        assert tilted_law(w, t, top) == _comprehension_tilted_law(w, t, top)

    def test_explicit_tilt_stops_at_the_largest_degree(self):
        # 3.684^k overflowed at k = 545 although w_k = 0 from k = 4 on
        w = WeightSequence.from_list([1, 0, 0, Fraction(1, 100)])
        t = solve_critical_tilt(w)
        law = tilted_law(w, t, 999)
        assert len(law.masses) == 1000 and not any(law.masses[4:])
        assert law.masses[:4] == _comprehension_tilted_law(w, t, 3).masses
        word = simply_generated_sampler(w, 1000)(RngStream(1, 0), 1)[0]
        assert Counter(build_tree(word).luka) == {0: 667, 3: 333}

    def test_generator_tilt_overflow_is_diverged(self):
        # 4^512 overflowed as a bare OverflowError
        w = WeightSequence.from_generator(lambda k: 2.0 ** -k)
        with pytest.raises(Diverged, match="k=512"):
            tilted_law(w, 4.0, 600)

    def test_limit_law_overflow_is_diverged(self):
        # Phi(rho) converges by the tail fit, then rho^k overflowed as a
        # bare OverflowError in the mass loop
        w = WeightSequence.from_generator(
            lambda k: 1.0 if k == 0 else k ** -2.2 * 1.005 ** -k,
            rho_hint=1.005)
        with pytest.raises(Diverged, match="overflowed at k=142312"):
            limit_degree_law(w)

    def test_each_weight_is_called_once(self):
        calls = []

        def weight(k):
            calls.append(k)
            return 0.5 ** k if k < 20 else 1 / 0

        w = WeightSequence.from_generator(weight)
        calls.clear()  # the constructor checks w_0, w_1, w_2
        with pytest.raises(ZeroDivisionError):
            weights_module._series_sum(w, 1.0, 0)
        assert calls == list(range(21))


def _fraction_poly_mul(a, b, trunc):
    out = [0] * min(trunc + 1, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        top = min(len(b), len(out) - i)
        for j in range(top):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def partition_by_fractions(w, n):
    """Frozen copy of the earlier exact Z_n code: the Fraction series
    powered term by term, no denominator clearing.  A float weight enters
    as the dyadic rational it stands for, so this is the exact value."""
    coeffs = [Fraction(w.weight(k)) for k in range(n)]
    result = [Fraction(1)]
    base = coeffs
    e = n
    while e:
        if e & 1:
            result = _fraction_poly_mul(result, base, n - 1)
        e >>= 1
        if e:
            base = _fraction_poly_mul(base, base, n - 1)
    coef = result[n - 1] if len(result) > n - 1 else Fraction(0)
    out = Fraction(coef, n)
    return int(out) if out.denominator == 1 else out


def partitions_by_powering(w, top):
    """[Z_1, ..., Z_top] by the earlier exact route: the weights scaled to
    integers by the lcm D of their denominators, the integer series powered
    with `poly_mul` and Z_n = [z^{n-1}] (D Phi)^n / (D^n n).  The powers are
    taken one factor at a time so that n = 1..top share them; integer
    products do not depend on the order they are formed in."""
    coeffs = [Fraction(v) for v in w.explicit]
    scale = math.lcm(*(v.denominator for v in coeffs))
    base = [v.numerator * (scale // v.denominator) for v in coeffs]
    power, out = [1], []
    for n in range(1, top + 1):
        power = poly_mul(power, base)[:top]
        coef = power[n - 1] if len(power) > n - 1 else 0
        value = Fraction(coef, scale ** n * n)
        out.append(int(value) if value.denominator == 1 else value)
    return out


class TestPartitionFunction:
    def test_all_ones_gives_catalan(self):
        for n in range(1, 10):
            assert partition_function(ALL_ONES, n) == catalan(n - 1)

    def test_binary_values(self):
        values = {1: 1, 2: 0, 3: 1, 4: 0, 5: 2, 6: 0, 7: 5}
        for n, z in values.items():
            assert partition_function(BINARY, n) == z

    def test_matches_enumeration_sum(self):
        """Lagrange-inversion coefficients equal the direct sum of
        count * weight over all degree statistics, as exact rationals."""
        w = WeightSequence.from_list([1, Fraction(1, 2), Fraction(1, 3),
                                      Fraction(1, 5)])
        for n in range(1, 9):
            direct = sum(
                (count_forests(s) * Fraction(statistics_weight(w, s))
                 for s in enumerate_degree_statistics(n) if s.n == n),
                Fraction(0))
            assert partition_function(w, n) == direct

    def test_float_weights_stay_float(self):
        z = partition_function(WeightSequence.from_list([1.0, 0.5]), 4)
        assert isinstance(z, float)
        assert z == pytest.approx(0.125)

    @pytest.mark.parametrize("weights, top", [
        ([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], 60),
        ([2, 1, 0, 1, 3], 80),
    ])
    def test_exact_values_match_fraction_route(self, weights, top):
        """Clearing denominators once gives the same value and type as
        powering the Fraction series."""
        w = WeightSequence.from_list(weights)
        for n in range(1, top + 1):
            z, want = partition_function(w, n), partition_by_fractions(w, n)
            assert type(z) is type(want) and z == want

    @pytest.mark.parametrize("values", [
        [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
        [2, 1, 0, 1, 3],
        [3],
    ])
    def test_power_recurrence_matches_powering(self, values):
        w = WeightSequence.from_list(values)
        want = partitions_by_powering(w, 300)
        for n in range(1, 301):
            z = partition_function(w, n)
            assert type(z) is type(want[n - 1]) and z == want[n - 1]

    def test_float_values_are_the_exact_value_rounded_once(self):
        for w in (WeightSequence.from_list([1.0, 0.5]), census_weights()):
            for n in range(1, 41):
                z = partition_function(w, n)
                assert type(z) is float
                assert z == float(partition_by_fractions(w, n))

    @pytest.mark.parametrize("weights, n, want", [
        ([1e200, 1e-200], 3, 1e-200),  # the float powering gave 6.67e-201
        ([1e100, 1e-100], 5, 1e-300),  # it gave 8e-301
        ([1e-200, 1e200], 3, 1e200),   # it raised Diverged
        ([1.0, 2.0 ** 511], 3, 2.0 ** 1022),  # the one tree: the path
        ([1.0, 2.0 ** -537], 3, 2.0 ** -1074),  # the least subnormal
        ([1.0, 1e-200], 3, 0.0),  # 1e-400 underflows to zero
    ])
    def test_float_values_over_the_whole_exponent_range(self, weights, n,
                                                         want):
        w = WeightSequence.from_list(weights)
        z = partition_function(w, n)
        assert type(z) is float and z == want
        assert z == float(partition_by_fractions(w, n))

    @pytest.mark.parametrize("weights, n", [
        ([1.0, 2.0 ** 512], 3),  # 2^1024 is past the largest float
        ([1e300, 1e300], 3),
    ])
    def test_diverged_exactly_where_the_exact_value_overflows(self, weights,
                                                              n):
        w = WeightSequence.from_list(weights)
        assert partition_by_fractions(w, n) >= 2 ** 1024
        with pytest.raises(Diverged, match=f"Z_{n} overflows"):
            partition_function(w, n)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_generator_weights_below_n_are_refused(self, bad):
        w = WeightSequence.from_generator(
            lambda k: bad if k == 4 else 2.0 ** -k)
        assert partition_function(w, 4) == float(partition_by_fractions(w, 4))
        with pytest.raises(ValueError, match="w_4 = "):
            partition_function(w, 5)

    def test_generator_weight_past_float_range_is_diverged(self):
        # (99!)^2 > 2^1024: float(w_99) escaped as a bare OverflowError
        w = factorial_squared()
        assert partition_function(w, 20) == 1.5608996841552915e+34
        with pytest.raises(Diverged, match="w_99 overflows"):
            partition_function(w, 200)

    def test_statistics_weight(self):
        w = WeightSequence.from_list([2, 3, 5])
        s = DegreeStatistics({0: 2, 1: 1, 2: 1})
        assert statistics_weight(w, s) == 4 * 3 * 5


class TestExactTreeLaw:
    def test_all_ones_class_masses(self):
        law = exact_tree_law(ALL_ONES, 4)
        masses = {tuple(s.sorted_items()): p for s, p in law.items()}
        assert masses == {
            ((0, 3), (3, 1)): Fraction(1, 5),
            ((0, 2), (1, 1), (2, 1)): Fraction(3, 5),
            ((0, 1), (1, 3)): Fraction(1, 5),
        }

    def test_binary_is_concentrated(self):
        law = exact_tree_law(BINARY, 5)
        assert law == {DegreeStatistics({0: 3, 2: 2}): Fraction(1)}

    def test_empty_size_raises(self):
        with pytest.raises(ZeroPartition):
            exact_tree_law(BINARY, 4)

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            exact_tree_law(BINARY, 13)

    def test_irrational_weights_rejected(self):
        with pytest.raises(OutOfDomain):
            exact_tree_law(WeightSequence.from_list([1, 0.5]), 4)

    @given(st.integers(2, 8))
    def test_tilt_invariance(self, n):
        w = WeightSequence.from_list([1, 2, 3])
        assert tilt_invariance_check(w, Fraction(1, 2), 3, n)

    def test_tilt_invariance_guards(self):
        with pytest.raises(OutOfDomain):
            tilt_invariance_check(BINARY, 0, 1, 5)
        with pytest.raises(TooLarge):
            tilt_invariance_check(BINARY, 1, 2, 13)


class TestSimplyGeneratedSampler:
    def _class_gof(self, w, n, draws, seed):
        law = exact_tree_law(w, n)
        index = {s: i for i, s in enumerate(sorted(
            law, key=lambda s: tuple(s.sorted_items())))}
        pmf = {index[s]: float(p) for s, p in law.items()}
        words = simply_generated_sampler(w, n)(RngStream(seed, 0), draws)
        validate_words(words)
        got = [index[DegreeStatistics(Counter(word))] for word in words.tolist()]
        return chi_square_gof(got, pmf)

    def test_positive_radius_route_matches_exact_law(self):
        assert self._class_gof(WeightSequence.from_list([1, 1, 1]), 6,
                               2500, 21) > 1e-3

    def test_zero_radius_route_matches_exact_law(self):
        assert self._class_gof(factorial_squared(), 6, 2000, 22) > 1e-3

    @pytest.mark.parametrize("n, draws, seed", [(8, 4000, 31),
                                                (12, 4000, 32)])
    def test_zero_radius_batch_matches_exact_law(self, n, draws, seed):
        """Multi-row zero-radius batches (15 classes at n = 8, 56 at
        n = 12) against `exact_tree_law`, at the level of the n = 6 test."""
        assert self._class_gof(factorial_squared(), n, draws, seed) > 1e-3

    def test_path_weights_short_circuit(self):
        w = WeightSequence.from_list([1, 1])
        word = sample_simply_generated(w, 5, RngStream(0, 0))
        assert word.dtype == np.int64 and word.tolist() == [1, 1, 1, 1, 0]

    def test_zero_partition_raises(self):
        with pytest.raises(ZeroPartition):
            sample_simply_generated(BINARY, 4, RngStream(0, 0))

    def test_single_node(self):
        word = sample_simply_generated(BINARY, 1, RngStream(0, 0))
        assert word.dtype == np.int64 and word.tolist() == [0]

    def test_zero_radius_cap(self):
        with pytest.raises(TooLarge):
            sample_simply_generated(factorial_squared(), 20, RngStream(0, 0))

    ROUTES = {  # route -> (weights, n)
        "one-node": (BINARY, 1),
        "path": (WeightSequence.from_list([1, 1]), 5),
        "zero-radius": (factorial_squared(), 6),
        "tilt-finite": (WeightSequence.from_list([1, 1, 1]), 6),
        "tilt-census-rejection": (census_weights(), 10),
        "tilt-census-halving": (census_weights(), 200)}

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_one_call_wrapper_draws_as_the_sampler(self, route):
        w, n = self.ROUTES[route]
        draw = simply_generated_sampler(w, n)
        a, b = RngStream(9, 0), RngStream(9, 0)
        for _ in range(4):
            assert np.array_equal(sample_simply_generated(w, n, a),
                                  draw(b, 1)[0])
        assert a.gen.random() == b.gen.random()

    def test_zero_radius_draws_match_the_frozen_enumeration_route(self):
        def frozen(w, n, rng):  # `_sample_by_enumeration` before the sampler
            table = weights_module._class_weights(w, n)
            u = rng.gen.uniform() * float(sum(table.values()))
            acc = 0.0
            for stats, wt in table.items():
                acc += float(wt)
                if u < acc:
                    break
            return samplers.sample_uniform_tree(stats, rng)

        w = factorial_squared()
        for n in (2, 5, 8):
            draw = simply_generated_sampler(w, n)
            for seed in range(5):
                assert (build_tree(draw(RngStream(seed, 1), 1)[0]).luka
                        == frozen(w, n, RngStream(seed, 1)).luka)

    @pytest.mark.parametrize("w, n", [(WeightSequence.from_list([1, 1, 1]), 6),
                                      (census_weights(), 40),
                                      (census_weights(), 200)])
    def test_tilt_is_solved_once_per_sampler(self, monkeypatch, w, n):
        calls = []

        def spy(weights):
            calls.append(weights)
            return solve_critical_tilt(weights)
        monkeypatch.setattr(weights_module, "solve_critical_tilt", spy)
        draw = simply_generated_sampler(w, n)
        trees = [build_tree(word) for r in range(3)
                 for word in draw(RngStream(4, r), 2)]
        assert calls == [w] and all(t.n == n for t in trees)

    def test_errors_come_before_the_first_draw(self):
        with pytest.raises(ZeroPartition):
            simply_generated_sampler(BINARY, 4)
        with pytest.raises(TooLarge):
            simply_generated_sampler(factorial_squared(), 20)
        with pytest.raises(ValueError):
            simply_generated_sampler(BINARY, 0)

    @pytest.mark.parametrize("n, route", [
        (10, "sample_conditioned_bienayme_batch"),
        (40, "sample_conditioned_bienayme_sequential_batch"),
        (2000, "sample_conditioned_bienayme_sequential_batch")])
    def test_census_weights_take_the_predicted_route(self, monkeypatch, n,
                                                     route):
        # rejection would need about 1.2e11 proposal rows at n = 2,000; at
        # n = 40, 43 rows of 40 columns already cost more than halving
        calls = []
        for name in ("sample_conditioned_bienayme_batch",
                     "sample_conditioned_bienayme_sequential_batch"):
            def spy(*args, real=getattr(samplers, name), name=name, **kw):
                calls.append(name)
                return real(*args, **kw)
            monkeypatch.setattr(samplers, name, spy)
        w = WeightSequence.from_generator(
            lambda k: 1.0 if k == 0 else float(k) ** -3.0, rho_hint=1.0)
        tree = build_tree(sample_simply_generated(w, n, RngStream(3, 0)))
        assert calls == [route]
        assert tree.n == n


class TestDegreeBundling:
    def test_frozen_example(self):
        stats = DegreeStatistics({0: 36, 1: 8, 2: 7, 3: 14})
        hat = concentrate_degrees(stats, 3, 7)
        assert hat == DegreeStatistics({0: 55, 1: 1, 7: 9})
        assert hat.n == stats.n
        assert hat.norms().p1 == stats.norms().p1

    def test_parameter_guards(self):
        stats = DegreeStatistics({0: 2, 2: 1})
        with pytest.raises(BadParameters):
            concentrate_degrees(stats, 2, 10)
        with pytest.raises(BadParameters):
            concentrate_degrees(stats, 3, 6)

    @given(st.lists(st.integers(1, 4), min_size=0, max_size=40),
           st.integers(3, 5), st.integers(1, 6))
    def test_preserves_node_and_edge_totals(self, parts, small_max, slack):
        from collections import Counter
        counts = Counter(parts)
        counts[0] = sum(parts) + 1 - len(parts)
        stats = DegreeStatistics(counts)
        bundle = 2 * small_max + slack
        hat = concentrate_degrees(stats, small_max, bundle)
        assert hat.n == stats.n
        assert hat.norms().p1 == stats.norms().p1
        assert hat.a == stats.a
        # bundled small degrees drop below one full bundle each
        for c in range(1, small_max + 1):
            assert hat.count(c) < bundle

    def test_count_ratio_inequality_on_small_battery(self):
        for stats in enumerate_degree_statistics(9):
            assert concentration_count_ratio_ok(stats, 3, 7)

    def test_weight_ratio_matches_direct_quotient(self):
        w = WeightSequence.from_list(
            [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 0, 0, 0,
             Fraction(2, 3)])
        stats = DegreeStatistics({0: 36, 1: 8, 2: 7, 3: 14})
        hat = concentrate_degrees(stats, 3, 7)
        direct = Fraction(statistics_weight(w, hat)) \
            / Fraction(statistics_weight(w, stats))
        assert concentration_weight_ratio(w, stats, 3, 7) == direct

    def test_weight_ratio_undefined_for_zero_weight_class(self):
        w = WeightSequence.from_list([1, 0, 1, 1, 0, 0, 0, 1])
        stats = DegreeStatistics({0: 36, 1: 8, 2: 7, 3: 14})
        with pytest.raises(OutOfDomain):
            concentration_weight_ratio(w, stats, 3, 7)
