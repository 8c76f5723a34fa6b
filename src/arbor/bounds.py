"""Closed-form tail bounds for heights, stopping indices, and repeat times.

Every function here evaluates one explicit inequality; the Monte Carlo
harness compares these values against empirical tails and the test suite
checks them against exact laws on small instances.  All probability bounds
clamp into [0, 1], and below their validity thresholds they return 1 (a true
but vacuous bound) instead of raising.  Two families have one rule each:
the two-term bounds on heights and repeat times (`_two_term`), vacuous at
and below the one floor BETA_FLOOR = 17^{3/2}, and the sub-Gaussian bounds
for classes without degree-one nodes (`_sub_gaussian`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import HasOnes, OutOfRange, PathDegenerate
from .trees import DegreeStatistics

BETA_FLOOR = 17.0 ** 1.5


@dataclass(frozen=True)
class BoundInput:
    """The degree-statistic scalars the tail bounds consume.

    v is the exact rational (p2sq - n1) / (n - 1), kept as a Fraction until
    it enters exp(); for near-path statistics the subtraction
    p2sq - n1 is done in integers so no cancellation error occurs.
    """

    p1: int
    p2sq: int
    n1: int
    n: int
    v: Fraction

    @classmethod
    def from_stats(cls, stats: DegreeStatistics) -> "BoundInput":
        norms = stats.norms()
        n = stats.n
        v = Fraction(norms.p2sq - norms.n1, n - 1) if n > 1 else Fraction(0)
        return cls(norms.p1, norms.p2sq, norms.n1, n, v)

    @property
    def branch_scale(self) -> float:
        """|n|_1 / sqrt(p2sq - n1), the unit in which heights are measured."""
        spread = self.p2sq - self.n1
        if spread <= 0:
            raise PathDegenerate("no node has two or more children")
        return self.p1 / math.sqrt(spread)


def _two_term(beta: float, rate) -> float:
    """exp(-rate(beta)) + 2 exp(-beta^{2/3}/24), clamped to 1, for beta
    above BETA_FLOOR; 1 otherwise, before any (maybe complex) power of beta."""
    if beta <= BETA_FLOOR:
        return 1.0
    return min(1.0, math.exp(-rate(beta)) + 2 * math.exp(-beta ** (2 / 3) / 24))


def _sub_gaussian(inp: BoundInput, ell: float, x: float) -> float:
    """exp(-x^2 / (2 |n|_1)) clamped to 1 when n(1) = 0; ell < 1 returns
    the vacuous 1."""
    if inp.n1 > 0:
        raise HasOnes("bound requires statistics without degree-one nodes")
    if ell < 1:
        return 1.0
    return min(1.0, math.exp(-(x * x) / (2 * inp.p1)))


def height_threshold(inp: BoundInput, beta: float) -> float:
    """The height cutoff that `height_tail_bound` speaks about."""
    return beta * inp.branch_scale


def height_tail_bound(inp: BoundInput, beta: float) -> float:
    """Upper bound on P(marked node deeper than beta * branch_scale): the
    two-term bound with rate (beta^{1/3}/3) * branch_scale.  Path
    statistics have no branch scale and raise PathDegenerate at any beta.
    """
    scale = inp.branch_scale  # raises PathDegenerate before the floor
    return _two_term(beta, lambda b: (b ** (1 / 3) / 3) * scale)


def height_tail_bound_no_ones(inp: BoundInput, ell: float) -> float:
    """Upper bound exp(-ell^2 / (2 |n|_1)) on P(marked node at depth >= ell)
    when n(1) = 0.  ell < 1 returns the vacuous 1."""
    return _sub_gaussian(inp, ell, ell)


def stopping_tail_bound_no_ones(inp: BoundInput, ell: float) -> float:
    """Upper bound exp(-(ell-1)^2 / (2 |n|_1)) for the stopping-index tail
    when n(1) = 0.  ell < 1 returns the vacuous 1."""
    return _sub_gaussian(inp, ell, ell - 1)


def repeat_threshold(inp: BoundInput, beta: float) -> float:
    """The repeat-time cutoff beta * sqrt((n-1)/v)."""
    if inp.v == 0:
        return math.inf
    return beta * math.sqrt((inp.n - 1) / float(inp.v))


def repeat_time_tail_bound(inp: BoundInput, beta: float) -> float:
    """Upper bound on P(first repeat arrival later than the cutoff): the
    two-term bound with rate (1/3) sqrt(beta^{2/3} (n-1)/v).

    v = 0 means no interval can ever repeat, so the repeat time is infinite
    and any tail beyond the (infinite) cutoff has probability 0.
    """
    if inp.v == 0:
        return 0.0
    return _two_term(beta, lambda b: math.sqrt(
        b ** (2 / 3) * ((inp.n - 1) / float(inp.v))) / 3)


# ---------------------------------------------------------------------------
# survival probability of the no-interval-hit-twice event
# ---------------------------------------------------------------------------

def _pair_terms(t: float, degrees: Sequence[int]):
    """(n, the degrees >= 2, their largest dmax (0 if none), v) for the
    pair-survival forms, where v = sum of the squared big degrees over
    n - 1; refuses t < 0, then fewer than two nodes."""
    if t < 0:
        raise OutOfRange("t must be non-negative")
    n = len(degrees)
    if n < 2:
        raise OutOfRange("need at least two nodes")
    big = [d for d in degrees if d >= 2]
    return n, big, max(big, default=0), sum(d * d for d in big) / (n - 1)


def pair_survival(t: float, degrees: Sequence[int]) -> float:
    """prod over degrees d_i >= 2 of (1 + p_i t) e^{-p_i t} with
    p_i = d_i / (2(n-1)): the probability that no interval has collected two
    arrivals by Poisson time t, in product form."""
    n, big, _, _ = _pair_terms(t, degrees)
    out = 1.0
    for d in big:
        p = d / (2 * (n - 1))
        out *= (1 + p * t) * math.exp(-p * t)
    return out


def pair_survival_log_series(t: float, degrees: Sequence[int],
                             terms: int = 60) -> float:
    """log pair_survival as the alternating power series
    sum_{k>=2} ((-1)^{k+1}/k) sum_i (p_i t)^k, valid for t < 2(n-1)/dmax."""
    n, big, dmax, _ = _pair_terms(t, degrees)
    if not big:
        return 0.0
    if t >= 2 * (n - 1) / dmax:
        raise OutOfRange("series only converges for t < 2(n-1)/dmax")
    x = [d * t / (2 * (n - 1)) for d in big]
    total = 0.0
    for k in range(2, terms + 2):
        total += ((-1) ** (k + 1) / k) * sum(xi ** k for xi in x)
    return total


def pair_survival_upper(t: float, degrees: Sequence[int]) -> float:
    """exp(-v t^2 / (24(n-1))), an upper bound on pair_survival for
    0 <= t <= (n-1)/dmax."""
    n, big, dmax, v = _pair_terms(t, degrees)
    if not big:
        return 1.0
    if t > (n - 1) / dmax:
        raise OutOfRange("upper bound only valid for t <= (n-1)/dmax")
    return math.exp(-v * t * t / (24 * (n - 1)))


def pair_survival_log_band(t: float, degrees: Sequence[int]) -> tuple[float, float]:
    """(centre, half_width) such that log pair_survival lies within
    centre +/- half_width: centre = -v t^2 / (8(n-1)) and half_width =
    (dmax t / (6(n-1) - 3 dmax t)) * (v t^2 / (4(n-1))), for t < 2(n-1)/dmax."""
    n, big, dmax, v = _pair_terms(t, degrees)
    if not big:
        return 0.0, 0.0
    if t >= 2 * (n - 1) / dmax:
        raise OutOfRange("band only valid for t < 2(n-1)/dmax")
    centre = -v * t * t / (8 * (n - 1))
    half = (dmax * t / (6 * (n - 1) - 3 * dmax * t)) * (v * t * t / (4 * (n - 1)))
    return centre, half


def poisson_tail_bound(t: float, h: float) -> float:
    """exp(-t ((h/t) log(h/t) - h/t + 1)), an upper bound on
    P(Poisson(t) > h) valid for h >= t > 0."""
    if t <= 0:
        raise OutOfRange("t must be positive")
    if h < t:
        raise OutOfRange("bound only valid for h >= t")
    r = h / t
    return math.exp(-t * (r * math.log(r) - r + 1))
