"""Frozen closed forms for the bound and counting tests.

`arbor.bounds` states each family of tail bounds once (`_two_term`,
`_sub_gaussian`, `_pair_terms`) and `arbor.enumeration` reads the forest
and spine-class counts off the marked-tree count.  This module keeps the
forms they replaced, one function per bound with its own checks, as the
reference they are tested against value for value and exception for
exception.  The one known difference: `repeat_time_tail_bound` here tests
beta < BETA_FLOOR, so at the floor itself it is not the vacuous 1.
"""

from __future__ import annotations

import math
from typing import Sequence

from arbor.bounds import BETA_FLOOR
from arbor.enumeration import multinomial, usage_vector
from arbor.errors import HasOnes, InvalidStatistics, OutOfRange


def height_tail_bound(inp, beta: float) -> float:
    scale = inp.branch_scale  # raises PathDegenerate before the clamp
    if beta <= BETA_FLOOR:
        return 1.0
    value = math.exp(-(beta ** (1 / 3) / 3) * scale) \
        + 2 * math.exp(-beta ** (2 / 3) / 24)
    return min(1.0, value)


def height_tail_bound_no_ones(inp, ell: float) -> float:
    if inp.n1 > 0:
        raise HasOnes("bound requires statistics without degree-one nodes")
    if ell < 1:
        return 1.0
    return min(1.0, math.exp(-ell * ell / (2 * inp.p1)))


def stopping_tail_bound_no_ones(inp, ell: float) -> float:
    if inp.n1 > 0:
        raise HasOnes("bound requires statistics without degree-one nodes")
    if ell < 1:
        return 1.0
    return min(1.0, math.exp(-((ell - 1) ** 2) / (2 * inp.p1)))


def repeat_time_tail_bound(inp, beta: float) -> float:
    if inp.v == 0:
        return 0.0
    if beta < BETA_FLOOR:
        return 1.0
    ratio = (inp.n - 1) / float(inp.v)
    value = math.exp(-math.sqrt(beta ** (2 / 3) * ratio) / 3) \
        + 2 * math.exp(-beta ** (2 / 3) / 24)
    return min(1.0, value)


def _pair_terms(degrees: Sequence[int]):
    n = len(degrees)
    if n < 2:
        raise OutOfRange("need at least two nodes")
    big = [d for d in degrees if d >= 2]
    return n, big


def pair_survival(t: float, degrees: Sequence[int]) -> float:
    if t < 0:
        raise OutOfRange("t must be non-negative")
    n, big = _pair_terms(degrees)
    out = 1.0
    for d in big:
        p = d / (2 * (n - 1))
        out *= (1 + p * t) * math.exp(-p * t)
    return out


def pair_survival_log_series(t: float, degrees: Sequence[int],
                             terms: int = 60) -> float:
    if t < 0:
        raise OutOfRange("t must be non-negative")
    n, big = _pair_terms(degrees)
    if not big:
        return 0.0
    dmax = max(big)
    if t >= 2 * (n - 1) / dmax:
        raise OutOfRange("series only converges for t < 2(n-1)/dmax")
    x = [d * t / (2 * (n - 1)) for d in big]
    total = 0.0
    for k in range(2, terms + 2):
        total += ((-1) ** (k + 1) / k) * sum(xi ** k for xi in x)
    return total


def pair_survival_upper(t: float, degrees: Sequence[int]) -> float:
    if t < 0:
        raise OutOfRange("t must be non-negative")
    n, big = _pair_terms(degrees)
    if not big:
        return 1.0
    dmax = max(big)
    if t > (n - 1) / dmax:
        raise OutOfRange("upper bound only valid for t <= (n-1)/dmax")
    v = sum(d * d for d in big) / (n - 1)
    return math.exp(-v * t * t / (24 * (n - 1)))


def pair_survival_log_band(t: float, degrees: Sequence[int]) -> tuple[float, float]:
    if t < 0:
        raise OutOfRange("t must be non-negative")
    n, big = _pair_terms(degrees)
    if not big:
        return 0.0, 0.0
    dmax = max(big)
    if t >= 2 * (n - 1) / dmax:
        raise OutOfRange("band only valid for t < 2(n-1)/dmax")
    v = sum(d * d for d in big) / (n - 1)
    centre = -v * t * t / (8 * (n - 1))
    half = (dmax * t / (6 * (n - 1) - 3 * dmax * t)) * (v * t * t / (4 * (n - 1)))
    return centre, half


def count_forests(stats) -> int:
    """a (n - 1)! / prod_c n(c)!, checked for integrality."""
    num = stats.a * math.factorial(stats.n - 1)
    den = 1
    for _, k in stats.sorted_items():
        den *= math.factorial(k)
    q, r = divmod(num, den)
    if r:
        raise InvalidStatistics(f"count formula not integral for {stats.counts}")
    return q


def count_spine_class(stats, degrees: Sequence[int]) -> int:
    """prod_i d_i * multinomial(n - k; n(.) - usage(d))."""
    if stats.a != 1:
        raise InvalidStatistics("spine counting needs single-tree statistics")
    usage = usage_vector(stats, degrees)
    k = len(degrees)
    prod = math.prod(degrees)
    if prod == 0:
        return 0
    remaining = [stats.count(c) - usage.get(c, 0)
                 for c in sorted(set(stats.counts) | set(usage))]
    return prod * multinomial(stats.n - k, remaining)
