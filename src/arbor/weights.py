"""Weight sequences for simply generated trees.

A weight sequence w assigns a non-negative weight w_k to each branching
degree k, with w_0 > 0.  A simply generated tree of size n picks a plane
tree with probability proportional to prod_v w_{deg(v)}.  This module holds
the generating-series analytics (phi, psi, radius rho, criticality nu,
variance sigma_sq, limit degree law), the partition numbers Z_n, exact and
tilted sampling, and the degree-concentration surgery used to compare tree
counts before and after bundling small degrees.

Exact arithmetic is kept wherever the inputs are rational: explicit rational
weights give Fraction-valued Z_n and exact tilt-invariance checks, and a
float Z_n is that exact value for the dyadic float weights, rounded once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from .enumeration import ENUMERATION_CAP, _statistics_of_size, count_forests
from .errors import (Diverged, OutOfDomain, PhiDiverges, RhoUnknown,
                     TooLarge, BadParameters, ZeroPartition)
from .rng import RngStream
from .samplers import (OffspringDistribution, _reachable_sum,
                       conditioned_sampler, sample_uniform_word)
from .trees import DegreeStatistics

_REL_TOL = 1e-14
_SERIES_CAP = 1_000_000
_OVERFLOW = 1e300
_BLOCK = 4096  # most generator terms per numpy block of a series or limit law


def _is_exact(x) -> bool:
    return isinstance(x, Rational)


@dataclass(frozen=True)
class WeightSequence:
    """Either an explicit finite weight list or a generator k -> w_k.

    The generator form carries a truncation cap for series evaluation and an
    optional rho_hint giving the radius of convergence of sum w_k z^k.
    Explicit finite sequences have infinite radius and need no hint.
    """

    explicit: tuple | None = None
    generator: Callable[[int], float] | None = None
    cap: int = 100_000
    rho_hint: float | Fraction | None = None

    def __post_init__(self):
        if (self.explicit is None) == (self.generator is None):
            raise ValueError("give exactly one of explicit weights or a generator")
        # a generator's later weights are checked where a series reaches them
        vec = (tuple(self.explicit) if self.explicit is not None
               else tuple(self.generator(k) for k in range(3)))
        try:
            ok = all(not isinstance(v, (bool, np.bool_)) and 0 <= v < math.inf
                     for v in vec)
        except TypeError:  # a string or None does not compare with 0
            ok = False
        if not ok:
            raise ValueError("weights must be finite numbers >= 0, not bools")
        if self.explicit is not None:
            while len(vec) > 1 and vec[-1] == 0:
                vec = vec[:-1]
            object.__setattr__(self, "explicit", vec)
        if not vec or vec[0] <= 0:
            raise ValueError("w_0 must be positive")

    @staticmethod
    def from_list(weights: Sequence, rho_hint=None) -> "WeightSequence":
        return WeightSequence(explicit=tuple(weights), rho_hint=rho_hint)

    @staticmethod
    def from_generator(fn: Callable[[int], float], cap: int = 100_000,
                       rho_hint=None) -> "WeightSequence":
        return WeightSequence(generator=fn, cap=cap, rho_hint=rho_hint)

    @property
    def finite_support(self) -> bool:
        return self.explicit is not None

    def weight(self, k: int):
        if self.explicit is not None:
            return self.explicit[k] if k < len(self.explicit) else 0
        return self.generator(k)

    @property
    def max_degree(self) -> int | None:
        """Largest degree with positive weight, or None for generator form."""
        return None if self.explicit is None else len(self.explicit) - 1

    def resolve_rho(self) -> tuple[float, bool]:
        """(radius of convergence, estimated?).

        Finite support means infinite radius.  A rho_hint is trusted as
        given.  Otherwise the radius is estimated from w_k^{1/k} over the
        top of the truncation window; the True flag marks the value as a
        heuristic.  Estimation cannot distinguish rho = 0 from a tiny
        positive radius, so factorial-type weights need rho_hint = 0.
        """
        if self.rho_hint is not None:
            return float(self.rho_hint), False
        if self.finite_support:
            return math.inf, False
        window = range(max(10, self.cap - 200), self.cap + 1)
        best = None
        for k in window:
            wk = self.generator(k)
            if wk > 0:
                lw = _log_value(wk)
                best = lw / k if best is None else max(best, lw / k)
        if best is None:
            raise RhoUnknown("no positive weights near the truncation cap; "
                             "supply rho_hint")
        return math.exp(-best), True

    def is_rational(self) -> bool:
        return self.explicit is not None and all(map(_is_exact, self.explicit))

    def to_json(self) -> dict:
        if self.explicit is None:
            raise ValueError("generator-backed weight sequences do not serialise")
        rho, _ = self.resolve_rho()
        out_rho = "infinity" if math.isinf(rho) else (
            None if self.rho_hint is None else _num_out(self.rho_hint))
        return {"weights": [_num_out(v) for v in self.explicit], "rho": out_rho}

    @staticmethod
    def from_json(obj: dict) -> "WeightSequence":
        """Read {"weights": [...], "rho": ...}; each number is a JSON
        integer, a finite float or a "p/q" string.  Anything else raises
        ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("weights"), list):
            raise ValueError('weights must be a JSON object with a "weights" list')
        weights = [_num_in(v) for v in obj["weights"]]
        rho = obj.get("rho")
        hint = None if rho in (None, "infinity") else _num_in(rho)
        return WeightSequence.from_list(weights, rho_hint=hint)


def _num_out(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def _num_in(v):
    if isinstance(v, str):
        num, _, den = v.partition("/")
        try:
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{v!r} is not an integer or a p/q fraction "
                             "with q non-zero") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{v!r} is not a number")
    if not math.isfinite(v):
        raise ValueError(f"{v!r} is not finite")
    return v


def _log_value(x) -> float:
    if isinstance(x, Fraction):
        return _log_value(x.numerator) - _log_value(x.denominator)
    if isinstance(x, int):
        return math.log(x)
    return math.log(float(x))


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def _series_sum(w: WeightSequence, t, power: int) -> tuple[float, bool]:
    """(sum_k k^power w_k t^k, converged flag).

    Explicit sequences are summed completely (flag True, exact arithmetic
    preserved when possible).  Generator sums stop once five terms in a
    row (from k = 5 on) drop below 1e-14 of the partial sum.  If the cap
    is reached first, a power-law fit to the terms estimates the remaining
    tail; an estimated tail below 1e-10 of the partial sum is folded into
    the value and counts as converged, anything else is flagged False.

    Generator terms come in blocks of 64 doubling up to _BLOCK (4,096)
    from `_scalar_blocks`.  float(w_k) and t^k are Python scalars, as in a
    term-by-term loop, and numpy multiplies them in that loop's order.
    np.add.accumulate adds the carried total and the terms left to right,
    so every partial sum, and with it every stop rule, is bit for bit the
    loop's.  A term whose weight or power raises ends its block there,
    and the error surfaces only if the sum has not stopped before that k.

    Generator sums are memoised, so Phi(rho) is summed once per process.
    Explicit sums are short, and (1, 2) equals (1.0, 2.0), so they are not.
    """
    if t < 0:
        raise OutOfDomain("series defined for t >= 0 only")
    if w.explicit is not None:
        total = 0
        for k, wk in enumerate(w.explicit):
            if wk:
                total += (k ** power if power else 1) * wk * t ** k
        return total, True
    return _generator_sum(w, t, power)


@functools.lru_cache(maxsize=256, typed=True)
def _generator_sum(w: WeightSequence, t, power: int) -> tuple[float, bool]:
    """`_series_sum` of a generator sequence."""
    total = 0.0
    quiet = 0
    marks: list[tuple[int, float]] = []  # (index, term) checkpoints for the tail fit
    for ks, wks, tks, error in _scalar_blocks(w.generator, float(t), w.cap + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = ks ** power * wks * tks
            totals = np.add.accumulate(np.concatenate(([total], terms)))[1:]
            calm = ((terms <= _REL_TOL * np.maximum(totals, 1e-300))
                    & (ks >= 5))
            over = np.flatnonzero((totals > _OVERFLOW) | np.isinf(totals))
        # length of the run of calm terms ending at each k, carried over
        last_loud = np.maximum.accumulate(
            np.where(calm, -1 - quiet, np.arange(ks.size)))
        run = np.arange(ks.size) - last_loud
        done = np.flatnonzero(run >= 5)
        if over.size and (not done.size or over[0] <= done[0]):
            raise Diverged("series exceeded overflow threshold at "
                           f"k={ks[over[0]]}")
        if done.size:
            return float(totals[done[0]]), True
        if error is not None:
            raise error
        _extend_marks(marks, ks, terms, w.cap)
        total = float(totals[-1])
        quiet = int(run[-1])
    if len(marks) < 3:
        return total, False
    # terms look like k^{-alpha}: integral-test tail from the fitted slope,
    # accepted when the slope is stable and the estimate error (drift plus
    # next Euler-Maclaurin order) is negligible against the partial sum
    (k0, t0), (k1, t1), (k2, t2) = marks[-3:]
    a_prev = math.log(t0 / t1) / math.log(k1 / k0)
    a_fit = math.log(t1 / t2) / math.log(k2 / k1)
    if a_fit <= 1.05:
        return total, False
    tail = t2 * k2 / (a_fit - 1) + t2 / 2
    err = tail * (abs(a_fit - a_prev) * math.log(k2) + 1.0 / k2)
    if err < 1e-10 * max(total, 1e-300):
        return total + tail, True
    return total, False


def _scalar_blocks(weight, base: float, end: int):
    """Yield (k, float(w_k), base^k, error) for consecutive blocks of
    0 <= k < end, each value a Python scalar as in a term-by-term loop.
    Every float term w_k t^k of a series, limit law or tilted law is read
    here, each weight called once.  Blocks start at 64 terms and double up to _BLOCK, so a
    sum that stops early computes few terms past its stop.  The first k
    whose weight raises, whose float(w_k) or base^k overflows (Diverged),
    or whose float(w_k) is negative or NaN (a ValueError) cuts its block
    short, and `error` is that exception (None when none raised)."""
    lo, size = 0, 64
    while lo < end:
        wks, pks = [], []
        add_w, add_p = wks.append, pks.append
        error = None
        for k in range(lo, min(lo + size, end)):
            try:
                wk = weight(k)
                try:
                    wk, pk = float(wk), base ** k
                except OverflowError:
                    raise Diverged(f"series term overflowed at k={k}") from None
            except Exception as exc:
                error = exc
                break
            add_w(wk)
            add_p(pk)
        ws = np.array(wks, dtype=float)
        bad = np.flatnonzero(~(ws >= 0))  # a negative or NaN weight
        if bad.size:
            j = int(bad[0])
            error = ValueError(f"w_{lo + j} = {wks[j]!r} is not a number >= 0")
            ws, pks = ws[:j], pks[:j]
        yield (np.arange(lo, lo + ws.size), ws, np.array(pks, dtype=float),
               error)
        lo, size = lo + size, min(2 * size, _BLOCK)


def _extend_marks(marks: list, ks: np.ndarray, terms: np.ndarray,
                  cap: int) -> None:
    """Append this block's tail-fit checkpoints: the first positive term
    from k = 1, then each first positive term at twice the last mark's
    index or beyond, and the term at the cap when positive."""
    live = np.flatnonzero((terms > 0) & (ks >= 1))
    while True:
        j = np.searchsorted(ks[live], 2 * marks[-1][0] if marks else 1)
        if j == live.size:
            break
        i = live[j]
        marks.append((int(ks[i]), float(terms[i])))
    if live.size and ks[live[-1]] == cap and marks[-1][0] != cap:
        marks.append((cap, float(terms[live[-1]])))


def phi(w: WeightSequence, t):
    """Phi(t) = sum w_k t^k; Diverged when the series fails to converge."""
    value, ok = _series_sum(w, t, 0)
    if not ok:
        raise Diverged("Phi series did not converge within the cap")
    return value


def psi(w: WeightSequence, t):
    """Psi(t) = t Phi'(t) / Phi(t) = sum k w_k t^k / sum w_k t^k."""
    num, ok1 = _series_sum(w, t, 1)
    den, ok2 = _series_sum(w, t, 0)
    if not (ok1 and ok2):
        raise Diverged("Psi series did not converge within the cap")
    if den == 0:
        raise OutOfDomain("Phi(t) = 0")
    if _is_exact(num) and _is_exact(den):
        return Fraction(num, den) if den else Fraction(0)
    return num / den


def nu_sigma_sq(w: WeightSequence) -> tuple[float, float]:
    """(nu, sigma_sq): the criticality parameter Psi at rho, and the
    variance of the limit degree law.

    nu = 0 exactly when rho = 0.  Finite support gives nu = max supported
    degree (Psi(t) increases to it) and sigma_sq = 0, the limit of
    t Psi'(t).  At a finite positive rho, nu is Psi(rho) when the series
    converge there, otherwise the monotone limit of Psi(t) as t increases
    to rho; sigma_sq is the pi-variance, reported as math.inf when the
    second-moment series diverges at rho.
    """
    rho, _ = w.resolve_rho()
    if rho == 0:
        return 0.0, 0.0
    if math.isinf(rho):
        top = w.max_degree
        return float(top), 0.0
    m0, ok0 = _series_sum(w, rho, 0)
    m1, ok1 = _series_sum(w, rho, 1)
    if ok0 and ok1:
        nu = m1 / m0
        m2, ok2 = _series_sum(w, rho, 2)
        sigma_sq = m2 / m0 - nu * nu if ok2 else math.inf
        return float(nu), sigma_sq
    # boundary divergence: chase the monotone limit from below
    last = 0.0
    for j in range(1, 50):
        t = rho * (1 - 2.0 ** -j)
        try:
            value = psi(w, t)
        except Diverged:
            break
        if value - last < 1e-9 and j > 5:
            return float(value), math.inf
        last = value
    return float(last), math.inf


def limit_degree_law(w: WeightSequence) -> OffspringDistribution:
    """The probability law pi(k) = w_k rho^k / Phi(rho).

    rho = 0 degenerates to the point mass at zero.  Finite support (rho
    infinite) and boundary-divergent Phi both raise PhiDiverges; callers
    should tilt below rho instead.

    The masses stop at the first k >= 8 whose partial sum is within 1e-12
    of one (at the latest at _SERIES_CAP; the remainder is renormalised
    away).  Like the series of `_series_sum` they come in
    `_scalar_blocks`, float(w_k) and rho^k as Python scalars, with the
    partial sums by np.add.accumulate, so the stop and every mass are
    bit-identical to a term-by-term loop.
    """
    rho, _ = w.resolve_rho()
    if rho == 0:
        return OffspringDistribution.from_masses([1.0], label="limit_law(rho=0)")
    if math.isinf(rho):
        raise PhiDiverges("Phi(rho) is infinite for finite-support weights")
    try:
        total = float(phi(w, rho))
    except Diverged as exc:
        raise PhiDiverges(f"Phi diverges at rho={rho}") from exc
    masses = []
    partial = 0.0
    for ks, wks, pks, error in _scalar_blocks(w.weight, rho, _SERIES_CAP + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            block = wks * pks / total
            partials = np.add.accumulate(np.concatenate(([partial], block)))[1:]
        done = np.flatnonzero((ks >= 8) & (1.0 - partials < 1e-12))
        if done.size:
            masses.append(block[:done[0] + 1])
            break
        if error is not None:
            raise error
        masses.append(block)
        partial = float(partials[-1])
    return OffspringDistribution.from_masses(
        np.concatenate(masses), label="limit_law", renormalize=True)


def tilted_law(w: WeightSequence, t, top: int) -> OffspringDistribution:
    """Offspring law proportional to w_k t^k on k <= top.  The masses
    float(w_k) * t^k are read by `_scalar_blocks`, for an explicit sequence
    only up to its max_degree."""
    if t <= 0:
        raise OutOfDomain("tilt must be positive")
    masses = np.zeros(top + 1)
    end = top + 1 if w.explicit is None else min(top + 1, len(w.explicit))
    for ks, wks, pks, error in _scalar_blocks(w.weight, float(t), end):
        if error is not None:
            raise error
        with np.errstate(over="ignore", invalid="ignore"):
            masses[ks] = wks * pks
    if not np.isfinite(masses).all():
        raise Diverged("tilted masses overflow; use a smaller tilt")
    return OffspringDistribution.from_masses(
        masses, label=f"tilt({t})", renormalize=True)


# ---------------------------------------------------------------------------
# partition numbers
# ---------------------------------------------------------------------------

def partition_function(w: WeightSequence, n: int):
    """Z_n, the total weight of all n-node plane trees.

    Computed as (1/n) [z^{n-1}] Phi(z)^n with the series truncated at
    degree n - 1 (Lagrange inversion).  The weights are scaled once by the
    lcm D of their denominators to integers a_0..a_d (a_d the last non-zero
    one below n, a_0 = D w_0 > 0), and c_m = [z^m] (sum a_k z^k)^n follows
    from the power recurrence (J.C.P. Miller; Knuth, TAOCP 2, 4.6.1):
    c_0 = a_0^n and
        m a_0 c_m = sum_{k=1}^{min(d, m)} (k (n + 1) - m) a_k c_{m-k},
    every division exact.  That is O(n d) big-integer products where
    powering the dense series costs O(n^2 log n).  Z_n = c_{n-1} / (D^n n)
    is exact, an int or a Fraction, for rational weights.  Any other w_k
    is read as float(w_k), a dyadic rational, so Z_n is the same exact
    value rounded once: correctly rounded, and Diverged exactly when it,
    or a float(w_k), is past the float range.  Cross-checked against
    direct tree enumeration for small n in the tests.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rational = w.is_rational()
    coeffs = []
    for k in range(n):
        v = w.weight(k)
        if not rational:
            try:
                v = float(v)
            except OverflowError:
                raise Diverged(f"w_{k} overflows floating point; give the "
                               "weights as an explicit list of integers or "
                               "p/q fractions for the exact value") from None
        if not 0 <= v < math.inf:
            raise ValueError(f"w_{k} = {v!r} is not a finite number >= 0")
        coeffs.append(Fraction(v))
    scale = math.lcm(*(v.denominator for v in coeffs))
    a = [v.numerator * (scale // v.denominator) for v in coeffs]
    while a[-1] == 0:
        a.pop()
    out = Fraction(_power_coefficient(a, n), scale ** n * n)
    if rational:
        return int(out) if out.denominator == 1 else out
    try:
        return float(out)
    except OverflowError:
        raise Diverged(f"Z_{n} overflows floating point; give the weights as "
                       "integers or p/q fractions for the exact value") from None


def _power_coefficient(a: list[int], n: int) -> int:
    """[z^{n-1}] (sum_k a[k] z^k)^n for integers with a[0] > 0, by the
    power recurrence of `partition_function`."""
    terms = [(k, ak) for k, ak in enumerate(a) if k and ak]
    c = [a[0] ** n]
    for m in range(1, n):
        total = sum((k * (n + 1) - m) * ak * c[m - k]
                    for k, ak in terms if k <= m)
        q, r = divmod(total, m * a[0])
        if r:
            raise ArithmeticError(f"power recurrence left a remainder at m={m}")
        c.append(q)
    return c[n - 1]


def statistics_weight(w: WeightSequence, stats: DegreeStatistics):
    """prod_c w_c^{n(c)}, the common weight of every tree with these
    statistics."""
    out = 1
    for c, k in stats.sorted_items():
        out = out * (w.weight(c) ** k)
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def solve_critical_tilt(w: WeightSequence) -> float:
    """The tilt t* with Psi(t*) = 1 when reachable, else rho itself.

    Psi is strictly increasing, so bisection applies.  Used to turn a
    simply generated model into a conditioned branching process with the
    best acceptance rate; any positive tilt gives the same conditioned law,
    so the choice only affects efficiency.
    """
    rho, _ = w.resolve_rho()
    if rho == 0:
        raise OutOfDomain("no positive tilt exists for rho = 0")
    if math.isinf(rho):
        hi = 1.0
        while psi(w, hi) < 1.0:
            hi *= 2.0
            if hi > 1e12:
                return hi  # support in {0, 1}: Psi < 1 everywhere
        lo = 0.0
    else:
        # Probe the boundary itself: at t slightly below rho the terms decay
        # polynomially times an imperceptibly subgeometric factor, which is
        # the one regime the series accelerator cannot certify.  At t = rho
        # the terms are cleanly polynomial and extrapolation either converges
        # or raises honestly.
        edge = _psi_or_inf(w, rho)
        if edge <= 1.0:
            return float(rho)
        lo, hi = 0.0, float(rho)
    for _ in range(200):
        mid = (lo + hi) / 2
        # An uncertifiable evaluation this close to the crossing is treated
        # as >= 1; any positive tilt yields the same conditioned law, so a
        # conservative bracket costs acceptance rate only, never correctness.
        if _psi_or_inf(w, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _psi_or_inf(w: WeightSequence, t) -> float:
    try:
        return psi(w, t)
    except Diverged:
        return math.inf


def simply_generated_sampler(w: WeightSequence, n: int):
    """rng -> the int64 degree word of a tree drawn with P(t) = w(t) / Z_n
    among n-node plane trees, with all the work that depends only on
    (w, n) done once, here.

    Positive radius: tilt the weights into an offspring law (the tilt
    cancels in the conditioned law) and draw by the route
    `conditioned_sampler` picks (the k^-3 weights halve from n = 118).
    Zero radius: no tilt exists, so draw a degree-statistics class from
    the enumerated `_class_weights`, then a uniform tree in it; TooLarge
    above ENUMERATION_CAP nodes.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return lambda rng: np.zeros(1, dtype=np.int64)
    end = n if w.explicit is None else min(n, len(w.explicit))
    support = [k for k in range(1, end) if w.weight(k) > 0]
    if not _reachable_sum(support, n - 1):
        raise ZeroPartition(f"Z_{n} = 0 for these weights")
    rho, _ = w.resolve_rho()
    if rho == 0:
        if n > ENUMERATION_CAP:
            raise TooLarge(f"zero-radius sampling is capped at {ENUMERATION_CAP}")
        table = _class_weights(w, n)
        return functools.partial(_sample_class, table, float(sum(table.values())))
    if max(support) == 1:  # the path is the only tree
        return lambda rng: np.append(np.ones(n - 1, dtype=np.int64), 0)
    return conditioned_sampler(tilted_law(w, solve_critical_tilt(w), n - 1), n)


def sample_simply_generated(w: WeightSequence, n: int,
                            rng: RngStream) -> np.ndarray:
    """One word drawn by `simply_generated_sampler(w, n)`."""
    return simply_generated_sampler(w, n)(rng)


def _class_weights(w: WeightSequence, n: int) -> dict:
    """Each n-node statistics class of positive weight -> its tree count
    times the common weight prod_c w_c^{n(c)} of its trees."""
    table = {}
    for stats in _statistics_of_size(n):
        wt = count_forests(stats) * statistics_weight(w, stats)
        if wt > 0:
            table[stats] = wt
    if not table:
        raise ZeroPartition(f"Z_{n} = 0 for these weights")
    return table


def _sample_class(table: dict, total: float, rng: RngStream) -> np.ndarray:
    """The word of a uniform tree of a `_class_weights` class; `total` sums
    the table."""
    u = rng.gen.uniform() * total
    acc = 0.0
    for stats, wt in table.items():  # the last class if rounding runs out
        acc += float(wt)
        if u < acc:
            break
    return sample_uniform_word(stats, rng)


def exact_tree_law(w: WeightSequence, n: int) -> dict[DegreeStatistics, Fraction]:
    """Exact class probabilities P(statistics of the tree = s) for rational
    weights, by enumeration.  Small n only."""
    if n > ENUMERATION_CAP:
        raise TooLarge(f"exact law needs n <= {ENUMERATION_CAP}")
    if not all(_is_exact(w.weight(k)) for k in range(n)):
        raise OutOfDomain("exact law needs rational weights")
    table = _class_weights(w, n)
    total = Fraction(sum(table.values()))
    return {s: v / total for s, v in table.items()}


def tilt_invariance_check(w: WeightSequence, t1, t2, n: int) -> bool:
    """True when tilting the weights by t1 and by t2 gives identical
    conditioned n-node tree laws (exact rational comparison).

    The class weight under tilt t is count * prod (w_c t^c)^{n(c)} =
    (count * prod w_c^{n(c)}) * t^{n-1}, so the laws agree identically;
    this check exists to guard the sampling shortcut against regressions.
    It never uses that identity: each side is the exact law of w_c t^c.
    """
    if n > ENUMERATION_CAP:
        raise TooLarge(f"tilt invariance check needs n <= {ENUMERATION_CAP}")
    if t1 <= 0 or t2 <= 0:
        raise OutOfDomain("tilts must be positive")
    laws = [exact_tree_law(WeightSequence.from_list(
        [Fraction(w.weight(k)) * Fraction(t) ** k for k in range(n)]), n)
        for t in (t1, t2)]
    return laws[0] == laws[1]


# ---------------------------------------------------------------------------
# degree concentration surgery
# ---------------------------------------------------------------------------

def concentrate_degrees(stats: DegreeStatistics, small_max: int,
                        bundle_degree: int) -> DegreeStatistics:
    """Bundle degrees: for each 0 < c <= small_max, convert groups of
    `bundle_degree` same-degree nodes into one bundle_degree-node plus
    leaves.

    With m(c) = floor(n(c) / bundle_degree), the result moves M*m(c) nodes
    of degree c (M = bundle_degree) into c*m(c) nodes of degree M and
    (M - c)*m(c) extra leaves.  Node and edge totals are preserved, so the
    output is again valid tree statistics.  Requires small_max > 2 and
    bundle_degree > 2 * small_max.
    """
    if small_max <= 2:
        raise BadParameters("small_max must exceed 2")
    if bundle_degree <= 2 * small_max:
        raise BadParameters("bundle_degree must exceed 2 * small_max")
    counts = dict(stats.counts)
    extra_leaves = 0
    extra_bundles = 0
    for c in range(1, small_max + 1):
        m = counts.get(c, 0) // bundle_degree
        if m:
            counts[c] -= bundle_degree * m
            extra_leaves += (bundle_degree - c) * m
            extra_bundles += c * m
    counts[0] = counts.get(0, 0) + extra_leaves
    counts[bundle_degree] = counts.get(bundle_degree, 0) + extra_bundles
    return DegreeStatistics(counts)


def concentration_count_ratio_ok(stats: DegreeStatistics, small_max: int,
                                 bundle_degree: int) -> bool:
    """Exact big-integer check that the tree count drops by at most a factor
    ((bundle_degree - 1)!)^small_max * (small_max + 1)^n under
    concentrate_degrees."""
    hat = concentrate_degrees(stats, small_max, bundle_degree)
    lhs = count_forests(stats)
    factor = (math.factorial(bundle_degree - 1) ** small_max
              * (small_max + 1) ** stats.n)
    rhs = factor * count_forests(hat)
    return lhs <= rhs


def concentration_weight_ratio(w: WeightSequence, stats: DegreeStatistics,
                               small_max: int, bundle_degree: int):
    """w(hat stats) / w(stats) in closed form: with M = bundle_degree and
    m(c) = floor(n(c)/M), the ratio is prod_{0<c<=small_max}
    (w_M^c w_0^{M-c} / w_c^M)^{m(c)}.

    For w_0 = 1 this is the familiar product over bundled classes; the
    w_0^{M-c} factor accounts for the extra leaves the surgery creates.
    Exact for rational weights.  Undefined (OutOfDomain) when a bundled
    class has zero weight.
    """
    if small_max <= 2 or bundle_degree <= 2 * small_max:
        raise BadParameters("invalid (small_max, bundle_degree)")
    w_m = w.weight(bundle_degree)
    w_0 = w.weight(0)
    exact = _is_exact(w_m) and _is_exact(w_0)
    out = Fraction(1) if exact else 1.0
    for c in range(1, small_max + 1):
        m = stats.count(c) // bundle_degree
        if m:
            w_c = w.weight(c)
            if w_c == 0:
                raise OutOfDomain("weight ratio undefined: w_c = 0 in a bundled class")
            num = w_m ** c * w_0 ** (bundle_degree - c)
            den = w_c ** bundle_degree
            ratio = Fraction(num, den) if exact and _is_exact(den) else num / den
            out = out * ratio ** m
    return out
