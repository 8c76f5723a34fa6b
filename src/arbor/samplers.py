"""Samplers for random plane trees and their spine functionals.

Three families live here:

* size-biased threshold walks: draw the degree multiset in size-biased
  order and stop at accept/reject thresholds 1 - (edge weight not yet
  drawn) / (candidates left).  `sample_mark_height` returns the depth of a
  uniform mark in a uniform tree or forest without building it;
  `sample_stopping_index` is the single-tree strict-threshold variant
  whose tail dominates the mark height.  Every one of them,
  `sample_size_biased_order` included, runs on one step-synchronous walk
  that draws a step for all replications at once and retires each row at
  its first accepted index; the single-draw functions are that walk with
  one row.  On a census with one positive
  degree all rows share the threshold, so a step draws only how many rows
  accept, as one binomial, and one permutation of the resulting histogram
  gives the rows.  The walk's memory is bounded by the rows and steps it
  walks: an int32 table of remaining edge weight, compacted once half its
  rows have accepted, or a histogram as long as the steps taken.
* a Poisson-process reformulation of the stopping index
  (`sample_stopping_index_poissonized_batch`): degrees become subintervals
  of [0, 1), arrivals hit them, and sigma and the repeat time tau are read
  off the first "repeat" arrival.  Intervals are first hit in size-biased
  order and the repeat fires at the stopping walk's threshold, so the batch
  takes sigma from that walk and tau as a sum of sigma geometric stage
  lengths; the single draw `sample_stopping_index_poissonized` is the batch
  with one row.
* direct tree construction: uniform trees with fixed degree statistics via
  shuffle-and-rotate, and the int64 degree words of conditioned
  branching-process trees either by rejection on multinomial degree-count
  vectors or by splitting the degree sum in halves over a table of
  truncated convolution powers.  Both draw R words as one R x n batch
  from one stream, and each single tree is the batch's one-row call;
  `expected_rejection_rows` predicts the rejection cost that picks between
  them.

Each sampler has an exact-law oracle in `enumeration` (or a closed form) and
the tests compare the two.  The Poisson batch is tested in law against a
direct simulation of every arrival, and its tau against the exact tails that
`enumeration.repeat_time_tails` certifies in floats for the tail sweep.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (AttemptsExhausted, InvalidDistribution, InvalidStatistics,
                     ZeroPartition)
from .rng import RngStream
from .trees import (DegreeStatistics, MarkedTree, PlaneTree, _is_integer,
                    build_tree)

_STRETCHED_CUTOFF = 20_000  # exp(-sqrt(k)) is below 1e-60 past this
# sum of exp(-sqrt(k)) over 1 <= k < _STRETCHED_CUTOFF: the stretched law's
# tail mass is coef times this
_STRETCHED_SUM = float(np.sum(np.exp(-np.sqrt(
    np.arange(1, _STRETCHED_CUTOFF)))))

# Euler-Maclaurin denominators (2j)! / B_2j of the Hurwitz zeta tail
_EM_TERMS = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
             -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
             1.1646782814350067249e14, -4.5979787224074726105e15,
             1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k + q)^-x for x > 1 and q >= 1.

    A line-for-line port of Cephes `zeta(x, q)` (S. L. Moshier): direct
    terms until k + q > 9, then Euler-Maclaurin with 12 Bernoulli terms.
    tests/test_samplers.py pins it bit for bit against the library build of
    the same routine.
    """
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for term in _EM_TERMS:
        a *= x + k
        b /= w
        t = a * b / term
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


# ---------------------------------------------------------------------------
# size-biased degree order and threshold samplers
# ---------------------------------------------------------------------------

def _size_biased_walk(stats: DegreeStatistics, gen: np.random.Generator,
                      reps: int, last: int,
                      record: list | None = None) -> np.ndarray:
    """First accepted index of `reps` independent size-biased threshold walks.

    Each row draws the degrees D_1, D_2, ... in size-biased order: degree c
    with probability c * (remaining count of c) over the remaining edge
    total, and 0 once that total is used up.  Step i = 1..last first draws a
    uniform U in [0, 1) and accepts when U < 1 - R / m, m = last + 1 - i and
    R the edge weight not yet drawn, so a zero threshold never accepts and a
    threshold of one always does.  R starts at n - a, so m - R is
    (last - n + a) + sum_{j<i} (D_j - 1).  Returns each row's accepted
    index, or last + 1 where no step accepted.  With `record` given no step
    accepts, and each step's degrees are appended to it.

    Every step of a row with edges left takes one positive degree, so all
    live rows use up their edges together, at step p = number of
    positive-degree nodes, and draw only zeroes after it.  With at most one
    distinct positive degree c (binary, any full c-ary census, the path)
    nothing random is left in the degrees: every row takes c up to step p
    and 0 after it, so R is one int that all rows share.  The rows are then
    exchangeable and the state is a count of live rows: the number that
    accept at step i is Binomial(live, threshold), so the per-step counts
    are the multinomial histogram of `reps` i.i.d. walks, and one uniform
    permutation of that histogram, spread out into rows, gives their
    arrangement.  Such a walk draws one binomial per step, one O(reps)
    shuffle and no uniforms, and its histogram is only as long as the steps
    it takes: about sqrt(n) of them, not n.  With c <= 1 a zero threshold
    never rises (the stopping walk on a path), so the walk stops at once;
    the binomials it skips would draw nothing.

    Otherwise the state is a B x reps table of remaining edge weight
    c * (remaining count of c) over the B distinct positive degrees, one
    contiguous row per degree, in int32 unless n reaches 2**31 (no entry,
    total, drawn point or m exceeds n).  Accepted rows stay in the table as
    dead columns, frozen, until at most half the columns are live; then one
    `take` compacts the table, with the row totals R and the column -> row
    map.  So at most one and a half tables are live, and compaction costs
    O(B) per retired row.  A step draws uniforms for the live columns only,
    in row order, and picks every column's bucket by adding up table rows
    over the first B - 1 buckets; the last bucket's cumulative weight is the
    column's remaining total, which always exceeds the drawn point, so it is
    never compared.  Taking degree d then lowers one entry of each live
    column, and its total, by d.
    """
    _check_reps(reps)
    items = [(c, k) for c, k in stats.sorted_items() if c > 0]
    positives = sum(k for _, k in items)
    shared = len(items) <= 1
    if shared:
        c = items[0][0] if items else 0
        left = c * positives  # R, the same for every row
        live = reps  # rows still walking
        hits = array("q", [0])  # hits[i]: rows accepted at step i
    else:
        # edge weights sum to at most n - 1, so int32 holds every entry
        dtype = np.int64 if stats.n >= 2**31 else np.int32
        out = np.full(reps, last + 1, dtype=np.int64)
        deg = np.array([c for c, _ in items], dtype=dtype)
        edges = np.array([c * k for c, k in items], dtype=dtype)
        rem = np.repeat(edges.reshape(-1, 1), reps, axis=1)
        weight = np.full(reps, edges.sum(), dtype=dtype)  # R
        row = np.arange(reps)  # the row each table column holds
        live = np.arange(reps)  # the live columns, in row order
    for i in range(1, last + 1):
        m = last + 1 - i
        if record is None:
            if shared:
                if m == left and c <= 1:
                    break  # a zero threshold that can never rise (paths)
                hits.append(gen.binomial(live, (m - left) / m))
                live -= hits[i]
            else:
                accept = gen.random(live.size) < (m - weight[live]) / m
                if accept.any():
                    out[row[live[accept]]] = i
                    live = live[~accept]
                    if 2 * live.size <= row.size:
                        # take keeps the table C-contiguous, so the flat
                        # view below writes through to it
                        rem = rem.take(live, axis=1)
                        weight, row = weight[live], row[live]
                        live = np.arange(live.size)
        rows = live if shared else live.size
        if not rows:
            break
        d = 0
        if i <= positives:
            if shared:
                d = c
                left -= c
            else:
                # an integer point in [0, w) picks the bucket by its
                # cumulative weight; the clip guards u * w rounding up to w
                cols = row.size
                v = np.zeros(cols)
                v[live] = gen.random(rows)
                v = np.minimum((v * weight).astype(dtype), weight - 1)
                b = np.zeros(cols, dtype=np.intp)
                cum = np.zeros(cols, dtype=dtype)
                for j in range(deg.size - 1):
                    cum += rem[j]
                    b += cum <= v
                b = b[live]
                d = deg[b]
                rem.reshape(-1)[b * cols + live] -= d
                weight[live] -= d
        if record is not None:
            record.append(np.full(rows, d, dtype=np.int64))
    if shared:
        hits.append(live)  # the rows no step accepted, at last + 1
        steps = np.arange(len(hits), dtype=np.int64)
        steps[-1] = last + 1
        return gen.permutation(np.repeat(steps, hits))
    return out


def _check_reps(reps: int) -> None:
    if reps < 0:
        raise ValueError(f"reps must be at least 0, got {reps}")


def sample_size_biased_order(stats: DegreeStatistics, rng: RngStream) -> tuple[int, ...]:
    """The degree multiset in size-biased random order.

    Step k picks degree d with probability d * (remaining count of d) divided
    by the remaining edge total; once that total hits zero only zeroes are
    left and they are appended in place.
    """
    steps: list[np.ndarray] = []
    _size_biased_walk(stats, rng.gen, 1, stats.n, steps)
    return tuple(int(d[0]) for d in steps)


def sample_mark_height(stats: DegreeStatistics, rng: RngStream) -> int:
    """Depth of a uniform mark in a uniform forest with these statistics,
    within the mark's tree (a uniform tree when a = 1).

    Walks the size-biased degrees D_1, D_2, ... and accepts index i with
    probability 1 - R / (n + 1 - i), R the degree sum not yet drawn; the
    returned height is one less than the first accepted index.
    """
    return int(sample_mark_height_batch(stats, rng, 1)[0])


def sample_stopping_index(stats: DegreeStatistics, rng: RngStream) -> int:
    """Strict-threshold stopping index; stochastically dominates M = height+1.

    Index i fires with probability sum_{j<i} (D_j - 1) / (n - i) for
    i = 1..n-1.  For path statistics no threshold can ever fire and the
    sentinel value n is returned (the distributional point at infinity).
    """
    return int(sample_stopping_index_batch(stats, rng, 1)[0])


def sample_mark_height_batch(stats: DegreeStatistics, rng: RngStream,
                             reps: int) -> np.ndarray:
    """`reps` independent `sample_mark_height` draws as an int array."""
    # the threshold at i = n equals one, so every row accepts by then
    return _size_biased_walk(stats, rng.gen, reps, stats.n) - 1


def sample_stopping_index_batch(stats: DegreeStatistics, rng: RngStream,
                                reps: int) -> np.ndarray:
    """`reps` independent `sample_stopping_index` draws (sentinel n when
    nothing fires) as an int array."""
    if stats.a != 1:
        raise InvalidStatistics("no forest law of sigma is stated (a != 1)")
    return _size_biased_walk(stats, rng.gen, reps, stats.n - 1)


# ---------------------------------------------------------------------------
# Poisson-process reformulation of the stopping index
# ---------------------------------------------------------------------------

def sample_stopping_index_poissonized(
        stats: DegreeStatistics, rng: RngStream) -> tuple[int, int | None]:
    """One (sigma, tau) draw of the Poisson interval construction.

    This is `sample_stopping_index_poissonized_batch` with one row.  sigma
    has the law of `sample_stopping_index`; tau is None where no repeat
    arrival can occur, which happens exactly for path statistics, and sigma
    is then the same sentinel value n.
    """
    sigma, tau = sample_stopping_index_poissonized_batch(stats, rng, 1)
    return int(sigma[0]), int(tau[0]) if np.isfinite(tau[0]) else None


def sample_stopping_index_poissonized_batch(
        stats: DegreeStatistics, rng: RngStream,
        reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Poissonised draws: (sigma, tau) arrays, sigma int64 and tau
    float64 with np.inf where no repeat arrival can occur.

    In the interval construction each degree d is a subinterval of [0, 1)
    of length d / (n - 1), its left part the first (d - 1) / (n - 1), and
    uniform arrivals hit them one by one.  An arrival in the left part of
    an interval already hit is a repeat: tau counts the arrivals up to and
    including the first one, and sigma is one more than the intervals hit
    before it.  With s intervals hit, of degree sum S, an arrival is a
    first hit with probability (n - 1 - S) / (n - 1), a repeat with
    probability (S - s) / (n - 1) and changes nothing otherwise.  Between
    first hits the arrivals are memoryless, so
      * intervals are first hit in size-biased order, and stage s ends in a
        repeat with probability (S - s) / (n - 1 - s) = 1 - R / (n - 1 - s)
        for R = n - 1 - S: the stopping walk's threshold, so it draws sigma;
      * stage s lasts Geometric((n - 1 - s) / (n - 1)) arrivals whatever
        the degrees and however it ends, so tau adds one such draw for each
        stage s < sigma.
    Path statistics have no left parts: sigma = n and tau = inf, with
    nothing drawn.
    """
    _check_reps(reps)
    if stats.a != 1:
        raise InvalidStatistics("no forest sigma or tau is defined (a != 1)")
    n = stats.n
    if n < 2:
        raise InvalidStatistics("the Poisson construction needs two nodes")
    if stats.max_degree <= 1:
        return np.full(reps, n, dtype=np.int64), np.full(reps, np.inf)
    sigma = sample_stopping_index_batch(stats, rng, reps)
    tau = np.zeros(reps)
    live = np.arange(reps)
    for s in range(int(sigma.max(initial=0))):
        live = live[sigma[live] > s]
        tau[live] += rng.gen.geometric((n - 1 - s) / (n - 1), live.size)
    return sigma, tau


# ---------------------------------------------------------------------------
# direct tree construction
# ---------------------------------------------------------------------------

def _rotation(d: np.ndarray) -> np.ndarray:
    """Each row of an int64 stack of degree rows turned to its one cyclic
    rotation that is a valid word (cycle lemma): it starts after the walk of
    (d_i - 1) first bottoms out."""
    n = d.shape[1]
    j = (np.cumsum(d, axis=1) - np.arange(1, n + 1)).argmin(axis=1) + 1
    # row r is the n-window at j[r] of d[r] written out twice
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([d, d], axis=1), n, axis=1)
    return windows[np.arange(len(d)), j]


def rotate_to_valid_word(degrees: Sequence[int]) -> tuple[int, ...]:
    """`_rotation` of any degree sequence, as a tuple."""
    word = np.asarray(degrees, dtype=np.int64)[None]
    return tuple(_rotation(word)[0].tolist())


def _shuffled_words(degrees: np.ndarray, counts, n: int,
                    rng: RngStream) -> np.ndarray:
    """The word step of every uniform tree, once per row of `counts`:
    shuffle the n-node multiset of int64 `degrees` (ascending), each
    repeated by the row's count, row after row from the one stream, then
    rotate every row to its valid word."""
    words = np.empty((len(counts), n), dtype=np.int64)
    for word, row in zip(words, counts):
        word[:] = rng.gen.permutation(np.repeat(degrees, row))
    return _rotation(words)


def sample_uniform_word(stats: DegreeStatistics, rng: RngStream) -> np.ndarray:
    """The int64 degree word of a uniform plane tree with the given degree
    statistics."""
    if stats.a != 1:
        raise InvalidStatistics("a uniform forest needs one more draw (a != 1)")
    degrees, counts = zip(*stats.sorted_items())
    return _shuffled_words(np.array(degrees, dtype=np.int64), [counts],
                           stats.n, rng)[0]


def sample_uniform_tree(stats: DegreeStatistics, rng: RngStream) -> PlaneTree:
    """Uniform plane tree with the given degree statistics."""
    return build_tree(sample_uniform_word(stats, rng))


def sample_uniform_marked_tree(stats: DegreeStatistics, rng: RngStream) -> MarkedTree:
    """Uniform tree plus an independent uniform mark."""
    tree = sample_uniform_tree(stats, rng)
    mark = int(rng.gen.integers(0, tree.n))
    return MarkedTree(tree, mark)


# ---------------------------------------------------------------------------
# offspring distributions and conditioned branching-process trees
# ---------------------------------------------------------------------------

_FAMILY_ARITY = {"geometric": 1, "power_law": 4, "stretched": 2, "anchored": 6}


def _finite_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


@dataclass(frozen=True)
class OffspringDistribution:
    """A probability law on {0, 1, 2, ...} used as an offspring distribution.

    Either explicit masses (kind "explicit") or a parametric family with an
    infinite tail evaluated by formula.  Instances are immutable plain data.
    """

    kind: str
    params: tuple
    masses: tuple[float, ...] | None = None
    label: str = ""

    @classmethod
    def from_masses(cls, masses, label: str = "explicit",
                    renormalize: bool = False) -> "OffspringDistribution":
        """Masses mu(0), mu(1), ... from a sequence, a dict degree -> mass
        or a float64 array, which is checked as it is.  Anything else is
        read mass by mass through float(), refusing bools.  The total is a
        left-to-right running sum, as in a Python loop."""
        if isinstance(masses, dict):
            for k in masses:
                if not _is_integer(k) or k < 0:
                    raise InvalidDistribution(
                        f"offspring degree {k!r} is not an integer >= 0")
            vec = [0.0] * (max(masses, default=-1) + 1)
            for k, v in masses.items():
                vec[k] = v
            masses = vec
        if (isinstance(masses, np.ndarray) and masses.dtype == np.float64
                and masses.ndim == 1):
            vec = masses
        else:
            vec = list(masses)
            if any(isinstance(v, (bool, np.bool_)) for v in vec):
                raise InvalidDistribution(
                    "offspring masses must be numbers, not bools")
            vec = np.array([float(v) for v in vec], dtype=np.float64)
        if not ((vec >= 0) & (vec < math.inf)).all():
            raise InvalidDistribution("offspring masses must be finite, >= 0")
        with np.errstate(over="ignore"):  # an infinite total is refused
            total = float(np.add.accumulate(vec)[-1]) if vec.size else 0
        if renormalize:
            if total <= 0:
                raise InvalidDistribution("offspring masses sum to zero")
            vec = vec / total
        elif abs(total - 1.0) > 1e-12:
            raise InvalidDistribution(f"offspring masses sum to {total!r}")
        if not vec.size or vec[0] <= 0:
            raise InvalidDistribution("offspring law needs positive mass at zero")
        return cls("explicit", (), tuple(vec.tolist()), label)

    @classmethod
    def geometric(cls, p: float) -> "OffspringDistribution":
        if isinstance(p, (bool, np.bool_)) or not 0 < p <= 1:
            raise InvalidDistribution("geometric parameter must be in (0, 1]")
        return cls("geometric", (float(p),), None, f"geometric({p})")

    @classmethod
    def power_law(cls, alpha: float, mean: float,
                  start: int = 1) -> "OffspringDistribution":
        """mu(k) = coef * k^-alpha for k >= start, remainder at zero.

        coef is set so the mean is exactly `mean`; requires alpha > 2.
        """
        if not alpha > 2:
            raise InvalidDistribution("power-law mean diverges for alpha <= 2")
        if not (start >= 1 and float(start).is_integer() and mean >= 0):
            raise InvalidDistribution(
                "power law needs an integer start >= 1 and mean >= 0, "
                f"got start={start}, mean={mean}")
        start = int(start)
        coef = mean / _hurwitz(alpha - 1, start)
        mass = coef * _hurwitz(alpha, start)
        if mass >= 1:
            raise InvalidDistribution("power-law tail mass reaches one")
        return cls("power_law", (float(alpha), float(coef), start, float(mean)),
                   None, f"power_law(alpha={alpha}, mean={mean}, start={start})")

    @classmethod
    def stretched_exp(cls, mean: float) -> "OffspringDistribution":
        """mu(k) = coef * exp(-sqrt(k)) for k >= 1: E[exp(t X)] is infinite
        for every t > 0, which is the zero-MGF-radius tail class."""
        if not mean >= 0:
            raise InvalidDistribution(f"stretched mean must be >= 0, got {mean}")
        k = np.arange(1, _STRETCHED_CUTOFF)
        w = np.exp(-np.sqrt(k))
        coef = mean / float(np.dot(k, w))
        if coef * _STRETCHED_SUM >= 1:
            raise InvalidDistribution("stretched tail mass reaches one")
        return cls("stretched", (float(coef), float(mean)), None,
                   f"stretched_exp(mean={mean})")

    @classmethod
    def anchored_heavy(cls, anchor: int, anchor_mass: float, tail_start: int,
                       tail_mean: float, alpha: float = 2.5) -> "OffspringDistribution":
        """An atom at `anchor` plus a k^-alpha tail from `tail_start` on.

        The atom supplies most of the mean and a guaranteed second-moment
        floor at moderate n; the tail makes the second moment infinite, so
        the law stays in the infinite-variance class.
        """
        if not (alpha > 2 and tail_start >= 1 and float(tail_start).is_integer()
                and anchor >= 0 and float(anchor).is_integer()
                and 0 <= anchor_mass < 1 and tail_mean >= 0):
            raise InvalidDistribution(
                "anchored law needs alpha > 2, integers tail_start >= 1 and "
                "anchor >= 0, 0 <= anchor_mass < 1 and tail_mean >= 0, got "
                f"{(anchor, anchor_mass, tail_start, tail_mean, alpha)}")
        anchor, tail_start = int(anchor), int(tail_start)
        coef = tail_mean / _hurwitz(alpha - 1, tail_start)
        tail_mass = coef * _hurwitz(alpha, tail_start)
        if anchor_mass + tail_mass >= 1:
            raise InvalidDistribution("anchored tail leaves no mass at zero")
        return cls("anchored", (anchor, float(anchor_mass), tail_start,
                                float(coef), float(alpha), float(tail_mean)),
                   None, f"anchored(anchor={anchor}, tail_start={tail_start})")

    @classmethod
    def near_path(cls, eps: float) -> "OffspringDistribution":
        """mu(1) = 1 - eps, mu(0) = mu(2) = eps / 2: critical, variance eps."""
        if not 0 < eps <= 1:
            raise InvalidDistribution("eps must lie in (0, 1]")
        return cls.from_masses([eps / 2, 1 - eps, eps / 2],
                               label=f"near_path(eps={eps})")

    def masses_upto(self, top: int) -> np.ndarray:
        """Masses mu(0..top) as a float vector (not renormalised)."""
        k = np.arange(top + 1)
        if self.kind == "explicit":
            out = np.zeros(top + 1)
            upto = min(top + 1, len(self.masses))
            out[:upto] = self.masses[:upto]
            return out
        if self.kind == "geometric":
            p = self.params[0]
            return p * (1 - p) ** k
        if self.kind == "power_law":
            alpha, coef, start, _ = self.params
            out = np.zeros(top + 1)
            out[start:] = coef * np.arange(start, top + 1, dtype=float) ** -alpha
            out[0] = max(0.0, 1.0 - coef * _hurwitz(alpha, start))
            return out
        if self.kind == "stretched":
            coef, _ = self.params
            out = np.zeros(top + 1)
            out[1:] = coef * np.exp(-np.sqrt(k[1:]))
            out[0] = 1.0 - coef * _STRETCHED_SUM
            return out
        if self.kind == "anchored":
            anchor, anchor_mass, tail_start, coef, alpha, _ = self.params
            out = np.zeros(top + 1)
            if tail_start <= top:
                out[tail_start:] = coef * np.arange(
                    tail_start, top + 1, dtype=float) ** -alpha
            out[0] = 1.0 - anchor_mass - coef * _hurwitz(alpha, tail_start)
            if anchor <= top:
                out[anchor] += anchor_mass
            return out
        raise ValueError(f"unknown offspring kind {self.kind}")

    def mass(self, k: int) -> float:
        return float(self.masses_upto(k)[k])

    def mean(self) -> float:
        if self.kind == "explicit":
            return float(sum(i * m for i, m in enumerate(self.masses)))
        if self.kind == "geometric":
            p = self.params[0]
            return (1 - p) / p
        if self.kind == "power_law":
            return self.params[3]
        if self.kind == "stretched":
            return self.params[1]
        if self.kind == "anchored":
            anchor, anchor_mass, _, _, _, tail_mean = self.params
            return anchor * anchor_mass + tail_mean
        raise ValueError(f"unknown offspring kind {self.kind}")

    def to_jsonable(self) -> dict:
        if self.kind == "explicit":
            return {str(i): m for i, m in enumerate(self.masses) if m}
        return {"family": self.kind, "params": list(self.params),
                "label": self.label}

    @classmethod
    def from_jsonable(cls, obj, renormalize: bool = False) -> "OffspringDistribution":
        """Rebuild a law from to_jsonable output.

        A plain object of degree -> mass is read as explicit masses; an
        object with a "family" key is routed to the matching constructor.
        """
        if not isinstance(obj, dict):
            raise InvalidDistribution("expected a JSON object")
        if "family" not in obj:
            if not all(map(_finite_number, obj.values())):
                raise InvalidDistribution(
                    f"offspring masses must be finite numbers, got {obj!r}")
            masses = {int(k): float(v) for k, v in obj.items()}
            return cls.from_masses(masses, renormalize=renormalize)
        family = obj["family"]
        if not isinstance(family, str) or family not in _FAMILY_ARITY:
            raise InvalidDistribution(f"unknown offspring family {family!r}")
        params = obj.get("params", [])
        if (not isinstance(params, (list, tuple))
                or len(params) != _FAMILY_ARITY[family]
                or not all(map(_finite_number, params))):
            raise InvalidDistribution(
                f"{family} needs {_FAMILY_ARITY[family]} finite numeric params, "
                f"got {params!r}")
        if family == "geometric":
            return cls.geometric(params[0])
        if family == "power_law":
            alpha, _, start, mean = params
            return cls.power_law(alpha, mean, start)
        if family == "stretched":
            return cls.stretched_exp(params[1])
        anchor, anchor_mass, tail_start, _, alpha, tail_mean = params
        return cls.anchored_heavy(anchor, anchor_mass, tail_start, tail_mean,
                                  alpha)


def _truncated_masses(mu: OffspringDistribution, n: int) -> np.ndarray:
    """mu(0..n-1) renormalised: no node of an n-node tree has more children."""
    if n < 1:
        raise ValueError("need at least one node")
    p = mu.masses_upto(n - 1)
    total = p.sum()
    if total <= 0 or p[0] <= 0:
        raise InvalidDistribution("offspring law has no usable mass below n")
    return p / total


def _reachable_sum(coins: Sequence[int], target: int) -> bool:
    """Can `target` be written as a sum of the given positive integers,
    with repetition?  Every sum is a multiple of g, the gcd of the usable
    coins, so a target off that lattice is refused at once; otherwise coins
    and target are divided by g.  By Schur's bound on the Frobenius number
    of coprime coins, every target >= (c_min - 1)(c_max - 1) is a sum, so
    it is accepted at once.  Else a numpy bool array of the sums up to
    `target`: coin c joins in the in-place doubling ORs by c, 2c, 4c, ...,
    after which the array holds every earlier sum plus any multiple of c,
    so a coin costs O(log(target / c)) passes.  A coin that is already a
    sum of smaller ones adds nothing and is skipped by a one-element test.
    Cheap enough at n = 10^6 to run on every call, uncached.
    """
    if target == 0:
        return True
    coins = sorted({c for c in coins if 0 < c <= target})
    g = math.gcd(*coins)
    if not coins or target % g:
        return False
    coins, target = [c // g for c in coins], target // g
    if target >= (coins[0] - 1) * (coins[-1] - 1):
        return True
    reach = np.zeros(target + 1, dtype=bool)
    reach[0] = True
    for c in coins:
        if reach[c]:
            continue
        shift = c
        while shift <= target:
            reach[shift:] |= reach[:-shift]
            shift *= 2
        if reach[target]:
            return True
    return False


def expected_rejection_rows(mu: OffspringDistribution, n: int) -> float | None:
    """Normal local-limit estimate of the proposal rows per accepted tree
    of `sample_conditioned_bienayme`.

    A row is accepted when the sum S_n of n draws from the truncated
    proposal equals n - 1.  With the proposal's mean m, standard deviation
    sigma and lattice span g (the gcd of its positive support),
    P(S_n = n - 1) is about g exp(-z^2 / 2) / (sigma sqrt(2 pi n)) with
    z = (n - 1 - n m) / (sigma sqrt(n)), and the rows are its reciprocal.
    Heavy tails bend the estimate, but at the harness laws it stays within
    a factor of two of the simulated count.  None when sigma = 0 (n = 1, or
    all mass at 0): the rejection sampler then settles at once, accepting
    its first row or raising ZeroPartition.  math.inf past the float range.
    """
    q = _truncated_masses(mu, n)
    k = np.arange(n)
    m = float(q @ k)
    sigma = math.sqrt(float(q @ (k - m) ** 2))
    if sigma == 0:
        return None
    g = int(np.gcd.reduce(np.flatnonzero(q[1:]) + 1))
    z = (n - 1 - n * m) / (sigma * math.sqrt(n))
    log_rows = math.log(sigma * math.sqrt(2 * math.pi * n) / g) + z * z / 2
    return math.exp(log_rows) if log_rows < 700 else math.inf


def _rejection_columns(q: np.ndarray) -> np.ndarray:
    """The degrees a proposal row of the n-degree truncated law q counts:
    each degree with positive mass, and n - 1, always last."""
    return np.append(np.flatnonzero(q[:-1]), q.size - 1)


def sample_count_vectors(mu: OffspringDistribution, n: int, rng: RngStream,
                         reps: int, max_attempts: int = 10_000_000
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(degrees, counts): the degree counts of `reps` branching-process
    trees with offspring law mu conditioned on n nodes, one row each.

    Count-vector rejection (Devroye, SIAM J. Comput. 41, 2012): propose the
    degree counts of n i.i.d. draws as one multinomial row and accept when
    the degrees sum to n - 1.  The proposal is truncated at degree n - 1
    and renormalised, which only raises acceptance.  Proposal rows come in
    chunks of 16 doubling to max(16, 65536 // n) from one stream; the
    accepted rows are kept in order until `reps` are in, and the hits past
    them in the last chunk are dropped.  `max_attempts` caps the proposal
    rows of the whole batch.
    `degrees` are the int64 columns, ascending: each degree with positive
    mass and n - 1.  numpy draws one binomial per column but the last, and
    a zero-mass column draws nothing, so these rows are the ones a row over
    all n degrees would draw, at O(support) instead of O(n).
    `expected_rejection_rows` predicts how many rows a tree takes.

    Raises ZeroPartition before the first proposal when n - 1 is not a sum
    of positive degrees with mass below n.  `_reachable_sum` decides this
    on every call, uncached; with mass at degree 1 every target is
    reachable, so the check is skipped.
    """
    _check_reps(reps)
    q = _truncated_masses(mu, n)
    if n > 1 and q[1] == 0 and not _reachable_sum(
            (np.flatnonzero(q[1:]) + 1).tolist(), n - 1):
        raise ZeroPartition(
            f"sum {n - 1} is unreachable with this offspring law")
    gen = rng.gen
    cols = _rejection_columns(q)
    kept = [np.zeros((0, cols.size), dtype=np.int64)]
    need = reps
    attempts = 0
    rows = 16
    while need:
        if attempts >= max_attempts:
            raise AttemptsExhausted(f"no degree sequence summed to {n - 1} "
                                    f"in {max_attempts} attempts")
        take = min(rows, max_attempts - attempts)
        counts = gen.multinomial(n, q[cols], size=take)
        hits = np.flatnonzero(counts @ cols == n - 1)[:need]
        kept.append(counts[hits])
        need -= hits.size
        attempts += take
        rows = min(2 * rows, max(16, 65_536 // n))
    return cols, np.concatenate(kept)


def sample_conditioned_bienayme_batch(mu: OffspringDistribution, n: int,
                                      rng: RngStream, reps: int,
                                      max_attempts: int = 10_000_000
                                      ) -> np.ndarray:
    """The reps x n int64 degree words of `reps` branching-process trees
    with offspring law mu conditioned on n nodes, by count-vector rejection.

    `sample_count_vectors` draws the rows' degree counts; each row then
    takes the word step of `sample_uniform_word`, in row order: given its
    degree counts the tree is uniform, so its law is proportional to
    prod mu(deg).  The heavy law (full support) at n = 3,200 takes about
    1,700 proposal rows a tree (1,046 predicted), 16 ms a word, where the
    halving sampler takes about 1.2 ms (means of 40 words on a 2-vCPU VM).
    """
    degrees, counts = sample_count_vectors(mu, n, rng, reps, max_attempts)
    return _shuffled_words(degrees, counts, n, rng)


def sample_conditioned_bienayme(mu: OffspringDistribution, n: int,
                                rng: RngStream,
                                max_attempts: int = 10_000_000) -> np.ndarray:
    """The int64 degree word of a branching-process tree with offspring law
    mu conditioned on n nodes, the one-row call of
    `sample_conditioned_bienayme_batch`; `build_tree` makes it a
    PlaneTree."""
    return sample_conditioned_bienayme_batch(mu, n, rng, 1, max_attempts)[0]


def block_sizes(n: int) -> list[int]:
    """The block sizes, ascending, that halving m -> (m // 2, m - m // 2)
    visits from n down to 1; at most two per level, so about 2 log2 n."""
    sizes = level = {n}
    while level:
        level = {h for m in level if m > 1 for h in (m // 2, m - m // 2)}
        sizes = sizes | level
    return sorted(sizes)


def conditional_sum_table(mu: OffspringDistribution, n: int) -> np.ndarray:
    """Row i is the law on 0..n-1 of a sum of block_sizes(n)[i] i.i.d.
    mu-draws, renormalised; the row for m convolves those for m // 2 and
    m - m // 2.  There is no row for n itself, which no split reads, so
    the table of n = 1 is empty.

    Entries above n - 1 are dropped; degrees are nonnegative, so truncation
    never leaks back into the retained range and the kept entries are exact
    up to rounding.  Each row is rescaled to sum to one, which is harmless
    because the sequential sampler only ever uses within-row ratios.  At
    n = 10,000 the 21 rows take 0.6 s and 1.7 MB.
    """
    first = _truncated_masses(mu, n)
    sizes = block_sizes(n)[:-1]
    table = np.zeros((len(sizes), n))
    if sizes:
        table[0] = first  # sizes[0] == 1
    for i, m in enumerate(sizes[1:], 1):
        row = np.convolve(table[sizes.index(m // 2)],
                          table[sizes.index(m - m // 2)])[:n]
        np.clip(row, 0.0, None, out=row)
        table[i] = row / row.sum()
    return table


# split weights a level of one halving chunk may hold.  A row's level holds
# at most 2n - 1 of them (its targets add up to n - 1, plus one a block), so
# a chunk takes 2**15 // n rows: 40 at n = 800, 10 at n = 3,200.  Larger
# chunks buy nothing there, since every level allocates its arrays afresh:
# in a fresh process 20 heavy words at n = 3,200 took 24-25 ms in one
# chunk (5,813 page faults) against 22 ms in two (3,335; 2-vCPU VM).
# 200 heavy words at n = 3,200 (20 chunks) peak at 23 MB traced, 20.5 MB
# of it the stack and its rotation, where one chunk of all 200 rows took
# 70 MB
_SPLIT_BUDGET = 2**16


def sample_conditioned_bienayme_sequential_batch(
        mu: OffspringDistribution, n: int, rng: RngStream, reps: int,
        table: np.ndarray | None = None) -> np.ndarray:
    """The reps x n int64 degree words of `reps` trees with the law of
    `sample_conditioned_bienayme_batch`, drawn by halving the sum.

    Each row starts as one block of n degrees with target sum n - 1.  A
    block of size m >= 2 splits its target t between halves of
    m1 = m // 2 and m - m1 degrees, drawing a with probability proportional
    to P(S_m1 = a) P(S_(m-m1) = t - a) from conditional_sum_table; a block
    of size one is a degree.  The splits multiply to prod mu(d_i) over the
    normaliser, an exchangeable law, so block order does not matter before
    the rotation.  A level splits every live block of every row in one
    ragged cumulative sum and one uniform a block, in block order, with
    the first halves before the second; leaves carry their row id, and a
    stable sort by it gives each row its degrees in the order a one-row
    call collects them.  So a word costs O(n log n) however far the total
    sits in the proposal's tail, and a one-row call is the single draw.
    The running sum covers all of a chunk's blocks, each of weight one, so
    a block's cdf is resolved to about (blocks in the chunk) * eps, at most
    about reps * n * eps in total variation per split.  Rows are split in
    chunks of _SPLIT_BUDGET // (2n), drawn in order from the one stream.
    On a 2-vCPU VM, 20 words take 4.7 ms at heavy n = 800, 19 ms at
    heavy n = 3,200 and 11 ms for the census law at n = 2,000, against
    10.5, 24 and 17 ms for 20 one-row calls.  Pass a precomputed `table`
    when drawing many batches at one (mu, n).

    Raises ZeroPartition when no degree sequence can reach the target sum,
    a case the rejection sampler can only burn attempts on.
    """
    _check_reps(reps)
    if n < 1:
        raise ValueError("need at least one node")
    if table is None:
        table = conditional_sum_table(mu, n)
    sizes = block_sizes(n)[:-1]
    row_of = np.zeros(n + 1, dtype=np.int64)
    row_of[sizes] = np.arange(len(sizes))
    flat = table.ravel()
    gen = rng.gen
    chunk = max(1, _SPLIT_BUDGET // (2 * n))
    words = np.empty((reps, n), dtype=np.int64)
    for first in range(0, reps, chunk):
        rows = min(chunk, reps - first)
        m = np.full(rows, n)
        t = np.full(rows, n - 1)
        row = np.arange(rows)
        degrees, owners = [], []
        while True:
            leaf = m == 1
            degrees.append(t[leaf])
            owners.append(row[leaf])
            live = ~leaf
            m, t, row = m[live], t[live], row[live]
            if not m.size:
                break
            m1 = m // 2
            m2 = m - m1
            lens = t + 1
            starts = np.cumsum(lens) - lens
            # flat indices of (row m1, k) and (row m2, t - k), k = at - start,
            # built and used in place: a level is a dozen passes over them
            at = np.arange(lens.sum())
            index = (row_of[m1] * n - starts).repeat(lens)
            index += at
            w = flat.take(index)
            index = (row_of[m2] * n + t + starts).repeat(lens)
            index -= at
            w *= flat.take(index)
            total = np.add.reduceat(w, starts)
            # a zero total at the first level means P(S_n = n - 1) == 0
            if not total.all():
                raise ZeroPartition(
                    f"sum {n - 1} is unreachable with this offspring law")
            w /= total.repeat(lens)
            cdf = np.cumsum(w, out=w)
            end = cdf[starts + lens - 1]
            begin = np.concatenate([[0.0], end[:-1]])
            u = begin + gen.random(m.size) * (end - begin)
            a = np.minimum(np.searchsorted(cdf, u, side="right") - starts, t)
            m = np.concatenate([m1, m2])
            t = np.concatenate([a, t - a])
            row = np.concatenate([row, row])
        order = np.argsort(np.concatenate(owners), kind="stable")
        words[first:first + rows] = np.concatenate(degrees)[order].reshape(
            rows, n)
    return _rotation(words)


def sample_conditioned_bienayme_sequential(
        mu: OffspringDistribution, n: int, rng: RngStream,
        table: np.ndarray | None = None) -> np.ndarray:
    """Same law as sample_conditioned_bienayme, drawn by halving the sum:
    the one-row call of `sample_conditioned_bienayme_sequential_batch`,
    returning the int64 degree word."""
    return sample_conditioned_bienayme_sequential_batch(mu, n, rng, 1,
                                                        table)[0]


# the route rule: a rejection word costs about (predicted proposal rows) x
# (support columns) binomial draws, a halving word about n log n split
# weights plus its share of one table.  Timed in batches of 20 words with
# the table on a 2-vCPU VM, the routes tie near rows * cols = 16 n (census
# n = 16, ratio 15: 0.53 against 0.55 ms); rejection wins below it (census
# n = 10, ratio 9: 0.25 against 0.37 ms) and halving above it (heavy n = 50,
# ratio 39: 0.84 against 1.14 ms; heavy n = 200, ratio 118: 1.9 against
# 5.4 ms).  At their default sizes the light laws of the batteries sit
# below a ratio of 2 and the full-support ones above 100.  The rule fixes
# the route, and so the draws, of every report
_HALVING_RATIO = 16


def conditioned_sampler(mu: OffspringDistribution, n: int):
    """(rng, reps) -> the reps x n int64 degree words of mu-trees
    conditioned on n nodes, drawn as one batch from the one stream, by the
    cheaper route: rejection unless `expected_rejection_rows` predicts
    rows * cols > _HALVING_RATIO * n (cols the proposal's support columns),
    else halving over one `conditional_sum_table(mu, n)` shared by every
    batch drawn."""
    rows = expected_rejection_rows(mu, n)
    cols = _rejection_columns(_truncated_masses(mu, n)).size
    if rows is None or rows * cols <= _HALVING_RATIO * n:
        return functools.partial(sample_conditioned_bienayme_batch, mu, n)
    return functools.partial(sample_conditioned_bienayme_sequential_batch,
                             mu, n, table=conditional_sum_table(mu, n))
