"""Exact counting and enumeration oracles for plane trees.

Nothing is sampled here; all is integer or rational arithmetic except
`repeat_time_tails`, positive-term floats with a certified error bound.
These routines are deliberately independent of the samplers so they can
serve as ground truth: brute-force enumeration on one side, closed-form
counting on the other, and the tests insist the two agree.

Counting facts used throughout (a = number of trees, n = number of nodes):

* forests with degree statistics n(.):   (a / n) * n! / prod_c n(c)!
* forests with a marked first tree:      n! / prod_c n(c)!
* marked forests whose spine starts with degrees d = (d_1..d_k):
      a * prod_i d_i * multinomial(n - k; n(.) - usage(d))
  where usage(d, c) counts occurrences of c in d.

The law of the threshold sampler index admits a closed form: with q_k the
z^k coefficient of prod_{c>=1} (1 + c z)^{n(c)}, the probability that the
first k size-biased draws from m candidates are all rejected is
    s_k = q_k / C(m, k) = k! q_k / perm(m, k).
This is the usage-vector recursion summed in closed form (each usage vector w
contributes multinomial(k; w) * prod c^{w(c)} * prod perm(n(c), w(c)),
i.e. the z^k coefficient of the product of binomials).  One rule builds q,
node by node: the largest class (c0, K0) starts it as the row C(K0, j) c0^j,
and each other node of degree c maps q_j to q_j + c q_{j-1}.
`_degree_polynomial` applies it in integers, `_stopping_survivals` in floats
to s directly.  One index law (`_index_law`) hands out the masses
    s_k - s_{k+1} = (q_k (m - k) - q_{k+1} (k + 1)) / (C(m, k) (m - k)),
each built in integers and reduced once, never as a difference of two
reduced survival fractions; the mark height reads it at m = n, shifted down
by one, and the stopping index at m = n - 1.  The walk's threshold has no
tree count a in it, so at m = n this is a forest's mark-height law too.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidStatistics, TooLarge, UsageExceeded
from .trees import DegreeStatistics, PlaneTree, depth_table

ENUMERATION_CAP = 12
TAU_FLOOR = 1e-280  # below it `repeat_time_tails` certifies nothing new


@dataclass(frozen=True)
class ExactDistribution:
    """A probability law on integers with exact rational masses."""

    support: tuple[int, ...]
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) != len(self.mass):
            raise ValueError("support and mass lengths differ")
        if not all(map(_is_exact_type, set(map(type, self.mass)))):
            raise ValueError("masses must be ints or Fractions")
        if any(m.numerator < 0 for m in self.mass):
            raise ValueError("negative mass")
        if not _sums_to_one(self.mass):
            raise ValueError("masses do not sum to one")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be strictly increasing")

    def pmf(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.mass))

    def prob(self, value: int) -> Fraction:
        return self.pmf().get(value, Fraction(0))

    def survival(self, threshold) -> Fraction:
        """P(X > threshold); accepts non-integer thresholds."""
        return sum(
            (m for x, m in zip(self.support, self.mass) if x > threshold),
            Fraction(0),
        )

    def tail_geq(self, threshold) -> Fraction:
        """P(X >= threshold)."""
        return sum(
            (m for x, m in zip(self.support, self.mass) if x >= threshold),
            Fraction(0),
        )

    def mean(self) -> Fraction:
        return sum((Fraction(x) * m for x, m in zip(self.support, self.mass)),
                   Fraction(0))

    def to_json(self) -> str:
        return json.dumps({
            "support": list(self.support),
            "num": [m.numerator for m in self.mass],
            "den": [m.denominator for m in self.mass],
        })

    @classmethod
    def from_json(cls, text: str) -> "ExactDistribution":
        """Read the object `to_json` writes: "support", "num" and "den"
        lists of equal length, integer entries, every den >= 1.  Anything
        else raises ValueError."""
        raw = json.loads(text)
        keys = ("support", "num", "den")
        if not (isinstance(raw, dict)
                and all(isinstance(raw.get(k), list) for k in keys)):
            raise ValueError('expected an object of "support", "num" and '
                             '"den" lists')
        support, num, den = (raw[k] for k in keys)
        if not len(support) == len(num) == len(den):
            raise ValueError("support, num and den lengths differ")
        if not all(type(v) is int for v in support + num + den):
            raise ValueError("support, num and den must be integers")
        if not all(q >= 1 for q in den):
            raise ValueError("every den must be >= 1")
        return cls(tuple(support), tuple(map(Fraction, num, den)))

    @classmethod
    def from_pmf(cls, pmf: Mapping[int, Fraction]) -> "ExactDistribution":
        # an inexact zero is kept, so that the constructor refuses it
        items = sorted((x, m) for x, m in pmf.items()
                       if m or not _is_exact_type(type(m)))
        return cls(tuple(x for x, _ in items), tuple(m for _, m in items))


def _is_exact_type(kind: type) -> bool:
    return issubclass(kind, (int, Fraction)) and kind is not bool


def _sums_to_one(mass: Sequence[Fraction]) -> bool:
    """sum(mass) == 1 in integers: (numerator, denominator) pairs are
    joined pairwise over the lcm of their denominators, one gcd a pair, and
    nothing is reduced before the final compare."""
    pairs = [(m.numerator, m.denominator) for m in mass]
    while len(pairs) > 1:
        joined = []
        for (a, b), (c, d) in zip(pairs[::2], pairs[1::2]):
            g = math.gcd(b, d)
            joined.append((a * (d // g) + c * (b // g), b // g * d))
        pairs = joined + pairs[len(pairs) & ~1:]
    return len(pairs) == 1 and pairs[0][0] == pairs[0][1]


def multinomial(total: int, parts: Sequence[int]) -> int:
    """total! / prod(part!) with a consistency check on the part sum."""
    if sum(parts) != total:
        raise ValueError(f"parts sum to {sum(parts)}, expected {total}")
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def count_forests(stats: DegreeStatistics) -> int:
    """Number of forests of `stats.a` plane trees with the given statistics:
    a / n of `count_marked_first_tree`."""
    q, r = divmod(stats.a * count_marked_first_tree(stats), stats.n)
    if r:
        raise InvalidStatistics(f"count formula not integral for {stats.counts}")
    return q


def count_marked_first_tree(stats: DegreeStatistics) -> int:
    """Forests as above with a marked node in the first tree: the plain
    multinomial coefficient of the degree counts."""
    return multinomial(stats.n, [k for _, k in stats.sorted_items()])


def usage_vector(stats: DegreeStatistics, degrees: Sequence[int]) -> Counter:
    """How many times each degree value appears in a spine prefix; raises
    UsageExceeded when a value appears more often than `stats` allows."""
    usage = Counter(int(d) for d in degrees)
    for c, used in usage.items():
        if used > stats.count(c):
            raise UsageExceeded(
                f"degree {c} used {used} times, statistics allow {stats.count(c)}"
            )
    return usage


def count_spine_class(stats: DegreeStatistics, degrees: Sequence[int]) -> int:
    """Marked forests whose root-to-mark path starts with the given degrees:
    `spine_probability` times the n * `count_forests` = a n! / prod n(c)!
    marked forests (marked trees when a = 1).

    The mark must sit at depth >= len(degrees) in its own tree; entry j of
    `degrees` is the out-degree of the depth-j node on the path.
    """
    count = spine_probability(stats, degrees) * stats.n * count_forests(stats)
    assert count.denominator == 1, "spine class count is not an integer"
    return count.numerator


def spine_probability(stats: DegreeStatistics, degrees: Sequence[int]) -> Fraction:
    """P(mark depth >= k and the spine degrees equal `degrees`) for a uniform
    marked forest (a tree when a = 1), as an exact rational; the depth and
    the spine are the mark's within its own tree.

    Closed form: prod_i d_i * prod_c perm(n(c), w(c)) / perm(n, k).
    """
    usage = usage_vector(stats, degrees)
    k = len(degrees)
    num = math.prod(degrees)
    for c, used in usage.items():
        num *= math.perm(stats.count(c), used)
    return Fraction(num, math.perm(stats.n, k))


def enumerate_degree_statistics(max_nodes: int) -> Iterator[DegreeStatistics]:
    """All single-tree degree statistics with at most max_nodes nodes, in
    increasing node count, each size as `_statistics_of_size` lists it."""
    for n in range(1, max_nodes + 1):
        yield from _statistics_of_size(n)


def _statistics_of_size(n: int) -> Iterator[DegreeStatistics]:
    """All single-tree degree statistics with exactly n nodes.

    Internal degrees of an n-node tree form a partition of n - 1 into parts
    >= 1; leaves fill the remainder.  Yielded in lexicographic partition
    order.
    """
    for partition in _partitions(n - 1):
        counts = Counter(partition)
        counts[0] = n - len(partition)
        if counts[0] >= 1:
            yield DegreeStatistics(counts)


def _partitions(total: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for part in range(smallest, total + 1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def word_table(n: int, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every preorder degree word of an n-node plane tree that uses degree c
    at most counts[c] times, as the rows of an R x n table in lexicographic
    order, with the R x len(counts) counts each row left unused.

    One position at a time, every prefix grows by each degree it has left
    whose step keeps the Lukasiewicz path x at 0 or above and low enough to
    come down: with `left` positions still to fill, each lowering x by at
    most one, x must stay below `left`, so the last step lands on -1.
    `np.nonzero` lists the grown rows parent by parent, degree by degree,
    which keeps them in lexicographic order."""
    degrees = np.arange(len(counts))
    words = np.zeros((1, 0), dtype=np.int64)
    unused = np.array([counts], dtype=np.int64)
    x = np.zeros(1, dtype=np.int64)
    for left in range(n - 1, -1, -1):
        step = x[:, None] + degrees - 1
        row, c = np.nonzero((unused > 0) & (step < left)
                            & (step >= (0 if left else -1)))
        words = np.column_stack([words[row], c])
        unused = unused[row]
        unused[np.arange(row.size), c] -= 1
        x = step[row, c]
    return words, unused


def enumerate_trees(stats: DegreeStatistics) -> Iterator[PlaneTree]:
    """All plane trees with the given degree statistics, in lexicographic
    order of their degree words: the rows of `word_table`.  Raises
    TooLarge above the node cap."""
    if stats.a != 1:
        raise InvalidStatistics("no forest enumerator: single trees only")
    if stats.n > ENUMERATION_CAP:
        raise TooLarge(f"{stats.n} nodes exceeds enumeration cap {ENUMERATION_CAP}")
    counts = [stats.count(c) for c in range(stats.max_degree + 1)]
    for word in word_table(stats.n, counts)[0].tolist():
        yield PlaneTree(tuple(word))


def enumerate_trees_of_size(n: int) -> Iterator[PlaneTree]:
    """All plane trees on exactly n nodes (every degree statistics)."""
    if n > ENUMERATION_CAP:
        raise TooLarge(f"{n} nodes exceeds enumeration cap {ENUMERATION_CAP}")
    for stats in _statistics_of_size(n):
        yield from enumerate_trees(stats)


def exact_mark_height_distribution(stats: DegreeStatistics) -> ExactDistribution:
    """Law of the depth of a uniform mark in a uniform tree, by enumerating
    every (tree, node) pair: one `depth_table` call over their words."""
    depths = depth_table([t.luka for t in enumerate_trees(stats)])
    counts = np.bincount(depths.ravel()).tolist()
    return ExactDistribution.from_pmf(
        {d: Fraction(c, depths.size) for d, c in enumerate(counts)})


def _degree_polynomial(stats: DegreeStatistics) -> list[int]:
    """Coefficients q of prod_{c>=1} (1 + c z)^{n(c)} as exact integers, by
    the node-by-node rule of the module docstring."""
    classes = sorted(((k, c) for c, k in stats.sorted_items() if c),
                     reverse=True)
    if not classes:
        return [1]
    (k0, c0), *rest = classes
    q = [1]
    for j in range(k0):
        q.append(q[-1] * (k0 - j) * c0 // (j + 1))
    for c in (c for k, c in rest for _ in range(k)):
        q = [a + c * b for a, b in zip(q + [0], [0] + q)]
    return q


def _stopping_survivals(stats: DegreeStatistics) -> np.ndarray:
    """P(sigma > j) = s_j = q_j / C(n - 1, j) for j <= #internal, in floats,
    by the node-by-node rule that builds q: a node of degree c maps q_j to
    q_j + c q_{j-1}, so s_j to s_j + c w_j s_{j-1}, w_j = j / (n - j).  The
    largest class (c0, K0) starts s as one cumprod of c0 (K0 - j) /
    (n - 1 - j); each other node adds one step."""
    (k0, c0), *rest = sorted(((k, c) for c, k in stats.sorted_items() if c),
                             reverse=True)
    j = np.arange(k0 + sum(k for k, _ in rest) + 1.0)
    s = np.cumprod(np.r_[1.0, c0 * np.maximum(k0 - j[:-1], 0)
                         / (stats.n - 1 - j[:-1])])
    w = j / (stats.n - j)
    for reach, c in enumerate((c for k, c in rest for _ in range(k)), k0 + 1):
        s[1:reach + 1] += c * w[1:reach + 1] * s[:reach]
    return s


def repeat_time_tails(stats: DegreeStatistics) -> Iterator[tuple[float, float, float]]:
    """(t, lo, hi) for k = 0, 1, 2, ...: a float t of P(tau > k) in an
    interval certified to hold it.  tau > k exactly when sigma > N_k, the
    distinct slots hit by k arrivals on n - 1 slots, whose law runs
    O_{k+1}(j) = (j O_k(j) + (n - j) O_k(j - 1)) / (n - 1) from O_0 =
    delta_0, cut at j = P = #internal where P(sigma > j) ends.  As
    P(N_k = j) = C(n - 1, j) j! S(k, j) / (n - 1)^k, t = O_k . P(sigma > .)
    is the exact sum_j q_j j! S(k, j) / (n - 1)^k term by term, S the
    Stirling numbers of the second kind.  All terms are positive and pass at
    most 4P + 3k + P + 1 roundings (survivals, occupancy, dot), so t is
    within a relative delta_k = 2 (5P + 4k + 4) 2^-53 and hi = min(1,
    t (1 + delta_k)).  Below TAU_FLOOR subnormals break that: lo = 0 and hi
    keeps its last value (the tail never rises)."""
    if stats.a != 1 or stats.n < 2:
        raise InvalidStatistics("repeat time needs n >= 2; no forest tau law")
    s = _stopping_survivals(stats)
    top, j = len(s) - 1, np.arange(len(s), dtype=float)
    occ = np.zeros(top + 2)  # occ[1 + j] = P(N_k = j); occ[0] = 0 pads j = -1
    occ[1] = hi = 1.0
    for k in itertools.count():
        t, lo = float(occ[1:k + 2] @ s[:k + 1]), 0.0  # N_k <= k
        if t >= TAU_FLOOR:
            delta = 2 * (5 * top + 4 * k + 4) * 2.0 ** -53
            lo, hi = t * (1 - delta), min(1.0, t * (1 + delta))
        yield t, lo, hi
        g = min(k + 2, top + 1)  # N_{k+1} <= k + 1
        occ[1:g + 1] = (j[:g] * occ[1:g + 1]
                        + (stats.n - j[:g]) * occ[:g]) / (stats.n - 1)


def _index_law(stats: DegreeStatistics, last: int) -> dict[int, Fraction]:
    """Law of the size-biased walk's first accepted index over `last`
    candidates as {index: mass}: P(index > k) = s_k = q_k / C(last, k), so
    index k + 1 takes s_k - s_{k+1} as in the module docstring with
    m = last, C(last, k) updated in place, and the never-accepted mass
    s_last = q_last sits at last + 1."""
    q = _degree_polynomial(stats)
    q += [0] * (last + 2 - len(q))
    pmf = {last + 1: Fraction(q[last])}
    binom = 1
    for k in range(last):
        num = q[k] * (last - k) - q[k + 1] * (k + 1)
        if num:
            pmf[k + 1] = Fraction(num, binom * (last - k))
        binom = binom * (last - k) // (k + 1)
    return pmf


def exact_threshold_sampler_distribution(stats: DegreeStatistics) -> ExactDistribution:
    """Law of the accept-threshold sampler's mark height, tree or forest:
    the index law over n candidates, shifted down by one.  The degree
    polynomial stops below z^n, so no mass is left at n + 1."""
    return ExactDistribution.from_pmf(
        {i - 1: m for i, m in _index_law(stats, stats.n).items()})


def exact_stopping_index_distribution(stats: DegreeStatistics) -> ExactDistribution:
    """Law of the strict-threshold stopping index: the index law over
    n - 1 candidates.

    The per-step survival factor (n - 1 - sum of drawn degrees) cancels the
    size-biasing denominator, which is what makes the closed form exact.
    When no threshold ever fires the index is reported as n (path
    statistics), with mass q_{n-1} / C(n - 1, n - 1) = q_{n-1}.
    """
    if stats.a != 1:
        raise InvalidStatistics("no forest law of sigma is stated (a != 1)")
    return ExactDistribution.from_pmf(_index_law(stats, stats.n - 1))
