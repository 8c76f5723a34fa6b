"""Plane trees, their degree statistics, and marked variants.

A plane tree on n nodes is stored as its preorder degree word
(d_1, ..., d_n): node i has d_i children.  A word is a valid tree iff every
proper prefix of (d_i - 1) sums to >= 0 and the full sum is -1.  Node
identity throughout the package is the preorder position, 0-based.

Degree statistics are the sparse map c -> n(c) counting nodes of each
out-degree, together with the number of trees a in the forest they describe;
a is pinned by the identity sum(n(c)) = a + sum(c * n(c)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidStatistics, InvalidWord, KTooLarge, OutOfRange


class Norms(NamedTuple):
    """Power sums of the degree multiset.

    p1   = sum(c * n(c))      (edge count of the forest)
    p2sq = sum(c^2 * n(c))
    n1   = n(1)               (number of degree-one nodes)
    """

    p1: int
    p2sq: int
    n1: int


def _is_integer(v) -> bool:
    """A Python or numpy integer that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class DegreeStatistics:
    """Sparse degree counts c -> n(c) for a forest of `trees` plane trees.

    Counts with value zero are dropped.  The tree count `trees` is derived
    from the counts and stored, never passed.
    """

    counts: Mapping[int, int]
    trees: int = field(init=False)

    def __post_init__(self):
        cleaned = {}
        for c, k in self.counts.items():
            if not _is_integer(c):
                raise InvalidStatistics(f"degree {c!r} is not an integer")
            if not _is_integer(k):
                raise InvalidStatistics(f"degree count {k!r} is not an integer")
            c, k = int(c), int(k)
            if c < 0 or k < 0:
                raise InvalidStatistics(f"negative degree or count: ({c}, {k})")
            if k > 0:
                cleaned[c] = k
        if not cleaned:
            raise InvalidStatistics("empty degree statistics")
        derived = sum(cleaned.values()) - sum(c * k for c, k in cleaned.items())
        if derived < 1:
            raise InvalidStatistics(
                f"counts {cleaned} give tree count {derived}, need >= 1"
            )
        object.__setattr__(self, "counts", cleaned)
        object.__setattr__(self, "trees", derived)

    @property
    def n(self) -> int:
        """Total number of nodes."""
        return sum(self.counts.values())

    @property
    def a(self) -> int:
        """Number of trees in the forest (alias for `trees`)."""
        return self.trees

    def count(self, degree: int) -> int:
        return self.counts.get(degree, 0)

    @property
    def max_degree(self) -> int:
        return max(self.counts)

    def norms(self) -> Norms:
        p1 = sum(c * k for c, k in self.counts.items())
        p2sq = sum(c * c * k for c, k in self.counts.items())
        return Norms(p1, p2sq, self.counts.get(1, 0))

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    def to_json(self) -> str:
        return json.dumps({str(c): k for c, k in self.sorted_items()})

    @classmethod
    def from_json(cls, text: str) -> "DegreeStatistics":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise InvalidStatistics("expected a JSON object of degree -> count")
        return cls({int(c): k for c, k in raw.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DegreeStatistics):
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self) -> int:
        return hash(tuple(self.sorted_items()))


def _word_error(words: np.ndarray) -> tuple[int, str] | None:
    """The first row of an R x n degree array that is not a valid word, and
    what is wrong with it, or None when every row is valid."""
    n = words.shape[1]
    if not n:
        return 0, "empty degree word"
    # no prefix can drop below zero after a degree >= n, so capping degrees
    # at n moves no error and keeps the int64 prefix sums from wrapping
    walk = np.cumsum(np.minimum(words, n) - 1, axis=1)
    neg = words < 0
    drop = walk[:, :-1] < 0
    bad = np.flatnonzero(neg.any(axis=1) | drop.any(axis=1)
                         | (walk[:, -1] != -1))
    if not bad.size:
        return None
    r = int(bad[0])
    neg, drop = np.flatnonzero(neg[r]), np.flatnonzero(drop[r])
    # the first offending position wins; at a tie the negative degree does
    if neg.size and (not drop.size or neg[0] <= drop[0]):
        i = int(neg[0])
        return r, f"negative degree {words[r, i]} at position {i}"
    if drop.size:
        return r, f"prefix sum drops below zero at position {int(drop[0])}"
    return r, (f"degree word sums to {sum(words[r].tolist())}, "
               f"expected {n - 1} edges")


def validate_words(words: np.ndarray) -> None:
    """Check an R x n int64 stack of degree words in one pass; InvalidWord
    names the first invalid row and what `build_tree` would say of it."""
    error = _word_error(words)
    if error is not None:
        raise InvalidWord(f"row {error[0]}: {error[1]}")


def _validate_word(word: Iterable[int]) -> tuple[int, ...]:
    """The checked word as a tuple: the one-row call of `validate_words`'s
    rule.  An int64 array is checked as it is."""
    if not (isinstance(word, np.ndarray) and word.dtype == np.int64
            and word.ndim == 1):
        word = tuple(map(int, word))
    try:
        d = np.asarray(word, dtype=np.int64)
    except OverflowError:  # a degree past int64: keep exact Python ints
        d = np.array(word, dtype=object)
    error = _word_error(d.reshape(1, -1))
    if error is not None:
        raise InvalidWord(error[1])
    return tuple(d.tolist())


def depth_table(words: Sequence[Sequence[int]]) -> np.ndarray:
    """The R x n depths of R trees on n nodes from their R x n preorder
    degree words.  The Lukasiewicz path x_0 = 0, x_(i+1) = x_i + d_i - 1
    steps down by at most one, so node i's subtree ends at e(i), the first
    k > i with x_k = x_i - 1 (Le Gall, Probab. Surveys 2, 2005), and
    depth(i) = i - #{j : e(j) <= i}.  In one sort of targets (row, x_k, k)
    and queries (row, x_i - 1, i), the queries just before a target are
    the subtrees ending there."""
    words = np.asarray(words, dtype=np.int64)
    rows, n = words.shape
    w = n + 1
    dt = np.int32 if 2 * rows * w * w < 2 ** 31 else np.int64
    x = np.zeros((rows, w), dtype=dt)
    np.cumsum(words - 1, axis=1, out=x[:, 1:])
    # levels run from -1 to n - 1, keys from 0 to rows * w * w - 1
    key = ((np.arange(rows, dtype=dt)[:, None] * w + x + 1) * w
           + np.arange(w, dtype=dt))
    merged = np.sort(np.concatenate([2 * key.ravel() + 1,
                                     2 * (key[:, :n].ravel() - w)]))
    target = np.flatnonzero(merged & 1)
    k = merged[target] >> 1
    ends = np.zeros(rows * w, dtype=np.int64)
    ends[k // (w * w) * w + k % w] = target - np.append(-1, target[:-1]) - 1
    return np.arange(n) - np.cumsum(ends.reshape(rows, w), axis=1)[:, :n]


@dataclass(frozen=True)
class PlaneTree:
    """Immutable plane tree; `luka` is the preorder degree word."""

    luka: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.luka)

    @cached_property
    def parents(self) -> tuple[int, ...]:
        """Parent per node (root -1): the last earlier node a level up."""
        key = np.array(self.depths) * self.n + np.arange(self.n)
        srt = np.sort(key)
        up = srt[np.searchsorted(srt, key[1:] - self.n) - 1] % self.n
        return (-1, *up.tolist())

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Depth per node: the one-row call of `depth_table`."""
        return tuple(depth_table([self.luka])[0].tolist())

    @property
    def height(self) -> int:
        return max(self.depths)

    @cached_property
    def width_profile(self) -> tuple[int, ...]:
        """Number of nodes at each depth, from the root down."""
        return tuple(np.bincount(self.depths).tolist())

    @property
    def width(self) -> int:
        return max(self.width_profile)

    def degree_statistics(self) -> DegreeStatistics:
        counts = np.bincount(self.luka)
        c = np.flatnonzero(counts)
        return DegreeStatistics(dict(zip(c.tolist(), counts[c].tolist())))

    def to_line(self) -> str:
        return " ".join(str(d) for d in self.luka)

    @classmethod
    def from_line(cls, line: str) -> "PlaneTree":
        return build_tree(int(tok) for tok in line.split())


def build_tree(word: Iterable[int]) -> PlaneTree:
    """Validate a degree word and wrap it as a PlaneTree.

    Raises InvalidWord if a proper prefix of (d_i - 1) sums below zero or the
    total is not -1.
    """
    return PlaneTree(_validate_word(word))


@dataclass(frozen=True)
class MarkedTree:
    """A plane tree with one distinguished node (preorder index, 0-based)."""

    tree: PlaneTree
    mark: int

    def __post_init__(self):
        if not 0 <= self.mark < self.tree.n:
            raise InvalidWord(
                f"mark {self.mark} outside node range 0..{self.tree.n - 1}"
            )

    @property
    def mark_depth(self) -> int:
        return self.tree.depths[self.mark]

    def ancestry(self) -> tuple[int, ...]:
        """Nodes on the root-to-mark path, root first, mark last."""
        path = [self.mark]
        while path[-1] != 0:
            path.append(self.tree.parents[path[-1]])
        return tuple(reversed(path))

    def spinal_degrees(self, k: int) -> tuple[int, ...]:
        """Degrees of the first k strict ancestors on the root-to-mark path.

        Entry j is the degree of the depth-j node on the path, so all entries
        are >= 1.  Raises OutOfRange for k < 0 and KTooLarge when k exceeds
        the mark's depth.
        """
        if k < 0:
            raise OutOfRange(f"asked for {k} spinal degrees")
        if k > self.mark_depth:
            raise KTooLarge(
                f"asked for {k} spinal degrees, mark depth is {self.mark_depth}"
            )
        path = self.ancestry()
        return tuple(self.tree.luka[v] for v in path[:k])


def parse_trees(text: str) -> list[PlaneTree]:
    """Read the one-tree-per-line degree-word format, blank lines skipped."""
    return [PlaneTree.from_line(line) for line in text.splitlines()
            if line.strip()]
