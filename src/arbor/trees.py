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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidStatistics, InvalidWord, KTooLarge


class Norms(NamedTuple):
    """Power sums of the degree multiset.

    p1   = sum(c * n(c))      (edge count of the forest)
    p2sq = sum(c^2 * n(c))
    n1   = n(1)               (number of degree-one nodes)
    """

    p1: int
    p2sq: int
    n1: int


@dataclass(frozen=True)
class DegreeStatistics:
    """Sparse degree counts c -> n(c) for a forest of `trees` plane trees.

    Counts with value zero are dropped.  The tree count is derived from the
    counts; passing `trees` explicitly just asserts the expected value.
    """

    counts: Mapping[int, int]
    trees: int = field(default=-1)

    def __post_init__(self):
        cleaned = {}
        for c, k in self.counts.items():
            c = int(c)
            k = int(k)
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
        if self.trees not in (-1, derived):
            raise InvalidStatistics(
                f"counts {cleaned} give tree count {derived}, not {self.trees}"
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
        return cls({int(c): int(k) for c, k in raw.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DegreeStatistics):
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self) -> int:
        return hash(tuple(self.sorted_items()))


def _validate_word(word: Sequence[int]) -> tuple[int, ...]:
    word = tuple(map(int, word))
    n = len(word)
    if not n:
        raise InvalidWord("empty degree word")
    try:
        d = np.array(word, dtype=np.int64)
    except OverflowError:  # a degree past int64: keep exact Python ints
        d = np.array(word, dtype=object)
    # no prefix can drop below zero after a degree >= n, so capping degrees
    # at n moves no error and keeps the int64 prefix sums from wrapping
    walk = np.cumsum(np.minimum(d, n) - 1)
    neg = np.flatnonzero(d < 0)
    drop = np.flatnonzero(walk[:-1] < 0)
    # the first offending position wins; at a tie the negative degree does
    if neg.size and (not drop.size or neg[0] <= drop[0]):
        i = int(neg[0])
        raise InvalidWord(f"negative degree {word[i]} at position {i}")
    if drop.size:
        raise InvalidWord(
            f"prefix sum drops below zero at position {int(drop[0])}")
    if walk[-1] != -1:
        raise InvalidWord(f"degree word sums to {sum(word)}, "
                          f"expected {n - 1} edges")
    return word


@dataclass(frozen=True)
class PlaneTree:
    """Immutable plane tree; `luka` is the preorder degree word."""

    luka: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.luka)

    @cached_property
    def parents(self) -> tuple[int, ...]:
        """Parent preorder index per node; the root gets -1."""
        parent = [-1] * self.n
        stack = [0]
        remaining = [self.luka[0]]
        for i in range(1, self.n):
            while remaining[-1] == 0:
                stack.pop()
                remaining.pop()
            parent[i] = stack[-1]
            remaining[-1] -= 1
            stack.append(i)
            remaining.append(self.luka[i])
        return tuple(parent)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Depth per node in one preorder pass: the stack holds the
        children still owed by each open ancestor, so its height is the
        depth of the next node."""
        luka = self.luka
        depth = [0] * self.n
        remaining = [luka[0]]
        for i in range(1, self.n):
            while remaining[-1] == 0:
                remaining.pop()
            depth[i] = len(remaining)
            remaining[-1] -= 1
            remaining.append(luka[i])
        return tuple(depth)

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
        return DegreeStatistics(Counter(self.luka))

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
    return PlaneTree(_validate_word(tuple(word)))


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
        are >= 1.  Raises KTooLarge when k exceeds the mark's depth.
        """
        if k > self.mark_depth:
            raise KTooLarge(
                f"asked for {k} spinal degrees, mark depth is {self.mark_depth}"
            )
        path = self.ancestry()
        return tuple(self.tree.luka[v] for v in path[:k])


def parse_trees(text: str) -> list[PlaneTree]:
    """Read the one-tree-per-line degree-word format."""
    trees = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            trees.append(PlaneTree.from_line(line))
    return trees


def dump_trees(trees: Iterable[PlaneTree]) -> str:
    return "\n".join(t.to_line() for t in trees) + "\n"
