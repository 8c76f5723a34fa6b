"""Unit tests for plane trees, degree statistics, and marked trees."""

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arbor.errors import InvalidStatistics, InvalidWord, KTooLarge
from arbor.trees import (DegreeStatistics, MarkedTree, PlaneTree, build_tree,
                         dump_trees, parse_trees)

# Any multiset of positive internal degrees extends to exactly one
# single-tree degree statistics: n = sum(parts) + 1 nodes, leaves fill in.
internal_parts = st.lists(st.integers(1, 5), max_size=6)


def stats_from_parts(parts, extra_leaves: int = 0) -> DegreeStatistics:
    counts = Counter(parts)
    counts[0] = sum(parts) + 1 - len(parts) + extra_leaves
    return DegreeStatistics(counts)


@st.composite
def degree_words(draw):
    """A valid preorder degree word via the cycle lemma."""
    parts = draw(internal_parts)
    stats = stats_from_parts(parts)
    degrees = []
    for c, k in stats.sorted_items():
        degrees.extend([c] * k)
    arrangement = draw(st.permutations(degrees))
    walk = 0
    best, best_at = 1, 0
    for i, d in enumerate(arrangement):
        walk += d - 1
        if walk < best:
            best, best_at = walk, i
    rotated = tuple(arrangement[best_at + 1:]) + tuple(arrangement[:best_at + 1])
    return rotated


def reference_validate(word):
    """The word check as a loop: the first negative degree or proper prefix
    of (d_i - 1) below zero, else a total other than -1, is the error."""
    word = tuple(int(d) for d in word)
    if not word:
        raise InvalidWord("empty degree word")
    total = 0
    for i, d in enumerate(word):
        if d < 0:
            raise InvalidWord(f"negative degree {d} at position {i}")
        total += d - 1
        if total < 0 and i < len(word) - 1:
            raise InvalidWord(f"prefix sum drops below zero at position {i}")
    if total != -1:
        raise InvalidWord(f"degree word sums to {total + len(word)}, "
                          f"expected {len(word) - 1} edges")
    return word


class TestWordValidation:
    def test_single_leaf(self):
        assert build_tree([0]).n == 1

    def test_rejects_empty(self):
        with pytest.raises(InvalidWord):
            build_tree([])

    def test_rejects_negative_degree(self):
        with pytest.raises(InvalidWord):
            build_tree([2, -1, 0, 0])

    def test_rejects_early_termination(self):
        # prefix sum hits -1 before the last position
        with pytest.raises(InvalidWord):
            build_tree([0, 0])

    def test_rejects_wrong_total(self):
        with pytest.raises(InvalidWord):
            build_tree([2, 0])

    @given(st.lists(st.one_of(st.integers(-2, 4), st.integers(-2**70, 2**70)),
                    max_size=9))
    @example([2**62, 2**62, 2**62, 0])  # int64 prefix sums would wrap here
    def test_matches_the_loop_reference(self, word):
        """Same verdict and the same message, so the same first offending
        position, as a plain loop over Python ints."""
        try:
            want = reference_validate(word)
        except InvalidWord as exc:
            with pytest.raises(InvalidWord) as got:
                build_tree(word)
            assert str(got.value) == str(exc)
        else:
            assert build_tree(word).luka == want

    @given(degree_words())
    def test_cycle_lemma_rotation_is_valid(self, word):
        tree = build_tree(word)
        assert tree.luka == tuple(word)


class TestPlaneTreeGeometry:
    def test_hand_example(self):
        # root -> (chain of length 2, leaf)
        t = build_tree([2, 1, 0, 0])
        assert t.parents == (-1, 0, 1, 0)
        assert t.depths == (0, 1, 2, 1)
        assert t.height == 2
        assert t.width_profile == (1, 2, 1)
        assert t.width == 2

    def test_path(self):
        t = build_tree([1, 1, 1, 0])
        assert t.height == 3
        assert t.width == 1

    def test_star(self):
        t = build_tree([4, 0, 0, 0, 0])
        assert t.height == 1
        assert t.width == 4
        assert t.parents == (-1, 0, 0, 0, 0)

    @given(degree_words())
    def test_structural_invariants(self, word):
        t = build_tree(word)
        n = t.n
        assert sum(t.luka) == n - 1
        assert len(t.depths) == n and t.depths[0] == 0
        assert sum(t.width_profile) == n
        depth_counts = Counter(t.depths)
        assert t.width_profile == tuple(depth_counts[d]
                                        for d in range(t.height + 1))
        # each non-root node sits one level below its parent, which comes
        # earlier in preorder
        for i in range(1, n):
            p = t.parents[i]
            assert 0 <= p < i
            assert t.depths[i] == t.depths[p] + 1
        # parent out-degrees match the degree word
        child_counts = Counter(t.parents[1:])
        for i, d in enumerate(t.luka):
            assert child_counts.get(i, 0) == d

    @given(degree_words())
    def test_line_round_trip(self, word):
        t = build_tree(word)
        assert PlaneTree.from_line(t.to_line()).luka == t.luka

    def test_parse_dump_round_trip(self):
        trees = [build_tree([0]), build_tree([2, 0, 0]), build_tree([1, 0])]
        assert parse_trees(dump_trees(trees)) == trees

    def test_parse_skips_blank_lines(self):
        assert len(parse_trees("0\n\n  \n1 0\n")) == 2


class TestDegreeStatistics:
    def test_tree_count_is_derived(self):
        s = DegreeStatistics({0: 2, 1: 1, 2: 1})
        assert s.n == 4
        assert s.a == 1
        assert s.trees == 1

    def test_forest_count(self):
        assert DegreeStatistics({0: 3, 2: 1}).a == 2

    def test_explicit_count_must_match(self):
        DegreeStatistics({0: 2, 2: 1}, trees=1)
        with pytest.raises(InvalidStatistics):
            DegreeStatistics({0: 2, 2: 1}, trees=2)

    def test_zero_counts_dropped(self):
        s = DegreeStatistics({0: 1, 3: 0})
        assert s.counts == {0: 1}
        assert s.count(3) == 0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(InvalidStatistics):
            DegreeStatistics({})
        with pytest.raises(InvalidStatistics):
            DegreeStatistics({0: -1})
        with pytest.raises(InvalidStatistics):
            DegreeStatistics({-2: 1, 0: 3})

    def test_rejects_nonpositive_tree_count(self):
        # two edges, two nodes: sums to zero trees
        with pytest.raises(InvalidStatistics):
            DegreeStatistics({0: 1, 2: 1})

    def test_norms(self):
        s = DegreeStatistics({0: 5, 1: 1, 2: 2, 3: 1})
        assert s.norms() == (1 + 4 + 3, 1 + 8 + 9, 1)
        assert s.max_degree == 3

    @given(internal_parts, st.integers(0, 3))
    def test_leaves_cover_tree_count(self, parts, extra):
        s = stats_from_parts(parts, extra)
        assert s.a == 1 + extra
        assert s.count(0) >= s.a
        assert s.n == sum(c * k for c, k in s.counts.items()) + s.a

    @given(internal_parts)
    def test_json_round_trip(self, parts):
        s = stats_from_parts(parts)
        assert DegreeStatistics.from_json(s.to_json()) == s

    def test_from_json_rejects_non_object(self):
        with pytest.raises(InvalidStatistics):
            DegreeStatistics.from_json("[1, 2]")

    def test_equality_and_hash(self):
        a = DegreeStatistics({0: 2, 2: 1})
        b = DegreeStatistics({2: 1, 0: 2})
        assert a == b and hash(a) == hash(b)
        assert a != DegreeStatistics({0: 2, 1: 1})

    @given(degree_words())
    def test_tree_statistics_round_trip(self, word):
        t = build_tree(word)
        s = t.degree_statistics()
        assert s.n == t.n and s.a == 1


class TestMarkedTree:
    def test_mark_range_checked(self):
        t = build_tree([1, 0])
        with pytest.raises(InvalidWord):
            MarkedTree(t, 2)
        with pytest.raises(InvalidWord):
            MarkedTree(t, -1)

    def test_ancestry_root_first(self):
        t = build_tree([2, 1, 0, 0])
        assert MarkedTree(t, 2).ancestry() == (0, 1, 2)
        assert MarkedTree(t, 0).ancestry() == (0,)
        assert MarkedTree(t, 3).ancestry() == (0, 3)

    def test_spinal_degrees(self):
        t = build_tree([2, 1, 0, 0])
        mt = MarkedTree(t, 2)
        assert mt.mark_depth == 2
        assert mt.spinal_degrees(0) == ()
        assert mt.spinal_degrees(1) == (2,)
        assert mt.spinal_degrees(2) == (2, 1)
        with pytest.raises(KTooLarge):
            mt.spinal_degrees(3)

    @given(degree_words(), st.integers(0, 30))
    def test_spinal_degrees_are_positive(self, word, mark_raw):
        t = build_tree(word)
        mt = MarkedTree(t, mark_raw % t.n)
        for k in range(mt.mark_depth + 1):
            degs = mt.spinal_degrees(k)
            assert len(degs) == k
            assert all(d >= 1 for d in degs)
