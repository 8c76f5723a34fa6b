"""Unit tests for plane trees, degree statistics, and marked trees."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arbor.enumeration import enumerate_trees_of_size
from arbor.errors import InvalidStatistics, InvalidWord, KTooLarge, OutOfRange
from arbor.rng import RngStream
from arbor.samplers import OffspringDistribution, conditioned_sampler
from arbor.trees import (DegreeStatistics, MarkedTree, PlaneTree, build_tree,
                         depth_table, dump_trees, parse_trees, validate_words)

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


def reference_depths(word):
    """Depth per node in one preorder pass: the stack holds the children
    still owed by each open ancestor, so its height is the depth of the
    next node."""
    depth = [0] * len(word)
    remaining = [word[0]]
    for i in range(1, len(word)):
        while remaining[-1] == 0:
            remaining.pop()
        depth[i] = len(remaining)
        remaining[-1] -= 1
        remaining.append(word[i])
    return tuple(depth)


def reference_parents(word):
    """Parent per node in one preorder pass: the stack holds the open
    ancestors and the children each still owes."""
    parent = [-1] * len(word)
    stack, remaining = [0], [word[0]]
    for i in range(1, len(word)):
        while remaining[-1] == 0:
            stack.pop()
            remaining.pop()
        parent[i] = stack[-1]
        remaining[-1] -= 1
        stack.append(i)
        remaining.append(word[i])
    return tuple(parent)


SMALL_TREES = [t for n in range(1, 10) for t in enumerate_trees_of_size(n)]


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

    @given(st.lists(st.integers(-3, 5), max_size=9))
    def test_int64_array_is_checked_like_the_list(self, word):
        """The samplers hand over int64 arrays: same tuple, same error."""
        try:
            want = build_tree(word).luka
        except InvalidWord as exc:
            with pytest.raises(InvalidWord) as got:
                build_tree(np.array(word, dtype=np.int64))
            assert str(got.value) == str(exc)
        else:
            got = build_tree(np.array(word, dtype=np.int64)).luka
            assert got == want and all(type(d) is int for d in got)

    @given(degree_words())
    def test_cycle_lemma_rotation_is_valid(self, word):
        tree = build_tree(word)
        assert tree.luka == tuple(word)


class TestStackValidation:
    """`validate_words` checks an R x n stack in one pass and names the
    first row `build_tree` would refuse, with its message."""

    WORDS = [(2, 1, 0, 0), (1, 1, 1, 0), (3, 0, 0, 0), (1, 2, 0, 0)]

    def test_valid_rows_pass(self):
        validate_words(np.array(self.WORDS, dtype=np.int64))
        validate_words(np.zeros((3, 1), dtype=np.int64))

    def test_a_row_rotated_one_place_off_is_named(self):
        stack = np.array(self.WORDS, dtype=np.int64)
        stack[2] = np.roll(stack[2], 1)  # (0, 3, 0, 0)
        with pytest.raises(InvalidWord) as got:
            validate_words(stack)
        assert str(got.value) == ("row 2: prefix sum drops below zero at "
                                  "position 0")

    def test_a_row_summing_to_n_is_named(self):
        stack = np.array(self.WORDS, dtype=np.int64)
        stack[3, 0] += 1  # (2, 2, 0, 0): 4 edges on 4 nodes
        with pytest.raises(InvalidWord) as got:
            validate_words(stack)
        assert str(got.value) == ("row 3: degree word sums to 4, expected 3 "
                                  "edges")

    @given(st.lists(degree_words(), min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(0, 4),
                              st.sampled_from(["roll", "bump", "negate"])),
                    max_size=3))
    def test_names_the_first_row_build_tree_refuses(self, words, edits):
        n = max(len(w) for w in words)
        stack = np.array([w[:-1] + (1,) * (n - len(w)) + (0,) for w in words],
                         dtype=np.int64)
        for r, how in edits:
            row = stack[r % len(stack)]
            if how == "roll":
                row[:] = np.roll(row, 1)
            elif how == "bump":
                row[-1] += 1
            else:
                row[-1] = -1
        errors = []
        for r, row in enumerate(stack):
            try:
                build_tree(row)
            except InvalidWord as exc:
                errors.append(f"row {r}: {exc}")
        if errors:
            with pytest.raises(InvalidWord) as got:
                validate_words(stack)
            assert str(got.value) == errors[0]
        else:
            validate_words(stack)


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


class TestDepthTable:
    """`depth_table` against the per-node stack loop."""

    @staticmethod
    def check(words):
        table = depth_table(np.array(words, dtype=np.int64))
        assert table.shape == (len(words), len(words[0]))
        assert [tuple(row) for row in table.tolist()] == [
            reference_depths(w) for w in words]

    def test_every_tree_up_to_nine_nodes(self):
        for n in range(1, 10):
            self.check([t.luka for t in SMALL_TREES if t.n == n])
        assert all(t.depths == reference_depths(t.luka) for t in SMALL_TREES)

    def test_parents_match_the_stack_loop(self):
        for t in SMALL_TREES:
            assert t.parents == reference_parents(t.luka)

    # at n = 33,000 the sort keys pass 2^31 and are int64
    @pytest.mark.parametrize("n", [1, 2, 5, 300, 33_000])
    def test_path_and_star(self, n):
        self.check([[1] * (n - 1) + [0], [n - 1] + [0] * (n - 1)])
        assert build_tree([1] * (n - 1) + [0]).height == n - 1
        assert build_tree([n - 1] + [0] * (n - 1)).width == max(1, n - 1)

    def test_conditioned_trees_at_n3201(self):
        mu = OffspringDistribution.from_masses({0: 0.5, 2: 0.5})
        draw = conditioned_sampler(mu, 3201)
        base = RngStream(8, 0)
        self.check([draw(base.substream(r)).tolist() for r in range(20)])

    @given(st.lists(degree_words(), min_size=1, max_size=5))
    def test_stacked_batch_equals_its_rows(self, words):
        n = max(len(w) for w in words)
        # pad each word to n nodes with a path below its last leaf
        words = [w[:-1] + (1,) * (n - len(w)) + (0,) for w in words]
        batch = depth_table(np.array(words, dtype=np.int64))
        for row, w in zip(batch, words):
            assert np.array_equal(
                row, depth_table(np.array([w], dtype=np.int64))[0])


class TestDegreeStatistics:
    def test_tree_count_is_derived(self):
        s = DegreeStatistics({0: 2, 1: 1, 2: 1})
        assert s.n == 4
        assert s.a == 1
        assert s.trees == 1

    def test_forest_count(self):
        assert DegreeStatistics({0: 3, 2: 1}).a == 2

    def test_tree_count_is_derived_never_passed(self):
        with pytest.raises(TypeError):
            DegreeStatistics({0: 2, 2: 1}, trees=1)

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

    @pytest.mark.parametrize("counts", [
        {0: 8.9, 2: 7}, {0: 8.0, 2: 7}, {0: 8, 2: 7, 1: True},
        {0: 8, 2: 7, 1: np.True_}, {0: "8", 2: 7}, {0: 8, 2: None}],
        ids=["float", "whole-float", "bool", "numpy-bool", "str", "none"])
    def test_rejects_non_integer_counts(self, counts):
        # the constructor read int(k): 8.9 became 8 and True became 1
        with pytest.raises(InvalidStatistics):
            DegreeStatistics(counts)

    def test_numpy_integer_counts_are_plain_ints(self):
        s = DegreeStatistics({0: np.int64(8), 2: np.int32(7)})
        assert s.counts == {0: 8, 2: 7}
        assert all(type(k) is int for k in s.counts.values())

    @pytest.mark.parametrize("counts", [
        {0: 3, 2.7: 1}, {0: 3, 2.0: 1}, {0: 2, True: 3}, {0: 2, np.True_: 3},
        {0: 3, "2": 1}, {0: 3, 2: 1, 2.5: 1}],
        ids=["float", "whole-float", "bool", "numpy-bool", "str", "collapse"])
    def test_rejects_non_integer_degrees(self, counts):
        # the constructor read int(c): 2.7 became degree 2, True degree 1,
        # and 2.5 overwrote the count of degree 2
        with pytest.raises(InvalidStatistics):
            DegreeStatistics(counts)

    def test_numpy_integer_degrees_are_plain_ints(self):
        s = DegreeStatistics({np.int64(0): 3, np.int32(2): 1})
        assert s.counts == {0: 3, 2: 1}
        assert all(type(c) is int for c in s.counts)

    def test_from_json_reads_decimal_degree_strings(self):
        s = DegreeStatistics.from_json('{"0": 3, "2": 1}')
        assert s.counts == {0: 3, 2: 1}

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

    @pytest.mark.parametrize("text", ['{"0": 8.9, "2": 7}', '{"0": 8.0, "2": 7}',
                                      '{"0": 8, "1": true, "2": 7}',
                                      '{"0": "8", "2": 7}',
                                      '{"0": 8, "2": null}'])
    def test_from_json_rejects_non_integer_counts(self, text):
        # a float count was truncated and true read as 1
        with pytest.raises(InvalidStatistics):
            DegreeStatistics.from_json(text)

    def test_equality_and_hash(self):
        a = DegreeStatistics({0: 2, 2: 1})
        b = DegreeStatistics({2: 1, 0: 2})
        assert a == b and hash(a) == hash(b)
        assert a != DegreeStatistics({0: 2, 1: 1})

    def test_tree_statistics_count_every_degree(self):
        for t in SMALL_TREES:
            assert t.degree_statistics() == DegreeStatistics(Counter(t.luka))

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

    def test_spinal_degrees_refuse_negative_k(self):
        # a negative k must not slice the ancestry from its end
        mt = MarkedTree(build_tree([2, 1, 0, 0]), 2)
        for k in (-1, -2, -3):
            with pytest.raises(OutOfRange):
                mt.spinal_degrees(k)

    @given(degree_words(), st.integers(0, 30))
    def test_spinal_degrees_are_positive(self, word, mark_raw):
        t = build_tree(word)
        mt = MarkedTree(t, mark_raw % t.n)
        for k in range(mt.mark_depth + 1):
            degs = mt.spinal_degrees(k)
            assert len(degs) == k
            assert all(d >= 1 for d in degs)
