"""Unit tests for exact counting, enumeration, and closed-form laws.

The key cross-checks run three independent routes against each other:
brute-force tree enumeration, the binomial closed forms, and a direct
probabilistic recursion over the size-biased degree process that shares no
code with either.  Frozen copies of the earlier per-factor, falling-factorial
law code and of the survival-differencing code pin the closed forms bit for
bit at sizes enumeration cannot reach, and the node-by-node degree
polynomial must equal the frozen balanced product of per-class rows.  The
word-table enumerator must list the trees of the frozen recursive one, in
its order, and the integer law checks must refuse what the frozen `Fraction`
sum refused.
"""

import inspect
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbor import enumeration
from arbor.enumeration import (ENUMERATION_CAP, TAU_FLOOR, ExactDistribution,
                               _degree_polynomial, _index_law,
                               _stopping_survivals, _sums_to_one, count_forests,
                               count_marked_first_tree, count_spine_class,
                               enumerate_degree_statistics, enumerate_trees,
                               enumerate_trees_of_size,
                               exact_mark_height_distribution,
                               exact_stopping_index_distribution,
                               exact_threshold_sampler_distribution,
                               multinomial, repeat_time_tails,
                               spine_probability, word_table)
from arbor.errors import InvalidStatistics, TooLarge, UsageExceeded
from arbor.harness import full_binary_statistics, heavy_tailed_statistics
from arbor.trees import DegreeStatistics, MarkedTree, PlaneTree

from forest_reference import forest_classes, forest_words, marked_spines
from polynomial_reference import (pairwise_degree_polynomial, poly_mul,
                                  repeat_time_survivals)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def all_stats_upto(max_n):
    return list(enumerate_degree_statistics(max_n))


# ---------------------------------------------------------------------------
# independent oracle: direct recursion over the size-biased degree process
# ---------------------------------------------------------------------------

def _walk_threshold_process(stats, accept_prob, on_accept, final_value):
    """Run the size-biased degree walk with exact rational branching.

    accept_prob(i, s) gives the stopping probability at step i with prefix
    sum s; on_accept maps the stopping step to the recorded value.  Weight
    that survives every step lands on final_value.
    """
    n = stats.n
    out: Counter = Counter()

    def walk(i, s, rem, weight):
        if i > n or (final_value == n and i == n):
            out[final_value] += weight
            return
        p = accept_prob(i, s)
        p = Fraction(1) if p > 1 else p
        out[on_accept(i)] += weight * p
        rest = weight * (1 - p)
        if rest == 0:
            return
        total = sum(c * k for c, k in rem.items())
        if total == 0:
            walk(i + 1, s - 1, rem, rest)
            return
        for c, k in list(rem.items()):
            if k == 0:
                continue
            rem2 = dict(rem)
            rem2[c] -= 1
            walk(i + 1, s + c - 1, rem2, rest * Fraction(c * k, total))

    rem0 = {c: k for c, k in stats.sorted_items() if c > 0}
    walk(1, 0, rem0, Fraction(1))
    return ExactDistribution.from_pmf(out)


def mark_height_by_recursion(stats):
    n = stats.n
    return _walk_threshold_process(
        stats,
        accept_prob=lambda i, s: Fraction(1 + s, n + 1 - i),
        on_accept=lambda i: i - 1,
        final_value=n - 1,
    )


def stopping_index_by_recursion(stats):
    n = stats.n
    return _walk_threshold_process(
        stats,
        accept_prob=lambda i, s: Fraction(s, n - i),
        on_accept=lambda i: i,
        final_value=n,
    )


# ---------------------------------------------------------------------------
# frozen oracle: the per-linear-factor, falling-factorial law code that the
# binomial engine replaced; its output is the bit-identity reference
# ---------------------------------------------------------------------------

def _per_factor_polynomial(stats):
    poly = [1]
    for c, k in stats.sorted_items():
        if c == 0:
            continue
        for _ in range(k):
            nxt = [0] * (len(poly) + 1)
            for i, coef in enumerate(poly):
                nxt[i] += coef
                nxt[i + 1] += coef * c
            poly = nxt
    return poly


def _falling_survival(poly, m):
    return [Fraction(math.factorial(k) * (poly[k] if k < len(poly) else 0),
                     math.perm(m, k)) for k in range(m + 1)]


def threshold_law_by_falling(stats):
    n = stats.n
    survival = _falling_survival(_per_factor_polynomial(stats), n)
    pmf = {k: survival[k] - survival[k + 1] for k in range(n)}
    return ExactDistribution.from_pmf(pmf)


def stopping_law_by_falling(stats):
    n = stats.n
    survival = _falling_survival(_per_factor_polynomial(stats), n - 1)
    pmf = {k + 1: survival[k] - survival[k + 1] for k in range(n - 1)}
    pmf[n] = survival[n - 1]
    return ExactDistribution.from_pmf(pmf)


# ---------------------------------------------------------------------------
# frozen oracle: the survival-differencing law code that the one-fraction
# mass form replaced (a Fraction per survival term, then one per difference)
# ---------------------------------------------------------------------------

def _survival(poly, m):
    out = []
    binom = 1
    for k in range(m + 1):
        out.append(Fraction(poly[k] if k < len(poly) else 0, binom))
        binom = binom * (m - k) // (k + 1)
    return out


def threshold_law_by_survival(stats):
    n = stats.n
    survival = _survival(_degree_polynomial(stats), n)
    return ExactDistribution.from_pmf(
        {k: survival[k] - survival[k + 1] for k in range(n)})


def stopping_law_by_survival(stats):
    n = stats.n
    survival = _survival(_degree_polynomial(stats), n - 1)
    pmf = {k + 1: survival[k] - survival[k + 1] for k in range(n - 1)}
    pmf[n] = survival[n - 1]
    return ExactDistribution.from_pmf(pmf)


def _random_classes_with_ones(count, seed):
    """Single-tree statistics with 1..40 degree-1 nodes and up to four
    other internal degrees in 2..11 (11 to 504 nodes at seed 15)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        counts = {1: rng.randint(1, 40)}
        for c in rng.sample(range(2, 12), rng.randint(0, 4)):
            counts[c] = rng.randint(1, 20)
        counts[0] = 1 + sum((c - 1) * k for c, k in counts.items())
        out.append(DegreeStatistics(counts))
    return out


def frozen_recursive_trees(stats):
    """`enumerate_trees` as it was when one generator frame per position
    extended the word, kept verbatim as the reference for the word table."""
    n = stats.n
    remaining = dict(stats.sorted_items())
    word: list[int] = []

    def extend(prefix_sum):
        pos = len(word)
        if pos == n:
            yield PlaneTree(tuple(word))
            return
        for c in sorted(remaining):
            if remaining[c] == 0:
                continue
            s = prefix_sum + c - 1
            # proper prefixes must stay >= 0; the last entry must land on -1
            if pos < n - 1 and s < 0:
                continue
            if pos == n - 1 and s != -1:
                continue
            remaining[c] -= 1
            word.append(c)
            yield from extend(s)
            word.pop()
            remaining[c] += 1

    yield from extend(0)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

class TestCounting:
    def test_multinomial(self):
        assert multinomial(4, [2, 1, 1]) == 12
        with pytest.raises(ValueError):
            multinomial(4, [2, 1])

    def test_hand_counts(self):
        assert count_forests(DegreeStatistics({0: 2, 1: 1, 2: 1})) == 3
        assert count_forests(DegreeStatistics({0: 3, 2: 2})) == 2
        assert count_forests(DegreeStatistics({0: 1, 1: 4})) == 1
        # forest of two trees: a = 2
        assert count_forests(DegreeStatistics({0: 3, 2: 1})) == 2

    def test_counts_sum_to_catalan(self):
        for n in range(1, 8):
            total = sum(count_forests(s) for s in all_stats_upto(n)
                        if s.n == n)
            assert total == catalan(n - 1)

    def test_marked_first_tree_count(self):
        s = DegreeStatistics({0: 2, 1: 1, 2: 1})
        assert count_marked_first_tree(s) == multinomial(4, [2, 1, 1])

    def test_enumeration_matches_formula(self):
        for s in all_stats_upto(7):
            assert len(list(enumerate_trees(s))) == count_forests(s)

    def test_enumeration_is_sorted_and_distinct(self):
        words = [t.luka for t in
                 enumerate_trees(DegreeStatistics({0: 3, 1: 1, 3: 1}))]
        assert words == sorted(set(words))

    def test_enumeration_rejects_forests(self):
        with pytest.raises(InvalidStatistics, match="no forest enumerator"):
            list(enumerate_trees(DegreeStatistics({0: 2})))

    def test_enumeration_cap(self):
        big = DegreeStatistics({0: ENUMERATION_CAP // 2 + 1,
                                2: ENUMERATION_CAP // 2})
        with pytest.raises(TooLarge):
            list(enumerate_trees(big))

    def test_trees_of_size(self):
        assert len(list(enumerate_trees_of_size(5))) == catalan(4)

    def test_word_table_matches_the_frozen_recursion(self):
        """Tree for tree and in the same order, on every class up to the
        enumeration cap of 12 nodes."""
        assert inspect.isgeneratorfunction(enumerate_trees)
        classes = all_stats_upto(ENUMERATION_CAP)
        assert len(classes) == 1 + sum(len(list(enumeration._partitions(m)))
                                       for m in range(1, ENUMERATION_CAP))
        for stats in classes:
            assert list(enumerate_trees(stats)) \
                == list(frozen_recursive_trees(stats)), stats

    def test_word_table_with_every_degree_allowed(self):
        """All n-node words in lexicographic order, each row's unused
        counts leaving the degree counts it used."""
        for n in range(1, 10):
            words, unused = word_table(n, [n] * n)
            assert words.shape == (catalan(n - 1), n)
            rows = [tuple(w) for w in words.tolist()]
            assert rows == sorted(set(rows))
            assert rows == sorted(t.luka for t in enumerate_trees_of_size(n))
            used = n - unused
            assert all(np.bincount(w, minlength=n).tolist() == u
                       for w, u in zip(words, used.tolist()))

    def test_word_table_respects_the_counts(self):
        words, unused = word_table(4, [2, 1, 1])
        assert words.tolist() == [[1, 2, 0, 0], [2, 0, 1, 0], [2, 1, 0, 0]]
        assert unused.tolist() == [[0, 0, 0]] * 3
        words, unused = word_table(3, [3, 3, 3])
        assert words.tolist() == [[1, 1, 0], [2, 0, 0]]
        assert unused.tolist() == [[2, 1, 3], [1, 3, 2]]
        # four nodes cannot make five: no prefix grows to the end
        words, unused = word_table(5, [2, 1, 1])
        assert words.shape == (0, 5) and unused.shape == (0, 3)

    def test_statistics_of_one_size_are_the_filtered_list(self):
        """Each size is listed in one place; the frozen all-sizes listing,
        filtered to one size, gives the same classes in the same order."""
        def frozen(max_nodes):
            yield DegreeStatistics({0: 1})
            for n in range(2, max_nodes + 1):
                for partition in enumeration._partitions(n - 1):
                    counts = Counter(partition)
                    counts[0] = n - len(partition)
                    if counts[0] >= 1:
                        yield DegreeStatistics(counts)

        for n in range(1, 15):
            want = list(frozen(n))
            assert list(enumerate_degree_statistics(n)) == want
            assert list(enumeration._statistics_of_size(n)) \
                == [s for s in want if s.n == n]

    def test_statistics_enumeration_counts_partitions(self):
        # single-tree statistics on n nodes biject with partitions of n - 1
        per_n = Counter(s.n for s in all_stats_upto(9))
        assert per_n[9] == 22
        assert per_n[1] == 1


# ---------------------------------------------------------------------------
# spine classes
# ---------------------------------------------------------------------------

class TestSpineFormulas:
    @given(st.integers(0, 29), st.data())
    def test_probability_equals_count_ratio(self, pick, data):
        """The falling-factorial route and the multinomial route agree."""
        stats = all_stats_upto(7)[pick % 30]
        if stats.n < 2:
            return
        degrees = data.draw(st.lists(
            st.sampled_from(sorted(stats.counts)), min_size=0,
            max_size=min(4, stats.n - 1)))
        try:
            prob = spine_probability(stats, degrees)
            count = count_spine_class(stats, degrees)
        except UsageExceeded:
            return
        denom = stats.n * count_forests(stats)
        assert prob == Fraction(count, denom)

    def test_empty_prefix_has_probability_one(self):
        s = DegreeStatistics({0: 3, 2: 2})
        assert spine_probability(s, ()) == 1

    def test_prefix_with_leaf_degree_is_impossible(self):
        s = DegreeStatistics({0: 3, 2: 2})
        assert spine_probability(s, (2, 0)) == 0
        assert count_spine_class(s, (2, 0)) == 0

    def test_usage_beyond_counts_raises(self):
        s = DegreeStatistics({0: 3, 2: 2})
        with pytest.raises(UsageExceeded):
            spine_probability(s, (2, 2, 2))

    def test_forests_take_the_tree_formula(self):
        # two single nodes: two marked forests, every mark a root; {0: 3,
        # 2: 1} is a cherry and a single node in either order, eight marked
        # forests, four of them marked below the cherry's root
        pair = DegreeStatistics({0: 2})
        assert spine_probability(pair, ()) == 1
        assert count_spine_class(pair, ()) == 2
        cherry = DegreeStatistics({0: 3, 2: 1})
        assert spine_probability(cherry, (2,)) == Fraction(1, 2)
        assert count_spine_class(cherry, (2,)) == 4

    def test_grouped_enumeration_matches_closed_form(self):
        """Exhaustive check on one statistics: every spine class of every
        length up to 3, including total mass accounting."""
        stats = DegreeStatistics({0: 4, 1: 1, 2: 1, 3: 1})
        trees = list(enumerate_trees(stats))
        denom = stats.n * len(trees)
        for k in range(0, 4):
            seen: Counter = Counter()
            deep = 0
            for tree in trees:
                for mark in range(stats.n):
                    mt = MarkedTree(tree, mark)
                    if mt.mark_depth >= k:
                        deep += 1
                        seen[mt.spinal_degrees(k)] += 1
            mass = Fraction(0)
            for vec, cnt in seen.items():
                p = spine_probability(stats, vec)
                assert p == Fraction(cnt, denom)
                mass += p
            assert mass == Fraction(deep, denom)


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------

def positive_prefixes(stats):
    """Every sequence of positive degrees that `stats` has enough nodes of,
    the empty one first: every spine prefix of positive probability."""
    left = {c: k for c, k in stats.counts.items() if c}
    prefix = []

    def grow():
        yield tuple(prefix)
        for c in sorted(left):
            if left[c]:
                left[c] -= 1
                prefix.append(c)
                yield from grow()
                prefix.pop()
                left[c] += 1

    return list(grow())


FOREST_CLASSES = forest_classes(10)


class TestForestGate:
    """Every forest of a >= 2 trees on up to 10 nodes, enumerated by brute
    force (`forest_reference`): the counts, the mark-height law and every
    spine class.  A forest's mark sits in one of its trees, and its depth
    and spine are read in that tree."""

    def test_every_forest_class_of_up_to_ten_nodes(self):
        assert len(FOREST_CLASSES) == 187
        words = 0
        for stats in FOREST_CLASSES:
            forests = forest_words(stats)
            words += len(forests)
            assert len(forests) == count_forests(stats), stats.counts
            spines = Counter(spine for word in forests
                             for spine in marked_spines(word))
            marked = stats.n * len(forests)
            depths = Counter()
            for spine, k in spines.items():
                depths[len(spine)] += k
            law = exact_threshold_sampler_distribution(stats)
            assert law.pmf() == {h: Fraction(k, marked)
                                 for h, k in depths.items()}, stats.counts
            # a prefix's class: every marked forest whose spine starts so
            for prefix in positive_prefixes(stats):
                want = sum(k for spine, k in spines.items()
                           if spine[:len(prefix)] == prefix)
                assert count_spine_class(stats, prefix) == want, \
                    (stats.counts, prefix)
                assert spine_probability(stats, prefix) == \
                    Fraction(want, marked), (stats.counts, prefix)
        assert words == 16_795


class TestExactDistribution:
    def law(self):
        return ExactDistribution((0, 2, 5),
                                 (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactDistribution((0, 1), (Fraction(1),))
        with pytest.raises(ValueError):
            ExactDistribution((0,), (Fraction(1, 2),))
        with pytest.raises(ValueError):
            ExactDistribution((1, 0), (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            ExactDistribution((0, 1), (Fraction(3, 2), Fraction(-1, 2)))

    def test_queries(self):
        law = self.law()
        assert law.prob(2) == Fraction(1, 3)
        assert law.prob(1) == 0
        assert law.survival(2) == Fraction(1, 6)
        assert law.survival(1.5) == Fraction(1, 2)
        assert law.tail_geq(2) == Fraction(1, 2)
        assert law.mean() == Fraction(2, 3) + Fraction(5, 6)

    def test_json_round_trip(self):
        law = self.law()
        assert ExactDistribution.from_json(law.to_json()) == law

    def test_from_pmf_drops_zero_mass(self):
        law = ExactDistribution.from_pmf({3: Fraction(1), 7: Fraction(0)})
        assert law.support == (3,)
        law = ExactDistribution.from_pmf({3: 1, 5: 0, 7: Fraction(0, 5)})
        assert law.pmf() == {3: 1}
        assert law.to_json() == '{"support": [3], "num": [1], "den": [1]}'

    @staticmethod
    def random_masses(gen):
        """Positive fractions that sum to one, or miss it by a random
        fraction, by 2^-200 either way, or by one big-denominator term."""
        size = 1 if gen.random() < 0.125 else gen.randint(2, 40)
        den = gen.choice([6, 2 ** 64 + 13, math.comb(300, 150)])
        cuts = sorted(gen.randint(1, den - 1) for _ in range(size - 1))
        mass = [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
        mass = [m for m in mass if m] or [Fraction(1)]
        gen.shuffle(mass)
        kind = gen.randrange(5)
        i = gen.randrange(len(mass))
        if kind == 1:
            mass[i] += Fraction(1, 2 ** 200)
        elif kind == 2 and mass[i] > Fraction(1, 2 ** 200):
            mass[i] -= Fraction(1, 2 ** 200)
        elif kind == 3:
            mass[i] *= Fraction(gen.randint(1, 9), gen.randint(1, 9))
        elif kind == 4:
            mass.append(Fraction(gen.randint(1, 3), math.comb(500, 250)))
        return mass

    def test_integer_sum_check_matches_the_frozen_fraction_sum(self):
        """On 2,000 seeded lists, the pairwise integer sum and the
        constructor refuse exactly what `sum(mass, Fraction(0)) != 1`
        refused."""
        gen = random.Random(34)
        answers = Counter()
        for _ in range(2_000):
            mass = self.random_masses(gen)
            want = sum(mass, Fraction(0)) == 1
            assert _sums_to_one(mass) is want, mass
            support = tuple(range(len(mass)))
            if want:
                assert ExactDistribution(support, tuple(mass)).mass == \
                    tuple(mass)
            else:
                with pytest.raises(ValueError, match="do not sum to one"):
                    ExactDistribution(support, tuple(mass))
            answers[want, len(mass) == 1] += 1
        assert min(answers.values()) >= 50, answers
        for mass in ([Fraction(1)], [1], [Fraction(1, 2)], [Fraction(3, 2)],
                     [], [Fraction(1, 2 ** 200), 1 - Fraction(1, 2 ** 200)],
                     [Fraction(1, 2), Fraction(1, 2) - Fraction(1, 2 ** 200)],
                     [Fraction(3, 2), Fraction(-1, 2)]):
            assert _sums_to_one(mass) is (sum(mass, Fraction(0)) == 1), mass

    @pytest.mark.parametrize("mass", [
        (Fraction(1, 2), 0.5), (0.5, 0.5), (1.0, 0), (True, 0), (False, 1),
        (Fraction(1, 2), "1/2"), (Fraction(1, 2), None)])
    def test_inexact_masses_are_refused(self, mass):
        with pytest.raises(ValueError, match="ints or Fractions"):
            ExactDistribution((0, 1), mass)
        with pytest.raises(ValueError, match="ints or Fractions"):
            ExactDistribution.from_pmf(dict(enumerate(mass)))

    def test_an_inexact_zero_is_refused_not_dropped(self):
        with pytest.raises(ValueError, match="ints or Fractions"):
            ExactDistribution.from_pmf({0: Fraction(1), 1: 0.0})

    @pytest.mark.parametrize("num, den", [
        ([1, 1.0], [2, 2]), ([1, 1], [2, 2.0]), ([0.5], [1]), ([True], [1]),
        (["1"], [1])])
    def test_from_json_refuses_non_integer_fields(self, num, den):
        text = json.dumps({"support": list(range(len(num))), "num": num,
                           "den": den})
        with pytest.raises(ValueError, match="must be integers"):
            ExactDistribution.from_json(text)

    @pytest.mark.parametrize("raw", [
        # zip dropped the extra numerator and loaded {0: 1}
        {"support": [0], "num": [1, 5], "den": [1]},
        {"support": [0, 1], "num": [1], "den": [1]},
        # the support entry was truncated to 0
        {"support": [0.9], "num": [1], "den": [1]},
        {"support": [True], "num": [1], "den": [1]},
        # -1/-1 loaded as 1
        {"support": [0], "num": [-1], "den": [-1]},
        # ZeroDivisionError
        {"support": [0], "num": [1], "den": [0]},
        # TypeError
        [[0], [1], [1]], "law", 3,
        {"support": 0, "num": [1], "den": [1]},
        # KeyError
        {"support": [0], "num": [1]}])
    def test_from_json_refuses_malformed_laws(self, raw):
        with pytest.raises(ValueError):
            ExactDistribution.from_json(json.dumps(raw))


class TestHeightAndStoppingLaws:
    def test_worked_small_example(self):
        law = exact_mark_height_distribution(DegreeStatistics({0: 2, 1: 1, 2: 1}))
        assert law.pmf() == {0: Fraction(3, 12), 1: Fraction(5, 12),
                             2: Fraction(4, 12)}

    def test_uniform_depth_on_path(self):
        # a uniform mark on the path tree sits at each depth equally often
        s = DegreeStatistics({0: 1, 1: 5})
        law = exact_mark_height_distribution(s)
        assert law.pmf() == {d: Fraction(1, 6) for d in range(6)}
        closed = exact_threshold_sampler_distribution(s)
        assert closed == law

    def test_path_stopping_index_is_sentinel(self):
        s = DegreeStatistics({0: 1, 1: 5})
        law = exact_stopping_index_distribution(s)
        assert law.pmf() == {6: Fraction(1)}

    def test_three_routes_agree_exhaustively(self):
        """Enumeration, the coefficient formula, and the process recursion
        produce the same height law; the recursion also pins the stopping
        law.  Exhaustive for every single-tree statistics with <= 7 nodes."""
        for stats in all_stats_upto(7):
            closed = exact_threshold_sampler_distribution(stats)
            assert closed == exact_mark_height_distribution(stats)
            assert closed == mark_height_by_recursion(stats)
            sigma = exact_stopping_index_distribution(stats)
            assert sigma == stopping_index_by_recursion(stats)

    def test_stopping_index_dominates_mark_height(self):
        for stats in all_stats_upto(7):
            height = exact_threshold_sampler_distribution(stats)
            sigma = exact_stopping_index_distribution(stats)
            for k in range(stats.n + 1):
                # P(sigma > k) >= P(height + 1 > k)
                assert sigma.survival(k) >= height.survival(k - 1)

    def test_single_node_laws(self):
        s = DegreeStatistics({0: 1})
        assert exact_threshold_sampler_distribution(s).pmf() == {0: Fraction(1)}
        assert exact_mark_height_distribution(s).pmf() == {0: Fraction(1)}

    def test_mean_height_matches_depth_average(self):
        stats = DegreeStatistics({0: 4, 2: 3})
        trees = list(enumerate_trees(stats))
        total = sum(sum(t.depths) for t in trees)
        law = exact_threshold_sampler_distribution(stats)
        assert law.mean() == Fraction(total, len(trees) * stats.n)

    def test_bit_identical_to_falling_factorial_code(self):
        """Both laws serialise exactly as the frozen per-factor code does:
        every class with <= 9 nodes, the binary and heavy censuses at
        n = 127 and 255, the single node and a path."""
        battery = all_stats_upto(9) + [DegreeStatistics({0: 1}),
                                       DegreeStatistics({0: 1, 1: 40})]
        for n in (127, 255):
            battery += [full_binary_statistics(n), heavy_tailed_statistics(n)]
        for stats in battery:
            assert (exact_threshold_sampler_distribution(stats).to_json()
                    == threshold_law_by_falling(stats).to_json())
            assert (exact_stopping_index_distribution(stats).to_json()
                    == stopping_law_by_falling(stats).to_json())

    @pytest.mark.parametrize("battery", ["small", "censuses", "with-ones"])
    def test_bit_identical_to_survival_differencing_code(self, battery):
        """Both laws serialise exactly as the frozen survival-differencing
        code does: every class with <= 10 nodes, the binary and heavy
        censuses at n = 127..2,047, and 50 random classes with degree-1
        nodes."""
        if battery == "small":
            classes = all_stats_upto(10)
        elif battery == "censuses":
            classes = [make(n) for n in (127, 255, 511, 1023, 2047)
                       for make in (full_binary_statistics,
                                    heavy_tailed_statistics)]
        else:
            classes = _random_classes_with_ones(50, seed=15)
        for stats in classes:
            assert (exact_threshold_sampler_distribution(stats).to_json()
                    == threshold_law_by_survival(stats).to_json())
            assert (exact_stopping_index_distribution(stats).to_json()
                    == stopping_law_by_survival(stats).to_json())


class TestPolyMul:
    def test_products(self):
        assert poly_mul([1, 2], [3, 0, 4]) == [3, 6, 4, 8]
        assert poly_mul([Fraction(1, 2)], [2, 4]) == [1, 2]
        assert poly_mul([1, 0, 0, 5], [1, 1]) == [1, 1, 0, 5, 5]
        assert poly_mul([0, 0, 7], [1]) == [0, 0, 7]


class TestDegreePolynomial:
    """The node-by-node q equals the frozen balanced product of per-class
    binomial rows, integer for integer."""

    def test_every_small_class(self):
        classes = all_stats_upto(12)
        assert len(classes) == 195  # one per partition of n - 1, n <= 12
        for stats in classes:
            assert (_degree_polynomial(stats)
                    == pairwise_degree_polynomial(stats)), stats.counts

    @pytest.mark.parametrize("census", [full_binary_statistics,
                                        heavy_tailed_statistics])
    @pytest.mark.parametrize("n", [127, 255, 511, 1023, 2047, 4095])
    def test_censuses(self, census, n):
        stats = census(n)
        assert _degree_polynomial(stats) == pairwise_degree_polynomial(stats)

    def test_one_node_of_each_degree(self):
        counts = {c: 1 for c in range(2, 400)}
        counts[0] = 1 + sum(c - 1 for c in counts)
        stats = DegreeStatistics(counts)
        q = _degree_polynomial(stats)
        assert len(q) == 399 and q[-1] == math.prod(range(2, 400))
        assert q == pairwise_degree_polynomial(stats)

    def test_forest(self):
        stats = DegreeStatistics({0: 5, 2: 2})
        assert stats.a == 3
        assert _degree_polynomial(stats) == [1, 4, 4]
        assert pairwise_degree_polynomial(stats) == [1, 4, 4]

    def test_single_node(self):
        assert _degree_polynomial(DegreeStatistics({0: 1})) == [1]
        assert pairwise_degree_polynomial(DegreeStatistics({0: 1})) == [1]


def repeat_time_survival_by_brute_force(stats, k):
    """P(tau > k) from all (n - 1)^k slot sequences: node i owns d_i - 1
    left slots and one right slot, and a sequence fires on an arrival at a
    left slot of a node hit earlier."""
    slots = [(i, j > 0) for i, d in enumerate(
        c for c, m in stats.sorted_items() for _ in range(m)) for j in range(d)]
    quiet = 0
    for seq in itertools.product(slots, repeat=k):
        hit = set()
        for node, left in seq:
            if left and node in hit:
                break
            hit.add(node)
        else:
            quiet += 1
    return Fraction(quiet, len(slots) ** k)


def repeat_time_survival_by_shifted_product(stats, k):
    """P(tau > k) = sum_i r_i (i / (n - 1))^k with r(x) = prod_c
    (c x + 1 - c)^{n(c)}, i.e. r(x) = q(x - 1)."""
    r = [1]
    for c, m in stats.sorted_items():
        for _ in range(m if c else 0):
            r = poly_mul(r, [1 - c, c])
    return sum((Fraction(ri) * Fraction(i, stats.n - 1) ** k
                for i, ri in enumerate(r)), Fraction(0))


class TestRepeatTimeSurvivals:
    def test_matches_brute_force_on_every_small_class(self):
        classes = [s for s in all_stats_upto(6) if s.n >= 2]
        assert len(classes) == 18
        for stats in classes:
            got = list(itertools.islice(repeat_time_survivals(stats), 7))
            assert got == [repeat_time_survival_by_brute_force(stats, k)
                           for k in range(7)], stats.counts

    @pytest.mark.parametrize("census", [full_binary_statistics,
                                        heavy_tailed_statistics])
    def test_matches_shifted_product_form(self, census):
        stats = census(127)
        got = list(itertools.islice(repeat_time_survivals(stats), 81))
        assert got == [repeat_time_survival_by_shifted_product(stats, k)
                       for k in range(81)]

    def test_paths_never_repeat_and_tails_never_increase(self):
        path = DegreeStatistics({0: 1, 1: 6})
        assert all(p == 1 for p in
                   itertools.islice(repeat_time_survivals(path), 40))
        # binary n = 255 has 127 internal nodes: q regrows at k = 33 and 65
        tails = list(itertools.islice(
            repeat_time_survivals(full_binary_statistics(255)), 140))
        assert tails[:2] == [1, 1]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @pytest.mark.parametrize("stats", [DegreeStatistics({0: 2}),
                                       DegreeStatistics({0: 1})])
    def test_forests_and_single_nodes_are_refused(self, stats):
        with pytest.raises(InvalidStatistics):
            next(repeat_time_survivals(stats))
        with pytest.raises(InvalidStatistics, match="no forest tau law"):
            next(repeat_time_tails(stats))

    @pytest.mark.parametrize("census, n, steps", [
        (full_binary_statistics, 255, 141),  # q was regrown at k = 33, 65
        (full_binary_statistics, 127, 2001),
        (heavy_tailed_statistics, 127, 2001),
        (full_binary_statistics, 16_383, 401),
        (heavy_tailed_statistics, 4095, 301)])
    def test_matches_the_doubling_copy(self, census, n, steps):
        stats = census(n)
        assert (list(itertools.islice(repeat_time_survivals(stats), steps))
                == list(itertools.islice(doubling_survivals(stats), steps)))


def doubling_survivals(stats):
    """Frozen copy of the earlier `repeat_time_survivals`, which rebuilt q
    cut at degree top, each binomial row and pairwise product cut there,
    whenever k passed top, with top = min(#internal, max(32, 2 top))."""
    internal = stats.n - stats.count(0)
    top, weight, row, den = -1, [], [1], 1
    for k in itertools.count():
        if top < min(k, internal):
            top = min(internal, max(32, 2 * top))
            rows = []
            for c, m in stats.sorted_items():
                if c:
                    rows.append([math.comb(m, j) * c ** j
                                 for j in range(min(m, top) + 1)])
            while len(rows) > 1:
                rows = [poly_mul(*rows[i:i + 2])[:top + 1]
                        if i + 1 < len(rows) else rows[i]
                        for i in range(0, len(rows), 2)]
            weight = [q * math.factorial(j) for j, q in enumerate(rows[0])]
        yield Fraction(sum(w * s for w, s in zip(weight, row)), den)
        row = [0] + [j * s + t for j, s, t in
                     zip(range(1, internal + 1), row[1:] + [0], row)]
        den *= stats.n - 1


# ---------------------------------------------------------------------------
# certified float tails: P(sigma > j) and P(tau > k) against exact values
# ---------------------------------------------------------------------------

def survival_misses(survivals, stats):
    """Indices j where survivals(stats)[j], a float P(sigma > j), is off the
    exact tail of `_index_law(stats, n - 1)` by more than the relative
    2 (5P + 4) 2^-53 that `repeat_time_tails` allows at k = 0, P the number
    of internal nodes.  Exact values below TAU_FLOOR are not checked."""
    law = _index_law(stats, stats.n - 1)
    internal = stats.n - stats.count(0)
    got = survivals(stats)
    assert len(got) == internal + 1
    delta = Fraction(2 * (5 * internal + 4), 2 ** 53)
    exact = [Fraction(0)] * (stats.n + 1)  # exact[j] = P(sigma > j)
    for j in range(stats.n - 1, -1, -1):
        exact[j] = exact[j + 1] + law.get(j + 1, 0)
    return [j for j in range(internal + 1) if exact[j] >= TAU_FLOOR
            and not abs(Fraction(got[j]) - exact[j]) <= delta * exact[j]]


def tail_misses(tails, stats, exact):
    """Indices k < len(exact) where the exact P(tau > k) = exact[k] falls
    outside the certified [lo, hi] of tails(stats), or where t is off it by
    more than delta_k = 2 (5P + 4k + 4) 2^-53 relative above TAU_FLOOR."""
    internal = stats.n - stats.count(0)
    misses = []
    for k, (e, (t, lo, hi)) in enumerate(zip(exact, tails(stats))):
        delta = Fraction(2 * (5 * internal + 4 * k + 4), 2 ** 53)
        if not (lo <= e <= hi and hi <= 1) or (
                t >= TAU_FLOOR and abs(Fraction(t) - e) > delta * e):
            misses.append(k)
    return misses


def certified_at(tails, stats, bound, rows=100):
    """The least k < rows whose certified upper value is at or below
    `bound`, or rows if there is none."""
    return next((k for k, (_, _, hi) in enumerate(
        itertools.islice(tails(stats), rows)) if hi <= bound), rows)


def broken_copy(old, new):
    """`_stopping_survivals` and `repeat_time_tails` with the one source
    fragment `old` replaced by `new`, returned as that pair."""
    space = dict(vars(enumeration))
    found = 0
    for func in (_stopping_survivals, repeat_time_tails):
        source = inspect.getsource(func)
        found += source.count(old)
        exec(source.replace(old, new), space)
    assert found == 1, old
    return space["_stopping_survivals"], space["repeat_time_tails"]


MIXED = DegreeStatistics({0: 9, 1: 2, 2: 2, 3: 1, 5: 1})
TERNARY = DegreeStatistics({0: 11, 3: 5})


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP finding 1: the float class row of `_stopping_survivals` sticks "
    "at the smallest subnormal and later nodes amplify it; item 18's "
    "rescaled engine mends it"))
def test_stopping_survivals_on_many_high_degree_nodes():
    """Every P(sigma > j) of {0: 3,901, 2: 2,000, 20: 100} (n = 6,001) at or
    above TAU_FLOOR must lie within the relative 2 (5P + 4) 2^-53 that
    `repeat_time_tails` allows of the exact q_j / C(n - 1, j), which int
    true division rounds correctly.  Today 82 of the 1,293 miss by more
    than 1e-3; the worst, j = 1,226, is 0.0 where the exact is 1.40e-252."""
    stats = DegreeStatistics({0: 3901, 2: 2000, 20: 100})
    n, internal = stats.n, stats.n - stats.count(0)
    got = _stopping_survivals(stats)
    delta = 2 * (5 * internal + 4) * 2.0 ** -53
    binom, checked, misses = 1, 0, []
    for j, q in enumerate(_degree_polynomial(stats)):
        exact = q / binom
        if exact >= TAU_FLOOR:
            checked += 1
            if not abs(got[j] - exact) <= delta * exact:
                misses.append(j)
        binom = binom * (n - 1 - j) // (j + 1)
    assert checked == 1293
    assert misses == []


class TestRepeatTimeTails:
    @pytest.mark.parametrize("census", [full_binary_statistics,
                                        heavy_tailed_statistics])
    def test_stopping_survivals_match_the_index_law(self, census):
        classes = [s for s in all_stats_upto(10) if s.n >= 2]
        classes += [census(n) for n in (127, 255, 511, 1023, 2047)]
        assert len(classes) == 101
        for stats in classes:
            assert survival_misses(_stopping_survivals, stats) == [], \
                stats.counts if stats.n <= 10 else stats.n

    @pytest.mark.parametrize("stats", [
        full_binary_statistics(15), full_binary_statistics(127),
        heavy_tailed_statistics(127), MIXED, TERNARY,
        DegreeStatistics({0: 1, 1: 6})],
        ids=["binary15", "binary127", "heavy127", "mixed15", "ternary16",
             "path7"])
    def test_tails_hold_the_exact_scan(self, stats):
        exact = list(itertools.islice(repeat_time_survivals(stats), 2001))
        assert tail_misses(repeat_time_tails, stats, exact) == []

    def test_tails_far_down_hold_the_shifted_product(self):
        # k = 3,001 at binary n = 15 sits near 1e-390, below the floor
        for stats in (full_binary_statistics(15), heavy_tailed_statistics(63),
                      TERNARY):
            got = list(itertools.islice(repeat_time_tails(stats), 3002))
            for k in (500, 1808, 3001):
                t, lo, hi = got[k]
                exact = repeat_time_survival_by_shifted_product(stats, k)
                assert lo <= exact <= hi, (stats.counts, k)

    def test_a_bound_of_one_certifies_at_once(self):
        classes = [s for s in all_stats_upto(10) if s.n >= 2]
        assert all(certified_at(repeat_time_tails, stats, 1.0) == 0
                   for stats in classes)

    def test_a_zero_bound_never_certifies(self):
        # below the floor the upper end stays at its last certified value
        stats = full_binary_statistics(15)
        tails = list(itertools.islice(repeat_time_tails(stats), 3002))
        assert min(hi for _, _, hi in tails) > 0
        assert tails[-1][0] < TAU_FLOOR and tails[-1][1] == 0.0

    @pytest.mark.filterwarnings("ignore:divide by zero")  # w_m = m / 0
    @pytest.mark.parametrize("old,new", [
        ("w = j / (stats.n - j)", "w = j / (stats.n - 1 - j)"),
        ("/ (stats.n - 1 - j[:-1])", "/ (stats.n - j[:-1])"),
        ("(stats.n - j[:g])", "(stats.n - 1 - j[:g])"),
        ("min(1.0, t * (1 + delta))", "t * (1 + delta)")],
        ids=["weight-l-over-m-minus-l", "cumprod-over-m-minus-j-plus-1",
             "occupancy-weight-n-minus-1-minus-j", "no-clamp-at-one"])
    def test_broken_copies_fail(self, old, new):
        survivals, tails = broken_copy(old, new)
        small = [s for s in all_stats_upto(10) if s.n >= 2]
        failed = [stats.counts for stats in small
                  if certified_at(tails, stats, 1.0) > 0]
        for stats in (full_binary_statistics(127), heavy_tailed_statistics(127),
                      MIXED):
            if survival_misses(survivals, stats):
                failed.append(stats.counts)
        for stats in (full_binary_statistics(15), MIXED):
            exact = list(itertools.islice(repeat_time_survivals(stats), 201))
            if tail_misses(tails, stats, exact):
                failed.append(stats.counts)
        assert failed
