"""Unit tests for exact counting, enumeration, and closed-form laws.

The key cross-checks run three independent routes against each other:
brute-force tree enumeration, the binomial closed forms, and a direct
probabilistic recursion over the size-biased degree process that shares no
code with either.  Frozen copies of the earlier per-factor, falling-factorial
law code and of the survival-differencing code pin the closed forms bit for
bit at sizes enumeration cannot reach.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbor.enumeration import (ENUMERATION_CAP, ExactDistribution,
                               _degree_polynomial, count_forests,
                               count_marked_first_tree, count_spine_class,
                               enumerate_degree_statistics, enumerate_trees,
                               enumerate_trees_of_size,
                               exact_mark_height_distribution,
                               exact_stopping_index_distribution,
                               exact_threshold_sampler_distribution, falling,
                               multinomial, poly_mul, spine_probability)
from arbor.errors import InvalidStatistics, TooLarge, UsageExceeded
from arbor.harness import full_binary_statistics, heavy_tailed_statistics
from arbor.trees import DegreeStatistics, MarkedTree


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
                     falling(m, k)) for k in range(m + 1)]


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


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

class TestCounting:
    def test_falling_factorial(self):
        assert falling(5, 0) == 1
        assert falling(5, 2) == 20
        assert falling(3, 4) == 0

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
        with pytest.raises(InvalidStatistics):
            list(enumerate_trees(DegreeStatistics({0: 2})))

    def test_enumeration_cap(self):
        big = DegreeStatistics({0: ENUMERATION_CAP // 2 + 1,
                                2: ENUMERATION_CAP // 2})
        with pytest.raises(TooLarge):
            list(enumerate_trees(big))

    def test_trees_of_size(self):
        assert len(list(enumerate_trees_of_size(5))) == catalan(4)

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

    def test_single_tree_precondition(self):
        with pytest.raises(InvalidStatistics):
            spine_probability(DegreeStatistics({0: 2}), ())

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
    def test_product_and_truncation(self):
        assert poly_mul([1, 2], [3, 0, 4]) == [3, 6, 4, 8]
        assert poly_mul([1, 2], [3, 0, 4], trunc=1) == [3, 6]
        assert poly_mul([Fraction(1, 2)], [2, 4]) == [1, 2]

    def test_terms_past_the_truncation_are_dropped(self):
        # a's high terms lie wholly above trunc and must not wrap around
        assert poly_mul([1, 0, 0, 5], [1, 1], trunc=1) == [1, 1]
        assert poly_mul([0, 0, 7], [1], trunc=0) == [0]
