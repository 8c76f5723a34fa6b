"""Unit tests for the tree and spine-functional samplers.

Monte Carlo comparisons run at fixed seeds with generous chi-square
thresholds, so they are deterministic; the exact laws they compare against
come from the enumeration module, which has its own independent oracles.
"""

import functools
import hashlib
import importlib.util
import math
import time
import tracemalloc
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import arbor.samplers as samplers
from arbor.enumeration import (enumerate_trees, enumerate_trees_of_size,
                               exact_stopping_index_distribution,
                               exact_threshold_sampler_distribution)
from arbor.errors import (AttemptsExhausted, InvalidDistribution,
                          InvalidStatistics, ZeroPartition)
from arbor.harness import (_CLASS_LAWS, _LADDERS, full_binary_statistics,
                           heavy_tailed_statistics)
from arbor.rng import RngStream
from arbor.samplers import (OffspringDistribution, _hurwitz, block_sizes,
                            conditional_sum_table, rotate_to_valid_word,
                            sample_conditioned_bienayme,
                            sample_conditioned_bienayme_batch,
                            sample_conditioned_bienayme_sequential,
                            sample_conditioned_bienayme_sequential_batch,
                            sample_count_vectors,
                            sample_mark_height, sample_mark_height_batch,
                            sample_size_biased_order, sample_stopping_index,
                            sample_stopping_index_batch,
                            sample_stopping_index_poissonized,
                            sample_stopping_index_poissonized_batch,
                            sample_uniform_marked_tree, sample_uniform_tree,
                            sample_uniform_word, sample_uniform_word_batch)
from arbor.trees import (DegreeStatistics, PlaneTree, build_tree, depth_table,
                         validate_words)
from arbor.weights import (WeightSequence, limit_degree_law,
                           sample_simply_generated, simply_generated_sampler,
                           solve_critical_tilt, tilted_law)

import tree_sampler_reference as frozen_trees
from chisq import chi_square_gof, chi_square_two_sample
from forest_reference import forest_classes
from poisson_reference import interval_poissonized_batch
from polynomial_reference import repeat_time_survivals

STATS = DegreeStatistics({0: 3, 1: 1, 2: 2})  # n = 6, ten trees
P_FLOOR = 1e-3


def float_pmf(law):
    return {k: float(v) for k, v in law.pmf().items()}


def census_weights():
    return WeightSequence.from_generator(
        lambda k: 1.0 if k == 0 else float(k) ** -3.0, rho_hint=1.0)


def census_law(n):
    """The k^-3 census weights tilted to their critical law on 0..n-1."""
    w = census_weights()
    return tilted_law(w, solve_critical_tilt(w), n - 1)


def conditioned_law(mu, n):
    """Exact law prod mu(d_i) / Z over the n-node trees, keyed by word."""
    masses = mu.masses_upto(n - 1)
    weight = {t.luka: float(np.prod(masses[list(t.luka)]))
              for t in enumerate_trees_of_size(n)}
    z = sum(weight.values())
    return {word: v / z for word, v in weight.items() if v > 0}


class TestSizeBiasedOrder:
    def test_is_a_permutation_of_the_multiset(self):
        rng = RngStream(0, 0)
        for _ in range(20):
            order = sample_size_biased_order(STATS, rng)
            assert Counter(order) == Counter({0: 3, 1: 1, 2: 2})

    def test_first_draw_law(self):
        # P(first = d) = d n(d) / p1; here p1 = 5
        rng = RngStream(1, 0)
        firsts = [sample_size_biased_order(STATS, rng)[0] for _ in range(4000)]
        assert chi_square_gof(firsts, {1: 0.2, 2: 0.8}) > P_FLOOR

    def test_zeroes_fill_the_tail(self):
        rng = RngStream(2, 0)
        order = sample_size_biased_order(DegreeStatistics({0: 4, 3: 1}), rng)
        assert order == (3, 0, 0, 0, 0)


class TestMarkHeightSampler:
    def test_sequential_matches_exact_law(self):
        rng = RngStream(3, 0)
        draws = [sample_mark_height(STATS, rng) for _ in range(4000)]
        exact = float_pmf(exact_threshold_sampler_distribution(STATS))
        assert chi_square_gof(draws, exact) > P_FLOOR

    def test_batch_matches_exact_law(self):
        draws = sample_mark_height_batch(STATS, RngStream(4, 0), 30_000)
        exact = float_pmf(exact_threshold_sampler_distribution(STATS))
        assert chi_square_gof(draws, exact) > P_FLOOR

    def test_rows_retire_at_different_steps(self):
        # a third of the rows accept at step 1 and the rest at step 2; the
        # law must survive rows leaving the walk while others keep going
        stats = DegreeStatistics({0: 2, 2: 1})
        draws = sample_mark_height_batch(stats, RngStream(5, 0), 10_000)
        assert set(draws.tolist()) == {0, 1}
        exact = float_pmf(exact_threshold_sampler_distribution(stats))
        assert chi_square_gof(draws, exact) > P_FLOOR

    def test_single_node(self):
        assert sample_mark_height(DegreeStatistics({0: 1}), RngStream(0, 0)) == 0

    def test_forests_draw_the_forest_law(self):
        # two single nodes: every mark is a root; the walk on {0: 4, 1: 1,
        # 2: 1} (a = 3) matches the law `TestForestGate` checks against
        # enumerated forests
        assert sample_mark_height(DegreeStatistics({0: 2}), RngStream(0, 0)) == 0
        stats = DegreeStatistics({0: 4, 1: 1, 2: 1})
        draws = sample_mark_height_batch(stats, RngStream(5, 1), 10_000)
        exact = float_pmf(exact_threshold_sampler_distribution(stats))
        assert chi_square_gof(draws, exact) > P_FLOOR


SINGLE_DRAW_CLASSES = (STATS, DegreeStatistics({0: 1, 1: 4}),
                       DegreeStatistics({0: 1}))


class TestSingleDrawWrappers:
    """The single-draw samplers are the batch walk with one row."""

    @pytest.mark.parametrize("stats", SINGLE_DRAW_CLASSES)
    def test_mark_height_is_one_row_of_the_batch(self, stats):
        for stream in range(5):
            one = sample_mark_height(stats, RngStream(30, stream))
            batch = sample_mark_height_batch(stats, RngStream(30, stream), 1)
            assert one == batch[0]

    @pytest.mark.parametrize("stats", SINGLE_DRAW_CLASSES)
    def test_stopping_index_is_one_row_of_the_batch(self, stats):
        for stream in range(5):
            one = sample_stopping_index(stats, RngStream(31, stream))
            batch = sample_stopping_index_batch(stats, RngStream(31, stream), 1)
            assert one == batch[0]

    @pytest.mark.parametrize("stats", [STATS, DegreeStatistics({0: 1, 1: 4}),
                                       full_binary_statistics(127)])
    def test_poissonized_is_one_row_of_the_batch(self, stats):
        for seed in range(30):
            sigma, tau = sample_stopping_index_poissonized(stats,
                                                           RngStream(seed, 0))
            batch_sigma, batch_tau = sample_stopping_index_poissonized_batch(
                stats, RngStream(seed, 0), 1)
            assert type(sigma) is int and sigma == batch_sigma[0]
            assert (np.inf if tau is None else tau) == batch_tau[0]
            assert tau is None or type(tau) is int
            # a repeat fires exactly when some degree exceeds one
            assert (tau is None) == (stats.max_degree <= 1)
            assert sigma >= 2
            assert tau is None or sigma <= tau


class TestStoppingIndexSampler:
    def test_sequential_matches_exact_law(self):
        rng = RngStream(6, 0)
        draws = [sample_stopping_index(STATS, rng) for _ in range(4000)]
        exact = float_pmf(exact_stopping_index_distribution(STATS))
        assert chi_square_gof(draws, exact) > P_FLOOR

    def test_batch_matches_exact_law(self):
        draws = sample_stopping_index_batch(STATS, RngStream(7, 0), 30_000)
        exact = float_pmf(exact_stopping_index_distribution(STATS))
        assert chi_square_gof(draws, exact) > P_FLOOR

    def test_path_returns_sentinel(self):
        stats = DegreeStatistics({0: 1, 1: 4})
        assert sample_stopping_index(stats, RngStream(8, 0)) == 5
        batch = sample_stopping_index_batch(stats, RngStream(8, 1), 50)
        assert np.all(batch == 5)


MIXED = DegreeStatistics({0: 9, 1: 2, 2: 2, 3: 1, 5: 1})  # degree-1 nodes


def single_node_draws(rng):
    """Both walks on {0: 1}, then the next draws of the same generator, so
    a draw the one-node walk takes or skips moves the digest."""
    one = DegreeStatistics({0: 1})
    return np.concatenate([sample_mark_height_batch(one, rng, 50),
                           sample_stopping_index_batch(one, rng, 50),
                           rng.gen.integers(0, 2**31, 4)])


WALK_RUNS = {
    "mark-heavy1023": lambda: sample_mark_height_batch(
        heavy_tailed_statistics(1023), RngStream(40, 0), 4000),
    "stop-heavy1023": lambda: sample_stopping_index_batch(
        heavy_tailed_statistics(1023), RngStream(41, 0), 4000),
    "mark-mixed15": lambda: sample_mark_height_batch(
        MIXED, RngStream(42, 0), 4000),
    # stopping rows and size-biased orders run on after using up their edges
    "stop-mixed15": lambda: sample_stopping_index_batch(
        MIXED, RngStream(43, 0), 4000),
    "order-mixed15": lambda: np.concatenate([
        sample_size_biased_order(MIXED, RngStream(44, i)) for i in range(40)]),
    "single-node": lambda: single_node_draws(RngStream(45, 0)),
}

# (sum, SHA-256 of the int64 array), recorded from the walk that kept a
# reps x B table and picked buckets by a cumsum along its rows; the
# one-node class from the walk that draws one binomial per step and shuffles
WALK_PINS = {
    "mark-heavy1023": (
        7697,
        "d44d90d7129455661d703ead70045a3a1989ab80084f1fb1b7cf0a14bea584a8"),
    "stop-heavy1023": (
        11652,
        "7a9d77fc0fdc627965ef580c593fd492e2e4df697eda7d38a0521b70302e8ad0"),
    "mark-mixed15": (
        9685,
        "77e5f5a7c82bd8d6f016bef4dcf43aac869acd3ffd2c03598c631557b32c7160"),
    "stop-mixed15": (
        15384,
        "62dab7f208b79f91e4c123ffa2782e12652387305f98bf54c8dbef52ad9e3eb2"),
    "order-mixed15": (
        560,
        "014c0e7976c5e1cb23e1cebe9abeb9959b0438ee0b3291838bbf40681469b90f"),
    "single-node": (
        6316939780,
        "46ca8732bf0802175b0b4038b8bb4d9c816ce499a662c7028ed8d37d720e6a2d"),
}


@pytest.mark.parametrize("name", sorted(WALK_RUNS))
def test_walk_draws_are_pinned(name):
    # the tails-binary9 golden digest covers only one degree bucket; these
    # pin the multi-bucket walk, degree-1 nodes and the one-node class
    draws = np.asarray(WALK_RUNS[name](), dtype=np.int64)
    digest = hashlib.sha256(draws.tobytes()).hexdigest()
    assert (int(draws.sum()), digest) == WALK_PINS[name]


def frozen_size_biased_walk(stats, gen, reps, lead, last, record=None):
    """The walk as it was before one-degree censuses shared one threshold:
    every class kept the bucket table, the weight array and the per-row
    lead + S.  Kept verbatim, with the strict U < threshold test of the
    walk, as the oracle the walk on two or more positive degrees must
    match, output, record and generator state alike."""
    items = [(c, k) for c, k in stats.sorted_items() if c > 0]
    deg = np.array([c for c, _ in items], dtype=np.int64)
    counts = np.array([k for _, k in items], dtype=np.int64)
    rem = np.repeat(counts.reshape(-1, 1), reps, axis=1)
    weight = np.full(reps, counts @ deg, dtype=np.int64)
    top = np.full(reps, lead or 0, dtype=np.int64)  # lead + S
    positives = int(counts.sum())
    live = np.arange(reps)
    out = np.full(reps, last + 1, dtype=np.int64)
    for i in range(1, last + 1):
        if lead is not None:
            accept = gen.random(live.size) < top / (last + 1 - i)
            if accept.any():
                out[live[accept]] = i
                keep = ~accept
                live, top, rem, weight = (live[keep], top[keep], rem[:, keep],
                                          weight[keep])
        if not live.size:
            break
        if i <= positives:
            u = gen.random(live.size)
            b = np.zeros(live.size, dtype=np.intp)
            if deg.size > 1:
                v = np.minimum((u * weight).astype(np.int64), weight - 1)
                cum = np.zeros(live.size, dtype=np.int64)
                for j in range(deg.size - 1):
                    cum += rem[j] * deg[j]
                    b += cum <= v
            for j in range(deg.size):
                rem[j] -= b == j
            d = deg[b]
            weight -= d
        else:
            d = np.zeros(live.size, dtype=np.int64)
        top += d - 1
        if record is not None:
            record.append(d)
    return out


WALK_ORACLE_CLASSES = {
    **{f"binary{n}": full_binary_statistics(n)
       for n in (1, 3, 5, 15, 127, 1023, 4095)},
    "ternary16": DegreeStatistics({0: 11, 3: 5}),
    "ternary-forest5": DegreeStatistics({0: 4, 3: 1}),
    **{f"path{n}": DegreeStatistics({0: 1, 1: n - 1}) for n in (2, 10, 300)},
    **{f"heavy{n}": heavy_tailed_statistics(n) for n in (127, 1023, 4095)},
    "mixed15": DegreeStatistics({0: 9, 1: 2, 2: 2, 3: 1, 5: 1}),
    # degree-1 draws leave the thresholds' numerators flat, so rows accept a
    # few at a time
    "slow208": DegreeStatistics({0: 5, 1: 200, 2: 2, 3: 1}),
}


class NoUniforms:
    """A generator stand-in that refuses uniforms and hands binomial and
    permutation draws to a real generator."""

    def __init__(self, gen):
        self.gen = gen

    def random(self, size):
        raise AssertionError(f"the walk drew {size} uniforms")

    def binomial(self, n, p):
        return self.gen.binomial(n, p)

    def permutation(self, x):
        return self.gen.permutation(x)


def check_walk(stats, seed, reps, lead):
    """A walk on two or more positive degrees matches the frozen walk bit
    for bit, output, record and generator state alike.  A one-degree walk
    draws no uniforms; its size-biased order (lead None) is fixed, so its
    output and record still match the frozen walk's."""
    # the frozen walk's lead 1 and 0 are the mark-height and stopping
    # walks, last = n and n - 1; lead None is the size-biased order, which
    # the walk runs when handed a record
    last = stats.n - 1 if lead == 0 else stats.n
    one_degree = sum(1 for c in stats.counts if c > 0) <= 1
    new_gen = RngStream(seed, 0).gen
    old_gen = RngStream(seed, 0).gen
    new_rec = [] if lead is None else None
    old_rec = [] if lead is None else None
    out = samplers._size_biased_walk(
        stats, NoUniforms(new_gen) if one_degree else new_gen, reps, last,
        new_rec)
    want = frozen_size_biased_walk(stats, old_gen, reps, lead, last, old_rec)
    assert out.dtype == want.dtype and out.shape == want.shape
    if one_degree:
        assert np.all((out >= 1) & (out <= last + 1))
    else:
        assert np.array_equal(out, want)
        assert new_gen.bit_generator.state == old_gen.bit_generator.state
    if lead is not None:
        return
    assert np.array_equal(out, want)
    assert len(new_rec) == len(old_rec)
    for got, old in zip(new_rec, old_rec):
        assert got.dtype == old.dtype and np.array_equal(got, old)


class TestWalkOracle:
    """The walk on two or more positive degrees must draw every uniform the
    frozen walk draws, in the same order and sizes; a one-degree walk
    draws one binomial per step instead, and no uniform."""

    @pytest.mark.parametrize("lead", [1, 0, None])
    @pytest.mark.parametrize("reps", [1, 7])
    @pytest.mark.parametrize("name", sorted(WALK_ORACLE_CLASSES))
    def test_few_rows(self, name, reps, lead):
        stats = WALK_ORACLE_CLASSES[name]
        for seed in range(3):
            check_walk(stats, 50 + seed, reps, lead)

    @pytest.mark.parametrize("lead", [1, 0])
    @pytest.mark.parametrize("name", sorted(WALK_ORACLE_CLASSES))
    def test_tail_sweep_rows(self, name, lead):
        check_walk(WALK_ORACLE_CLASSES[name], 53, 20_000, lead)

    @pytest.mark.parametrize("name", ["binary127", "ternary16",
                                      "ternary-forest5", "path10", "heavy127",
                                      "slow208"])
    def test_recorded_orders(self, name):
        # every row of a recorded walk stays live for all n steps
        check_walk(WALK_ORACLE_CLASSES[name], 54, 20_000, None)

    @pytest.mark.parametrize("lead", [1, 0])
    def test_slowly_dying_rows_compact_the_table_many_times(self, lead):
        # accepted rows stay as dead table columns until at most half the
        # columns are live; replaying that rule on the frozen walk's
        # accept counts shows how often the checked walk compacted
        stats = WALK_ORACLE_CLASSES["slow208"]
        last = stats.n - 1 if lead == 0 else stats.n
        want = frozen_size_biased_walk(stats, RngStream(56, 0).gen, 20_000,
                                       lead, last)
        cols = live = 20_000
        compactions = 0
        for hits in np.bincount(want)[1:]:
            live -= hits
            if hits and 2 * live <= cols:
                cols, compactions = live, compactions + 1
        assert compactions >= 10
        check_walk(stats, 56, 20_000, lead)

    def test_odd_uniform_count_keeps_the_buffered_half(self):
        # an odd number of 32-bit draws leaves half a word buffered; a walk
        # that skipped or advanced past its bucket uniforms would lose it
        new_gen, old_gen = RngStream(55, 0).gen, RngStream(55, 0).gen
        for gen in (new_gen, old_gen):
            gen.integers(0, 2**31, 3, dtype=np.uint32)
        assert new_gen.bit_generator.state["has_uint32"] == 1
        samplers._size_biased_walk(MIXED, new_gen, 7, MIXED.n)
        frozen_size_biased_walk(MIXED, old_gen, 7, 1, MIXED.n)
        assert new_gen.bit_generator.state == old_gen.bit_generator.state
        assert np.array_equal(new_gen.integers(0, 2**31, 5, dtype=np.uint32),
                              old_gen.integers(0, 2**31, 5, dtype=np.uint32))


class RecordingBinomials(NoUniforms):
    """`NoUniforms` that also records each binomial's probability."""

    def __init__(self, gen):
        super().__init__(gen)
        self.probs = []

    def binomial(self, n, p):
        self.probs.append(p)
        return self.gen.binomial(n, p)


FOREST_CLASSES = forest_classes(10)


class TestForestGate:
    """The mark-height walk on forests of a >= 2 trees is the frozen walk
    with lead a: its threshold 1 - R / m has no a in it.  The laws it
    draws are checked against enumerated forests in test_enumeration."""

    def test_table_walks_equal_the_frozen_walk_at_lead_a(self):
        checked = 0
        for stats in FOREST_CLASSES:
            if sum(1 for c in stats.counts if c > 0) <= 1:
                continue
            for seed in range(3):
                new_gen = RngStream(70 + seed, 0).gen
                old_gen = RngStream(70 + seed, 0).gen
                out = samplers._size_biased_walk(stats, new_gen, 7, stats.n)
                want = frozen_size_biased_walk(stats, old_gen, 7, stats.a,
                                               stats.n)
                assert np.array_equal(out, want), stats.counts
                assert (new_gen.bit_generator.state
                        == old_gen.bit_generator.state), stats.counts
                checked += 1
        assert checked == 3 * 101

    def test_shared_walks_draw_the_lead_a_thresholds(self):
        # one positive degree c: the frozen walk's threshold at step i is
        # (a + S) / (n + 1 - i), S rising by c - 1 up to step p, then
        # falling by one
        checked = 0
        for stats in FOREST_CLASSES:
            items = [(c, k) for c, k in stats.counts.items() if c > 0]
            if len(items) > 1:
                continue
            c, p = items[0] if items else (0, 0)
            want, top = [], stats.a
            for i in range(1, stats.n + 1):
                want.append(top / (stats.n + 1 - i))
                top += (c if i <= p else 0) - 1
            for seed in range(3):
                gen = RecordingBinomials(RngStream(73 + seed, 0).gen)
                out = samplers._size_biased_walk(stats, gen, 7, stats.n)
                assert gen.probs == want[:len(gen.probs)], stats.counts
                assert gen.probs and np.all((out >= 1) & (out <= stats.n))
                checked += 1
        assert checked == 3 * 86

    @pytest.mark.parametrize("counts, seed", [
        ({0: 100, 1: 20, 2: 70, 3: 10}, 76),  # a = 10, table walk
        ({0: 101, 2: 99}, 77)])  # a = 2, shared walk
    def test_draws_match_the_exact_law_at_two_hundred_nodes(self, counts,
                                                            seed):
        stats = DegreeStatistics(counts)
        assert stats.n == 200 and stats.a > 1
        draws = sample_mark_height_batch(stats, RngStream(seed, 0), 20_000)
        exact = float_pmf(exact_threshold_sampler_distribution(stats))
        assert chi_square_gof(draws, exact) > P_FLOOR


FOREST = DegreeStatistics({0: 5, 2: 2})  # a = 3


class TestForestRefusals:
    """What has no forest law stated refuses a != 1, and says why;
    `enumerate_trees`, `repeat_time_tails` and `run_tail_sweep` are pinned
    beside their other tests, and the Poisson batch on {0: 2}, which its
    path return would answer, in `TestPoissonized`."""

    @pytest.mark.parametrize("call, why", [
        (lambda: sample_uniform_word(FOREST, RngStream(0, 0)),
         "a uniform forest needs one more draw"),
        (lambda: sample_uniform_word_batch(FOREST, RngStream(0, 0), 5),
         "a uniform forest needs one more draw"),
        (lambda: exact_stopping_index_distribution(FOREST),
         "no forest law of sigma"),
        (lambda: sample_stopping_index(FOREST, RngStream(0, 0)),
         "no forest law of sigma"),
        (lambda: sample_stopping_index_batch(FOREST, RngStream(0, 0), 5),
         "no forest law of sigma"),
        (lambda: sample_stopping_index_poissonized_batch(
            FOREST, RngStream(0, 0), 5), "no forest sigma or tau")],
        ids=["sample_uniform_word", "sample_uniform_word_batch",
             "exact_stopping_index_distribution",
             "sample_stopping_index", "sample_stopping_index_batch",
             "sample_stopping_index_poissonized_batch"])
    def test_refuses_a_forest(self, call, why):
        with pytest.raises(InvalidStatistics, match=why):
            call()


class FixedUniforms:
    """A generator stand-in that hands out the given uniform arrays in turn."""

    def __init__(self, *draws):
        self.draws = [np.asarray(u, dtype=float) for u in draws]

    def random(self, size):
        u = self.draws.pop(0)
        assert u.shape == (size,)
        return u


class TestWalkWidth:
    """With two or more positive degrees the walk keeps its table in int32
    unless n reaches 2**31; a larger census takes int64."""

    # 2**31 + 1 edges: int32 would wrap the row's total weight
    WIDE = DegreeStatistics({0: 2**31, 2**30: 1, 2**30 + 1: 1})

    def test_first_draw_splits_at_its_exact_weight(self):
        # P(D_1 = 2**30) = 2**30 / (2**31 + 1): the integer point
        # floor(u * (2**31 + 1)) takes 2**30 below 2**30 and 2**30 + 1 from
        # it on; the second step takes the other degree, the third a zero
        w = 2**31 + 1
        first = [0.0, (2**30 - 0.5) / w, (2**30 + 0.5) / w, 0.5,
                 np.nextafter(1.0, 0.0)]
        record = []
        out = samplers._size_biased_walk(
            self.WIDE, FixedUniforms(first, [0.5] * 5), 5, 3, record)
        lo, hi = 2**30, 2**30 + 1
        assert record[0].tolist() == [lo, lo, hi, hi, hi]
        assert record[1].tolist() == [hi, hi, lo, lo, lo]
        assert record[2].tolist() == [0] * 5
        assert out.tolist() == [4] * 5

    def test_walks_end_where_the_thresholds_reach_one(self):
        # after both positive degrees no edge weight is left, which makes
        # the third threshold exactly one for either walk
        rng = RngStream(57, 0)
        heights = sample_mark_height_batch(self.WIDE, rng, 5)
        sigmas = sample_stopping_index_batch(self.WIDE, rng, 5)
        assert set(heights.tolist()) <= {0, 1, 2}
        assert set(sigmas.tolist()) <= {2, 3}


class TestWalkMemory:
    """The walk's traced peak is bounded by the rows and steps it walks."""

    @staticmethod
    def peak(sampler, stats, reps):
        sampler(stats, RngStream(58, 1), 10)  # lazy imports stay untraced
        rng = RngStream(58, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sampler(stats, rng, reps)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("sampler", [sample_mark_height_batch,
                                         sample_stopping_index_batch])
    def test_heavy_table_at_n4095(self, sampler):
        # an int32 table of 18 degrees by 20,000 rows is 1.44 MB; compacting
        # at half keeps at most one and a half of it live
        stats = heavy_tailed_statistics(4095)
        assert self.peak(sampler, stats, 20_000) <= 3.5e6

    @pytest.mark.parametrize("sampler", [sample_mark_height_batch,
                                         sample_stopping_index_batch])
    def test_one_degree_histogram_at_n1048575(self, sampler):
        # the walk stops after a few thousand of its million steps
        stats = full_binary_statistics(1_048_575)
        assert self.peak(sampler, stats, 20_000) <= 2e6


class TestNegativeReps:
    SAMPLERS = [sample_mark_height_batch, sample_stopping_index_batch,
                sample_stopping_index_poissonized_batch]

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("stats", [full_binary_statistics(15), MIXED,
                                       DegreeStatistics({0: 1, 1: 4})])
    def test_refused_before_any_draw(self, sampler, stats):
        rng = RngStream(59, 0)
        state = rng.gen.bit_generator.state
        with pytest.raises(ValueError, match="reps"):
            sampler(stats, rng, -1)
        assert rng.gen.bit_generator.state == state

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("stats", [full_binary_statistics(15), MIXED])
    def test_zero_reps_give_empty_arrays(self, sampler, stats):
        out = sampler(stats, RngStream(59, 0), 0)
        for a in out if isinstance(out, tuple) else (out,):
            assert a.shape == (0,)


class ZeroUniforms:
    """A generator stand-in whose every uniform is 0.0: the bucket pick
    takes the lowest degree left, and a threshold test accepts exactly
    where the threshold is positive.  The one-degree walk's binomial
    likewise takes every live row where the threshold is positive, and its
    shuffle keeps the order."""

    def random(self, size):
        return np.zeros(size)

    def binomial(self, n, p):
        return n if p > 0 else 0

    def permutation(self, x):
        return np.array(x)


class TestZeroUniform:
    """U = 0.0 is a possible draw; the walk compares U < threshold, so a
    zero threshold never accepts, as the exact laws require."""

    rng = types.SimpleNamespace(gen=ZeroUniforms())

    @pytest.mark.parametrize("stats, index", [
        # the degree-1 node comes first and leaves the threshold at 0, a 2 follows
        (STATS, 3),
        (full_binary_statistics(15), 2),
        (DegreeStatistics({0: 1, 1: 4}), 5)])  # a path never fires
    def test_stopping_walk_waits_for_a_positive_threshold(self, stats, index):
        out = sample_stopping_index_batch(stats, self.rng, 4)
        assert np.all(out == index)

    @pytest.mark.parametrize("stats", [STATS, full_binary_statistics(15),
                                       DegreeStatistics({0: 1, 1: 4})])
    def test_mark_walk_stops_at_the_first_index(self, stats):
        # R = n - 1 makes the first threshold 1 / n, so i = 1 accepts: height 0
        assert np.all(sample_mark_height_batch(stats, self.rng, 4) == 0)


class CountingBinomials:
    """A generator stand-in that counts binomial draws and hands every
    draw to a real generator."""

    def __init__(self, gen):
        self.gen = gen
        self.binomials = 0

    def random(self, size):
        return self.gen.random(size)

    def binomial(self, n, p):
        self.binomials += 1
        return self.gen.binomial(n, p)

    def permutation(self, x):
        return self.gen.permutation(x)


class CountingMultinomials:
    """A generator stand-in that counts multinomial draws and hands every
    draw to a real generator."""

    def __init__(self, gen):
        self.gen = gen
        self.multinomials = 0

    def multinomial(self, n, pvals, size=None):
        self.multinomials += 1
        return self.gen.multinomial(n, pvals, size=size)

    def permutation(self, x):
        return self.gen.permutation(x)


def test_path_stopping_walk_returns_at_once():
    """On a path the stopping walk's threshold is 0 at every step and never
    rises, so the walk takes no step: no binomial, every row at the
    sentinel n, and the generator left as the final shuffle alone leaves
    it."""
    n, reps = 1_000_000, 1000
    gen = CountingBinomials(RngStream(1, 0).gen)
    out = sample_stopping_index_batch(DegreeStatistics({0: 1, 1: n - 1}),
                                      types.SimpleNamespace(gen=gen), reps)
    assert gen.binomials == 0
    assert out.dtype == np.int64 and np.all(out == n)
    ref = RngStream(1, 0).gen
    ref.permutation(np.full(reps, n))
    assert gen.gen.bit_generator.state == ref.bit_generator.state


ONE_DEGREE_LAW_CLASSES = {
    **{f"binary{n}": full_binary_statistics(n) for n in (127, 1023, 4095)},
    "ternary16": DegreeStatistics({0: 11, 3: 5}),
    **{f"path{n}": DegreeStatistics({0: 1, 1: n - 1}) for n in (10, 300)},
}


class TestOneDegreeBatchLaw:
    """A one-degree walk draws the histogram of its rows one binomial per
    step and shuffles it into rows, so the rows must be i.i.d. draws of the
    exact law, the first half alike with the second.  The seeds (60 for
    mark heights, 61 for stopping indices) and the 200,000 rows per law
    were fixed before the first run."""

    REPS = 200_000

    def check(self, draws, law):
        assert draws.dtype == np.int64 and draws.shape == (self.REPS,)
        assert chi_square_gof(draws, float_pmf(law)) > P_FLOOR
        half = self.REPS // 2
        assert chi_square_two_sample(draws[:half], draws[half:]) > P_FLOOR

    @pytest.mark.parametrize("name", sorted(ONE_DEGREE_LAW_CLASSES))
    def test_mark_heights_match_exact_law(self, name):
        stats = ONE_DEGREE_LAW_CLASSES[name]
        draws = sample_mark_height_batch(stats, RngStream(60, 0), self.REPS)
        self.check(draws, exact_threshold_sampler_distribution(stats))

    @pytest.mark.parametrize("name", sorted(ONE_DEGREE_LAW_CLASSES))
    def test_stopping_indices_match_exact_law(self, name):
        # on a path the law is the atom at n, the rows that never accept
        stats = ONE_DEGREE_LAW_CLASSES[name]
        draws = sample_stopping_index_batch(stats, RngStream(61, 0), self.REPS)
        self.check(draws, exact_stopping_index_distribution(stats))


class TestPoissonized:
    def test_path_statistics_have_no_repeat(self):
        stats = DegreeStatistics({0: 1, 1: 4})
        sigma, tau = sample_stopping_index_poissonized(stats, RngStream(1, 0))
        assert tau is None
        assert sigma == 5

    @pytest.mark.parametrize("stats", [DegreeStatistics({0: 2}),
                                       DegreeStatistics({0: 1})])
    def test_forests_and_single_nodes_are_refused(self, stats):
        with pytest.raises(InvalidStatistics):
            sample_stopping_index_poissonized(stats, RngStream(0, 0))

    def test_sigma_matches_exact_law(self):
        rng = RngStream(9, 0)
        draws = [sample_stopping_index_poissonized(STATS, rng)[0]
                 for _ in range(3000)]
        exact = float_pmf(exact_stopping_index_distribution(STATS))
        assert chi_square_gof(draws, exact) > P_FLOOR

    def test_batch_sigma_matches_exact_law(self):
        sigmas, taus = sample_stopping_index_poissonized_batch(
            STATS, RngStream(10, 0), 20_000)
        exact = float_pmf(exact_stopping_index_distribution(STATS))
        assert chi_square_gof(sigmas, exact) > P_FLOOR
        assert np.all(taus >= sigmas)

    def test_zero_rows_give_empty_arrays(self):
        sigma, tau = sample_stopping_index_poissonized_batch(
            STATS, RngStream(11, 0), 0)
        assert sigma.dtype == np.int64 and sigma.shape == (0,)
        assert tau.dtype == np.float64 and tau.shape == (0,)

    def test_batch_path_taus_are_infinite(self):
        stats = DegreeStatistics({0: 1, 1: 3})
        sigmas, taus = sample_stopping_index_poissonized_batch(
            stats, RngStream(11, 0), 100)
        assert np.all(sigmas == 4)
        assert np.all(np.isinf(taus))

    def test_batch_draws_are_pinned(self):
        # recorded from the one-binomial-per-step stopping walk plus
        # geometric stage lengths; a change to either moves these sums
        sigmas, taus = sample_stopping_index_poissonized_batch(
            DegreeStatistics({0: 512, 2: 511}), RngStream(21, 0), 2000)
        finite = np.isfinite(taus)
        assert int(sigmas.sum()) == 79950
        assert int(finite.sum()) == 2000
        assert int(taus[finite].sum()) == 81923

    def test_batch_agrees_with_interval_route(self):
        a, _ = interval_poissonized_batch(STATS, RngStream(12, 0), 20_000)
        b, _ = sample_stopping_index_poissonized_batch(STATS, RngStream(12, 1),
                                                       20_000)
        assert chi_square_two_sample(a, b) > P_FLOOR

    @pytest.mark.parametrize("stats", [
        STATS, DegreeStatistics({0: 4, 1: 1, 2: 1, 3: 1}),
        full_binary_statistics(63), heavy_tailed_statistics(127),
        full_binary_statistics(16383)],
        ids=["n6", "mixed-n7", "binary-n63", "heavy-n127", "binary-n16383"])
    def test_batch_taus_match_exact_tails(self, stats):
        # the tail sweep reads these exact tails instead of the batch; seed 23
        # was fixed in advance, and every k with P(tau > k) >= 1e-3 is tested
        reps = 50_000
        _, taus = sample_stopping_index_poissonized_batch(
            stats, RngStream(23, 0), reps)
        worst = 0.0
        for k, tail in enumerate(repeat_time_survivals(stats)):
            p = float(tail)
            if p < 1e-3:
                break
            if p < 1.0:
                freq = np.count_nonzero(taus > k) / reps
                worst = max(worst, abs(freq - p) / math.sqrt(p * (1 - p) / reps))
        assert k > 2 and worst < 4.0


POISSON_LAW_CLASSES = {
    "mixed-n8": DegreeStatistics({0: 4, 1: 2, 2: 1, 3: 1}),
    "hub-n8": DegreeStatistics({0: 6, 2: 1, 5: 1}),
    "hub-n9": DegreeStatistics({0: 5, 1: 3, 5: 1}),
    **{f"binary-n{n}": full_binary_statistics(n) for n in (31, 127, 1023)},
    "heavy-n127": heavy_tailed_statistics(127),
}


def poisson_law_pvalues(stats, seed, reps):
    """Two-sample p-values of the batch against the interval reference on
    sigma, tau and the joint (sigma, tau) key."""
    sigma, tau = sample_stopping_index_poissonized_batch(
        stats, RngStream(seed, 0), reps)
    ref_sigma, ref_tau = interval_poissonized_batch(
        stats, RngStream(seed, 1), reps)
    tau, ref_tau = tau.astype(np.int64), ref_tau.astype(np.int64)
    return {"sigma": chi_square_two_sample(sigma, ref_sigma),
            "tau": chi_square_two_sample(tau, ref_tau),
            "joint": chi_square_two_sample(sigma << 32 | tau,
                                           ref_sigma << 32 | ref_tau)}


@st.composite
def single_tree_classes(draw):
    """Small single-tree classes: internal degrees plus the leaves they
    force, so every class has zero-length (leaf) intervals."""
    parts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    counts = Counter(parts)
    counts[0] += sum(parts) + 1 - len(parts)
    return DegreeStatistics(dict(counts))


class TestPoissonBatchLaw:
    """The batch draws sigma from the stopping walk and tau as a sum of
    geometric stage lengths; the interval construction simulated arrival by
    arrival must give the same law.  Seeds were fixed in advance."""

    @pytest.mark.parametrize("name", sorted(POISSON_LAW_CLASSES))
    def test_matches_interval_reference(self, name):
        pvalues = poisson_law_pvalues(POISSON_LAW_CLASSES[name], 60, 20_000)
        assert min(pvalues.values()) > P_FLOOR, pvalues

    def test_one_row_draws(self):
        draws = [sample_stopping_index_poissonized(STATS, RngStream(61, i))
                 for i in range(3000)]
        sigma, tau = interval_poissonized_batch(STATS, RngStream(62, 0),
                                                20_000)
        assert chi_square_two_sample([d[0] for d in draws], sigma) > P_FLOOR
        assert chi_square_two_sample([d[1] for d in draws],
                                     tau.astype(np.int64)) > P_FLOOR

    def test_path_class(self):
        stats = DegreeStatistics({0: 1, 1: 9})
        sigma, tau = sample_stopping_index_poissonized_batch(
            stats, RngStream(42, 0), 50)
        ref_sigma, ref_tau = interval_poissonized_batch(
            stats, RngStream(42, 0), 50)
        assert sigma.dtype == ref_sigma.dtype and tau.dtype == ref_tau.dtype
        assert np.array_equal(sigma, ref_sigma)
        assert np.array_equal(tau, ref_tau)

    @settings(max_examples=60, deadline=None)
    @given(single_tree_classes(), st.integers(0, 2**16), st.integers(1, 300))
    def test_small_classes_stay_on_the_support(self, stats, seed, reps):
        # sigma - 1 intervals of positive degree are hit before the repeat,
        # and each of the sigma stages takes at least one arrival
        sigma, tau = sample_stopping_index_poissonized_batch(
            stats, RngStream(seed, 0), reps)
        assert sigma.dtype == np.int64 and tau.dtype == np.float64
        if stats.max_degree <= 1:
            assert np.all(sigma == stats.n) and np.all(np.isinf(tau))
            return
        assert np.all(sigma >= 2)
        assert np.all(sigma <= stats.n - stats.count(0) + 1)
        assert np.all(np.isfinite(tau)) and np.all(tau >= sigma)

    def test_memory_at_n4095(self):
        stats = full_binary_statistics(4095)
        tracemalloc.start()
        try:
            sample_stopping_index_poissonized_batch(stats, RngStream(44, 0),
                                                    20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestBatchScale:
    """Sizes where an n-wide row per replication would cost O(n) time and
    memory per draw."""

    def test_walk_agrees_with_poisson_route_at_n16383(self):
        stats = DegreeStatistics({0: 8192, 2: 8191})
        a = sample_stopping_index_batch(stats, RngStream(32, 0), 5000)
        b, _ = interval_poissonized_batch(stats, RngStream(32, 1), 5000)
        assert chi_square_two_sample(a, b) > P_FLOOR

    @pytest.mark.parametrize("sampler", [
        sample_mark_height_batch, sample_stopping_index_batch,
        sample_stopping_index_poissonized_batch])
    def test_memory_stays_small_at_n65535(self, sampler):
        stats = DegreeStatistics({0: 32768, 2: 32767})
        tracemalloc.start()
        try:
            sampler(stats, RngStream(33, 0), 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


internal_parts = st.lists(st.integers(1, 4), min_size=0, max_size=5)


@st.composite
def degree_arrangements(draw):
    parts = draw(internal_parts)
    degrees = list(parts) + [0] * (sum(parts) + 1 - len(parts))
    return draw(st.permutations(degrees))


class TestCycleRotation:
    @given(degree_arrangements())
    def test_rotation_is_valid_and_preserves_multiset(self, arrangement):
        word = rotate_to_valid_word(arrangement)
        assert Counter(word) == Counter(arrangement)
        assert build_tree(word).n == len(arrangement)

    @given(degree_arrangements())
    def test_valid_words_are_fixed_points(self, arrangement):
        word = rotate_to_valid_word(arrangement)
        assert rotate_to_valid_word(word) == word


class TestUniformTree:
    def test_uniform_over_the_class(self):
        words = [t.luka for t in enumerate_trees(STATS)]
        assert len(words) == 10
        rng = RngStream(13, 0)
        draws = []
        index = {w: i for i, w in enumerate(words)}
        for _ in range(4000):
            draws.append(index[sample_uniform_tree(STATS, rng).luka])
        assert chi_square_gof(draws, {i: 0.1 for i in range(10)}) > P_FLOOR

    def test_statistics_preserved(self):
        rng = RngStream(14, 0)
        for _ in range(25):
            tree = sample_uniform_tree(STATS, rng)
            assert tree.degree_statistics() == STATS

    def test_marked_variant(self):
        rng = RngStream(15, 0)
        marks = Counter()
        for _ in range(400):
            mt = sample_uniform_marked_tree(STATS, rng)
            assert 0 <= mt.mark < mt.tree.n
            marks[mt.mark] += 1
        assert len(marks) == STATS.n

    def test_deterministic_under_seed(self):
        a = [sample_uniform_tree(STATS, RngStream(16, i)).luka for i in range(5)]
        b = [sample_uniform_tree(STATS, RngStream(16, i)).luka for i in range(5)]
        assert a == b

    @pytest.mark.parametrize("stats", [STATS, heavy_tailed_statistics(1023),
                                       DegreeStatistics({0: 1})],
                             ids=["n6", "heavy-n1023", "n1"])
    def test_one_row_batch_is_the_single_draw(self, stats):
        for seed in range(4):
            a, b = RngStream(seed, 0), RngStream(seed, 0)
            for _ in range(3):
                words = sample_uniform_word_batch(stats, a, 1)
                assert words.dtype == np.int64 and words.shape == (1, stats.n)
                assert np.array_equal(words[0], sample_uniform_word(stats, b))
            assert a.gen.random() == b.gen.random()

    def test_rows_do_not_depend_on_the_chunking(self):
        """A batch drawn in chunks from one stream is the one batch, and
        its first rows are the smaller batch."""
        stats = heavy_tailed_statistics(1023)
        whole = sample_uniform_word_batch(stats, RngStream(4, 0), 40)
        rng = RngStream(4, 0)
        chunks = [sample_uniform_word_batch(stats, rng, k)
                  for k in (16, 0, 16, 8)]
        assert np.array_equal(np.concatenate(chunks), whole)
        assert np.array_equal(
            sample_uniform_word_batch(stats, RngStream(4, 0), 10), whole[:10])
        validate_words(whole)
        assert all(Counter(w) == stats.counts for w in whole.tolist())

    def test_empty_batch(self):
        words = sample_uniform_word_batch(STATS, RngStream(0, 0), 0)
        assert words.shape == (0, STATS.n) and words.dtype == np.int64
        with pytest.raises(ValueError):
            sample_uniform_word_batch(STATS, RngStream(0, 0), -1)


def _uniform_rows(stats, reps):
    degrees, counts = zip(*stats.sorted_items())
    return degrees, [counts] * reps, stats.n


def _count_vector_rows(law, n):
    return (*sample_count_vectors(law, n, RngStream(5, 0), 20), n)


SHUFFLE_ROWS = {  # case -> () -> (degrees, R x k counts, n)
    "uniform-n6": lambda: _uniform_rows(STATS, 50),
    "uniform-heavy-n1023": lambda: _uniform_rows(
        heavy_tailed_statistics(1023), 20),
    "count-vectors-control-n3201": lambda: _count_vector_rows(
        _LADDERS["control"][0](), 3201),
    "count-vectors-branching-n2000": lambda: _count_vector_rows(
        _CLASS_LAWS["branching"](), 2000),
    "zero-rows": lambda: ([0, 2], np.zeros((0, 2)), 9),
    "n1": lambda: _uniform_rows(DegreeStatistics({0: 1}), 7),
}


class TestShuffledWords:
    """The word step of uniform and rejection-drawn trees shuffles every
    row with one `permuted` call; it draws the words, and leaves the
    stream, as a `gen.permutation` per row did."""

    @pytest.mark.parametrize("case", sorted(SHUFFLE_ROWS))
    def test_matches_the_frozen_row_loop(self, case):
        degrees, counts, n = SHUFFLE_ROWS[case]()
        degrees, counts = (np.asarray(a, dtype=np.int64)
                           for a in (degrees, counts))
        for seed in (0, 7):
            a, b = RngStream(seed, 2), RngStream(seed, 2)
            words = samplers._shuffled_words(degrees, counts, n, a)
            want = frozen_trees.shuffled_words(degrees, counts, n, b)
            assert words.dtype == np.int64 and words.shape == (len(counts), n)
            assert np.array_equal(words, want), seed
            assert a.gen.random() == b.gen.random()


class TestKeyIdentityAtLargeN:
    """The paper's key identity above the enumeration cap: the depth of a
    uniform mark in a uniform tree has the law of the threshold walk's mark
    height.  5,000 uniform marked trees at n = 1,023, drawn as one batch in
    chunks of 2^19 elements from one stream (each chunk's marks after its
    words) and read by one `depth_table` a chunk, against the exact tails
    of `exact_threshold_sampler_distribution`: at every level l with
    0 < P(H >= l) < 1 the binomial z of the hits lies within the two-sided
    Bonferroni bound at family level 1e-3 over those levels (about 4.7 at
    500 levels), and no depth lies where the law has no mass."""

    REPS, BUDGET, SEED, ALPHA = 5000, 2**19, 7, 1e-3

    @pytest.mark.parametrize("census", [full_binary_statistics,
                                        heavy_tailed_statistics],
                             ids=["binary", "heavy"])
    def test_mark_depth_tails_are_the_exact_tails(self, census):
        stats = census(1023)
        rows = self.BUDGET // stats.n
        rng = RngStream(self.SEED, 0)
        depths = []
        for start in range(0, self.REPS, rows):
            k = min(rows, self.REPS - start)
            words = sample_uniform_word_batch(stats, rng, k)
            marks = rng.gen.integers(0, stats.n, k)
            depths.append(depth_table(words)[np.arange(k), marks])
        hits = np.bincount(np.concatenate(depths), minlength=stats.n)
        pmf = np.zeros(stats.n)
        for h, m in exact_threshold_sampler_distribution(stats).pmf().items():
            pmf[h] = float(m)
        tail = np.cumsum(pmf[::-1])[::-1]
        tail_hits = np.cumsum(hits[::-1])[::-1]
        assert not tail_hits[tail == 0].any()
        test = (tail > 0) & (tail < 1)
        p, got = tail[test], tail_hits[test]
        z = (got - self.REPS * p) / np.sqrt(self.REPS * p * (1 - p))
        bound = NormalDist().inv_cdf(1 - self.ALPHA / (2 * test.sum()))
        assert np.abs(z).max() <= bound, (np.abs(z).max(), bound)


class TestOffspringDistribution:
    def test_from_masses_validation(self):
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_masses([0.5, -0.1, 0.6])
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_masses([0.5, 0.4])
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_masses([0.0, 1.0])
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_masses({1: 2.0}, renormalize=True)

    @pytest.mark.parametrize("build", [
        lambda: OffspringDistribution.geometric(True),
        lambda: OffspringDistribution.geometric(np.True_),
        lambda: OffspringDistribution.from_masses(
            {0: .5, 2: .5, 3: True}, renormalize=True),
        lambda: OffspringDistribution.from_masses([True, False])],
        ids=["geometric", "geometric-numpy", "masses-dict", "masses-list"])
    def test_bools_are_refused(self, build):
        # True was read as 1.0: geometric(True) and masses (.25, 0, .25, .5)
        with pytest.raises(InvalidDistribution):
            build()

    @pytest.mark.parametrize("masses", [
        {0: .5, 2.9: .5}, {0: .5, 2.0: .5}, {0: .5, True: .5},
        {0: .5, np.True_: .5}, {0: .5, "2": .5}, {0: .5, 2: .25, -1: .25}],
        ids=["float", "whole-float", "bool", "numpy-bool", "str", "negative"])
    def test_non_integer_degrees_are_refused(self, masses):
        # int(k) put 2.9's mass at 2 and True's at 1, and -1 indexed the
        # mass vector from its end
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_masses(masses, renormalize=True)

    @pytest.mark.parametrize("masses,renormalize", [
        ([0.5, math.nan, 0.5], False), ({0: .5, 2: math.nan}, True),
        ({0: .5, 2: math.inf}, True), ([0.5, -math.inf, 0.5], False)],
        ids=["nan-list", "nan-renormalize", "inf-renormalize", "minus-inf"])
    def test_non_finite_masses_are_refused(self, masses, renormalize):
        # nan passed the sum check (abs(nan - 1) > 1e-12 is False) and
        # renormalizing spread it over every mass; inf was refused only as
        # "needs positive mass at zero"
        with pytest.raises(InvalidDistribution, match="must be finite"):
            OffspringDistribution.from_masses(masses, renormalize=renormalize)

    def test_numpy_integer_degrees_are_kept(self):
        mu = OffspringDistribution.from_masses({np.int64(0): .5,
                                                np.int32(2): .5})
        assert mu.masses == (0.5, 0.0, 0.5)

    def test_integer_masses_are_kept(self):
        mu = OffspringDistribution.from_masses({0: np.int64(1), 2: 1},
                                               renormalize=True)
        assert mu.mass(0) == mu.mass(2) == 0.5

    def test_renormalize(self):
        mu = OffspringDistribution.from_masses({0: 2, 2: 2}, renormalize=True)
        assert mu.mass(0) == 0.5 and mu.mass(2) == 0.5

    def test_geometric(self):
        mu = OffspringDistribution.geometric(0.5)
        assert mu.mean() == pytest.approx(1.0)
        m = mu.masses_upto(60)
        assert m[0] == 0.5 and m[3] == pytest.approx(0.0625)
        assert m.sum() == pytest.approx(1.0)

    def test_parametric_families_are_proper(self):
        laws = [
            OffspringDistribution.power_law(2.5, 0.95),
            OffspringDistribution.stretched_exp(0.95),
            OffspringDistribution.anchored_heavy(18, 0.05, 40, 0.1),
            OffspringDistribution.near_path(0.2),
        ]
        for mu in laws:
            m = mu.masses_upto(30_000)
            assert np.all(m >= 0)
            assert m.sum() == pytest.approx(1.0, abs=1e-6)
            grid = np.arange(len(m), dtype=float)
            assert float(grid @ m) == pytest.approx(mu.mean(), abs=1e-2)
            assert mu.mean() <= 1.0 + 1e-12

    def test_power_law_needs_finite_mean(self):
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.power_law(2.0, 0.5)

    def test_jsonable_round_trip(self):
        laws = [
            OffspringDistribution.from_masses({0: 0.25, 1: 0.5, 3: 0.25}),
            OffspringDistribution.geometric(0.6),
            OffspringDistribution.power_law(2.5, 0.95, start=2),
            OffspringDistribution.stretched_exp(0.9),
            OffspringDistribution.anchored_heavy(12, 0.04, 30, 0.2, alpha=2.7),
        ]
        for mu in laws:
            back = OffspringDistribution.from_jsonable(mu.to_jsonable())
            np.testing.assert_allclose(back.masses_upto(200),
                                       mu.masses_upto(200), atol=1e-12)
            assert back.mean() == pytest.approx(mu.mean())

    def test_from_jsonable_rejects_unknown(self):
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_jsonable({"family": "zeta", "params": []})
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_jsonable([1, 2])
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_jsonable({"family": ["geometric"]})

    @pytest.mark.parametrize("make, obj", [
        (lambda: OffspringDistribution.power_law(2.5, 0.95, start=0),
         {"family": "power_law", "params": [2.5, 0.0, 0, 0.95]}),
        (lambda: OffspringDistribution.power_law(2.5, 0.95, start=-1),
         {"family": "power_law", "params": [2.5, 0.0, -1, 0.95]}),
        (lambda: OffspringDistribution.power_law(2.5, 0.95, start=1.5),
         {"family": "power_law", "params": [2.5, 0.0, 1.5, 0.95]}),
        (lambda: OffspringDistribution.power_law(2.5, -0.1),
         {"family": "power_law", "params": [2.5, 0.0, 1, -0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18, 0.05, 40, 0.1,
                                                      alpha=1.5),
         {"family": "anchored", "params": [18, 0.05, 40, 0.0, 1.5, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18, 0.05, 40, 0.1,
                                                      alpha=2.0),
         {"family": "anchored", "params": [18, 0.05, 40, 0.0, 2.0, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18, 0.05, 0, 0.1),
         {"family": "anchored", "params": [18, 0.05, 0, 0.0, 2.5, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18, 0.05, 40.5, 0.1),
         {"family": "anchored", "params": [18, 0.05, 40.5, 0.0, 2.5, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18.5, 0.05, 40, 0.1),
         {"family": "anchored", "params": [18.5, 0.05, 40, 0.0, 2.5, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(-1, 0.05, 40, 0.1),
         {"family": "anchored", "params": [-1, 0.05, 40, 0.0, 2.5, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18, -0.05, 40, 0.1),
         {"family": "anchored", "params": [18, -0.05, 40, 0.0, 2.5, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18, 1.0, 40, 0.1),
         {"family": "anchored", "params": [18, 1.0, 40, 0.0, 2.5, 0.1]}),
        (lambda: OffspringDistribution.anchored_heavy(18, 0.05, 40, -0.1),
         {"family": "anchored", "params": [18, 0.05, 40, 0.0, 2.5, -0.1]}),
        (lambda: OffspringDistribution.stretched_exp(-0.5),
         {"family": "stretched", "params": [0.0, -0.5]})],
        ids=["power-start-0", "power-start-neg", "power-start-1.5",
             "power-mean-neg", "anchored-alpha-1.5", "anchored-alpha-2",
             "anchored-tail-start-0", "anchored-tail-start-40.5",
             "anchored-anchor-18.5", "anchored-anchor-neg",
             "anchored-mass-neg", "anchored-mass-1", "anchored-tail-mean-neg",
             "stretched-mean-neg"])
    def test_rejects_out_of_domain_parameters(self, make, obj):
        with pytest.raises(InvalidDistribution):
            make()
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_jsonable(obj)

    @pytest.mark.parametrize("obj", [
        {"family": "geometric"},
        {"family": "stretched", "params": [1]},
        {"family": "power_law", "params": [2.5, 0.0, 1]},
        {"family": "anchored", "params": [18, 0.05, 40, 0.0, 2.5, 0.1, 7]},
        {"family": "geometric", "params": 0.5},
        {"family": "geometric", "params": ["0.5"]},
        {"family": "power_law", "params": [2.5, 0.0, math.inf, 0.95]},
        {"0": None, "2": 0.5},
        {"0": math.nan, "2": 0.5},
        {"0": 0.5, "2": 0.5, "3": True},
        {"0": 0.5, "1": False, "2": 0.5},
        {"family": "geometric", "params": [True]}],
        ids=["geometric-none", "stretched-short", "power-short", "anchored-long",
             "not-a-list", "string-param", "infinite-param", "null-mass",
             "nan-mass", "true-mass", "false-mass", "bool-param"])
    def test_from_jsonable_rejects_malformed_params(self, obj):
        with pytest.raises(InvalidDistribution):
            OffspringDistribution.from_jsonable(obj)

    def test_anchor_at_zero_keeps_its_mass(self):
        mu = OffspringDistribution.anchored_heavy(0, 0.3, 5, 0.2)
        m = mu.masses_upto(30_000)
        assert m.sum() == pytest.approx(1.0, abs=1e-6)
        assert float(np.arange(len(m)) @ m) == pytest.approx(mu.mean(),
                                                             abs=1e-2)


def mass_bits(mu):
    return np.array(mu.masses).view(np.uint64).tolist()


class TestFromMassesArrayPath:
    """A float64 array is checked in numpy; a list is read mass by mass.
    Both must give what the frozen list path gave, bit for bit, and the
    same refusals with the same messages."""

    def test_array_masses_are_the_list_masses(self):
        gen = np.random.default_rng(41)
        for trial in range(300):
            raw = gen.random(int(gen.integers(1, 60))) ** 3
            raw[gen.random(raw.size) < 0.3] = 0.0
            raw[0] += 1e-3
            laws = [build(vec, renormalize=True)
                    for vec in (raw, raw.tolist())
                    for build in (OffspringDistribution.from_masses,
                                  frozen_trees.from_masses)]
            assert len({tuple(mass_bits(mu)) for mu in laws}) == 1, trial
        for vec in ([0.1] * 10, [0.5, 0.25, 0.25], [1.0], [0.3, 0.7 + 5e-13]):
            laws = [build(v) for v in (np.array(vec), vec)
                    for build in (OffspringDistribution.from_masses,
                                  frozen_trees.from_masses)]
            assert len({tuple(mass_bits(mu)) for mu in laws}) == 1, vec
            assert all(mu.kind == "explicit" and mu.label == "explicit"
                       for mu in laws)

    @pytest.mark.parametrize("vec, renormalize", [
        ([0.5, -0.1, 0.6], False), ([0.5, -0.1, 0.6], True),
        ([0.5, math.nan, 0.5], False), ([0.5, math.nan, 0.5], True),
        ([0.5, math.inf, 0.5], False), ([0.5, math.inf, 0.5], True),
        ([0.5, 0.4], False), ([0.5, 0.5 + 2e-12], False),
        ([0.0, 1.0], False), ([0.0, 1.0], True), ([0.0, 0.0], True),
        ([], False), ([], True), ([1e308, 1e308, 1.0], False),
        ([1e308, 1e308, 1.0], True)],
        ids=["negative", "negative-renormalize", "nan", "nan-renormalize",
             "inf", "inf-renormalize", "sum-off", "sum-just-off",
             "zero-at-0", "zero-at-0-renormalize", "all-zero", "empty",
             "empty-renormalize", "sum-overflows",
             "sum-overflows-renormalize"])
    def test_same_refusals_and_messages(self, vec, renormalize):
        with pytest.raises(InvalidDistribution) as want:
            frozen_trees.from_masses(vec, renormalize=renormalize)
        for given in (np.array(vec, dtype=np.float64), vec):
            with pytest.raises(InvalidDistribution) as got:
                OffspringDistribution.from_masses(given,
                                                  renormalize=renormalize)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("masses", [
        [True, False], [0.5, np.True_, 0.5], np.array([True, False]),
        np.array([0.5, True, 0.5], dtype=object)],
        ids=["list", "numpy-bool-in-list", "bool-array", "object-array"])
    def test_bools_are_still_refused(self, masses):
        with pytest.raises(InvalidDistribution, match="not bools"):
            OffspringDistribution.from_masses(masses, renormalize=True)

    def test_weight_laws_equal_the_frozen_list_path(self):
        w = census_weights()
        limit = limit_degree_law(w)
        for live, frozen in (
                (limit, frozen_trees.limit_degree_law(w)),
                (tilted_law(w, 1.0, 1999),
                 frozen_trees.tilted_law(w, 1.0, 1999))):
            assert mass_bits(live) == mass_bits(frozen)
            assert live == frozen
        # the certified remaining mass falls below 1e-12 at K = 524,288
        assert len(limit.masses) == 524_289


class TestHurwitzZeta:
    """The Cephes port against scipy.special.zeta, which wraps the same
    routine: the floats must agree bit for bit."""

    def test_law_points_match_scipy(self, monkeypatch):
        # record every (x, q) the harness, benchmark and test laws evaluate
        bench = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_bench_workloads", bench)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        points = {(3.0, 1.0), (2.0, 1.0)}  # the k^-3 weights in test_weights

        def record(x, q):
            points.add((float(x), float(q)))
            return _hurwitz(x, q)

        monkeypatch.setattr(samplers, "_hurwitz", record)
        laws = [make() for make, _ in _LADDERS.values()]
        laws += [make() for make in _CLASS_LAWS.values()]
        laws += list(workloads.setup_trees().values())
        laws += [OffspringDistribution.power_law(2.5, 0.95, start=2),
                 OffspringDistribution.anchored_heavy(12, 0.04, 30, 0.2,
                                                      alpha=2.7),
                 OffspringDistribution.anchored_heavy(0, 0.3, 5, 0.2)]
        for mu in laws:
            mu.masses_upto(50)
        assert (1.5, 1.0) in points and (1.5, 40.0) in points
        for x, q in sorted(points):
            assert _hurwitz(x, q) == float(zeta(x, q)), (x, q)

    def test_seeded_grid_matches_scipy(self):
        gen = np.random.default_rng(2024)
        x = 8.0 - 7.0 * gen.random(5_000)  # (1, 8]
        xs = np.concatenate([x, x, np.repeat(np.arange(2.0, 9.0), 200)])
        qs = np.concatenate([gen.integers(1, 201, 5_000).astype(float),
                             1.0 + 199.0 * gen.random(5_000),
                             np.tile(np.arange(1.0, 201.0), 7)])
        want = zeta(xs, qs)
        got = np.array([_hurwitz(a, b) for a, b in zip(xs.tolist(),
                                                       qs.tolist())])
        assert len(xs) >= 10_000
        mismatch = np.flatnonzero(got != want)
        assert mismatch.size == 0, list(zip(xs[mismatch[:5]], qs[mismatch[:5]]))


class TestConditionedBienayme:
    def test_size_check_is_uncached_and_comes_before_any_proposal(self):
        assert not hasattr(samplers, "_reachable_support")
        mu = OffspringDistribution.from_masses({0: 0.5, 2: 0.5})
        words = [build_tree(sample_conditioned_bienayme(mu, 21,
                                                        RngStream(7, r))).luka
                 for r in range(6)]
        assert words == [frozen_full_column_bienayme(mu, 21,
                                                     RngStream(7, r)).luka
                         for r in range(6)]
        for r in range(2):  # asked again, decided again
            gen = CountingMultinomials(RngStream(7, r).gen)
            with pytest.raises(ZeroPartition):
                sample_conditioned_bienayme(mu, 20,
                                            types.SimpleNamespace(gen=gen))
            assert gen.multinomials == 0

    def test_geometric_offspring_gives_uniform_trees(self):
        """prod mu(d_i) = p^n (1-p)^(n-1) for every n-node tree, so the
        conditioned law is uniform over all plane trees of that size."""
        mu = OffspringDistribution.geometric(0.5)
        words = [t.luka for t in enumerate_trees_of_size(5)]
        assert len(words) == 14
        index = {w: i for i, w in enumerate(words)}
        rng = RngStream(17, 0)
        draws = [index[tuple(sample_conditioned_bienayme(mu, 5, rng).tolist())]
                 for _ in range(5000)]
        assert chi_square_gof(draws, {i: 1 / 14 for i in range(14)}) > P_FLOOR

    def test_sequential_route_same_uniform_law(self):
        mu = OffspringDistribution.geometric(0.5)
        words = [t.luka for t in enumerate_trees_of_size(5)]
        index = {w: i for i, w in enumerate(words)}
        table = conditional_sum_table(mu, 5)
        batch = sample_conditioned_bienayme_sequential_batch(
            mu, 5, RngStream(18, 0), 5000, table)
        draws = [index[tuple(w)] for w in batch.tolist()]
        assert chi_square_gof(draws, {i: 1 / 14 for i in range(14)}) > P_FLOOR

    def test_sequential_vs_rejection_two_sample(self):
        mu = OffspringDistribution.from_masses({0: 0.5, 1: 0.2, 3: 0.3})
        words = [t.luka for t in enumerate_trees_of_size(7)]
        index = {w: i for i, w in enumerate(words)}
        a = sample_conditioned_bienayme_batch(mu, 7, RngStream(19, 0), 3000)
        b = sample_conditioned_bienayme_sequential_batch(mu, 7,
                                                         RngStream(19, 1), 3000)
        assert chi_square_two_sample([index[tuple(w)] for w in a.tolist()],
                                     [index[tuple(w)] for w in b.tolist()]) \
            > P_FLOOR

    @pytest.mark.parametrize("family", ["census", "sparse"])
    @pytest.mark.parametrize("route", ["rejection", "sequential"])
    def test_matches_exact_law(self, family, route):
        """Both batch samplers against prod mu(d_i) / Z over all 7-node
        trees, 20,000 words as one batch; each word is keyed by its base-7
        digits, with no tree per draw."""
        mu = (census_law(7) if family == "census" else
              OffspringDistribution.from_masses({0: 0.5, 1: 0.2, 3: 0.3}))
        law = conditioned_law(mu, 7)
        digits = 7 ** np.arange(7)
        sampler = (sample_conditioned_bienayme_batch if route == "rejection"
                   else sample_conditioned_bienayme_sequential_batch)
        words = sampler(mu, 7, RngStream(24, 0), 20_000)
        index = {int(np.array(w) @ digits): i for i, w in enumerate(law)}
        draws = [index[k] for k in (words @ digits).tolist()]
        assert chi_square_gof(draws, {i: p for i, p in enumerate(
            law.values())}) > P_FLOOR

    def test_size_is_exact(self):
        mu = OffspringDistribution.power_law(2.5, 0.95)
        rng = RngStream(20, 0)
        for n in (1, 2, 17):
            assert build_tree(sample_conditioned_bienayme(mu, n, rng)).n == n
            assert build_tree(
                sample_conditioned_bienayme_sequential(mu, n, rng)).n == n

    def test_unreachable_size_raises(self):
        # support {0, 2}: degree sums are even, but a 4-node tree needs 3;
        # both routes refuse before drawing, whatever the attempt cap
        mu = OffspringDistribution.from_masses({0: 0.5, 2: 0.5})
        with pytest.raises(ZeroPartition):
            sample_conditioned_bienayme_sequential(mu, 4, RngStream(0, 0))
        with pytest.raises(ZeroPartition):
            sample_conditioned_bienayme(mu, 4, RngStream(0, 0))

    def test_improbable_size_exhausts_attempts(self):
        # 41 nodes need 20 twos among 41 draws at mu(2) = 0.001: reachable,
        # but no row in 500 comes near
        mu = OffspringDistribution.from_masses({0: 0.999, 2: 0.001})
        with pytest.raises(AttemptsExhausted):
            sample_conditioned_bienayme(mu, 41, RngStream(0, 0),
                                        max_attempts=500)

    def test_single_node(self):
        mu = OffspringDistribution.geometric(0.9)
        word = sample_conditioned_bienayme_sequential(mu, 1, RngStream(0, 0))
        assert word.dtype == np.int64 and word.tolist() == [0]


def _factorial_squared():
    return WeightSequence.from_generator(
        lambda k: Fraction(math.factorial(k)) ** 2, rho_hint=0.0)


def _conditioned_route(law, n, route):
    return lambda module: module.conditioned_sampler(law, n, route)


def _simply_generated_route(w, n, route=None):
    return lambda module: module.simply_generated_sampler(w, n, route)


# Each entry names the route its conditioned draw takes, rejection or
# halving (None where no conditioned draw is made).  The package picks its
# own route and ignores the name; the frozen and single-draw samplers take
# it, so comparing them with the package also checks the package's rule.
LIVE_SAMPLERS = types.SimpleNamespace(
    conditioned_sampler=lambda law, n, route: samplers.conditioned_sampler(
        law, n),
    simply_generated_sampler=lambda w, n, route: simply_generated_sampler(
        w, n))
WORD_ROUTES = {  # route -> samplers -> ((rng, reps) -> words)
    "halving-heavy-n200": _conditioned_route(_LADDERS["heavy"][0](), 200,
                                             "halving"),
    "rejection-control-n201": _conditioned_route(
        _LADDERS["control"][0](), 201, "rejection"),
    "rejection-branching-n60": _conditioned_route(
        _CLASS_LAWS["branching"](), 60, "rejection"),
    "halving-heavy-n800": _conditioned_route(_LADDERS["heavy"][0](), 800,
                                             "halving"),
    "halving-heavy-n3200": _conditioned_route(_LADDERS["heavy"][0](), 3200,
                                              "halving"),
    "halving-stretched-n2000": _conditioned_route(
        _CLASS_LAWS["stretched"](), 2000, "halving"),
    "census-n17": _simply_generated_route(census_weights(), 17, "rejection"),
    "census-n40": _simply_generated_route(census_weights(), 40, "halving"),
    "census-n118": _simply_generated_route(census_weights(), 118, "halving"),
    "census-n2000": _simply_generated_route(census_weights(), 2000,
                                            "halving"),
    "tilt-finite-n6": _simply_generated_route(
        WeightSequence.from_list([1, 1, 1]), 6, "rejection"),
    "zero-radius-n6": _simply_generated_route(_factorial_squared(), 6),
    "zero-radius-n8": _simply_generated_route(_factorial_squared(), 8),
    "path-n5": _simply_generated_route(WeightSequence.from_list([1, 1]), 5),
    "one-node": _simply_generated_route(WeightSequence.from_list([1, 0, 1]),
                                        1),
}


def _single_conditioned(law, n, route):
    """The single-draw sampler of the named route."""
    if route == "rejection":
        return functools.partial(sample_conditioned_bienayme, law, n)
    return functools.partial(sample_conditioned_bienayme_sequential, law, n)


SINGLE_SAMPLERS = types.SimpleNamespace(
    conditioned_sampler=_single_conditioned,
    simply_generated_sampler=lambda w, n, route: functools.partial(
        sample_simply_generated, w, n))


class TestWordsMatchTheFrozenTreeSamplers:
    """Each route's one-row batch is the `.luka` of the tree the frozen
    samplers of tests/tree_sampler_reference.py drew, and the stream is
    left in the same state."""

    @pytest.mark.parametrize("route", sorted(WORD_ROUTES))
    def test_words_are_the_frozen_trees(self, route):
        draw = WORD_ROUTES[route](LIVE_SAMPLERS)
        frozen = WORD_ROUTES[route](frozen_trees)
        if isinstance(draw, functools.partial):  # the same route
            assert draw.func.__name__ == frozen.func.__name__ + "_batch"
        for seed in (0, 7, 2024):
            a, b = RngStream(seed, 3), RngStream(seed, 3)
            for _ in range(2):
                words = draw(a, 1)
                assert words.dtype == np.int64 and words.ndim == 2
                assert tuple(words[0].tolist()) == frozen(b).luka, seed
            assert a.gen.random() == b.gen.random()

    def test_public_samplers_return_the_frozen_words(self):
        mu = _LADDERS["heavy"][0]()
        for seed in range(4):
            assert tuple(sample_conditioned_bienayme(
                mu, 200, RngStream(seed, 0)).tolist()) == \
                frozen_trees.sample_conditioned_bienayme(
                    mu, 200, RngStream(seed, 0)).luka
            assert tuple(sample_conditioned_bienayme_sequential(
                mu, 300, RngStream(seed, 0)).tolist()) == \
                frozen_trees.sample_conditioned_bienayme_sequential(
                    mu, 300, RngStream(seed, 0)).luka

    def test_uniform_tree_wraps_the_word_step(self):
        for seed in range(4):
            word = sample_uniform_word(STATS, RngStream(seed, 0))
            assert word.dtype == np.int64
            assert sample_uniform_tree(STATS, RngStream(seed, 0)).luka \
                == tuple(word.tolist()) \
                == frozen_trees.sample_uniform_tree(STATS,
                                                    RngStream(seed, 0)).luka


SPARSE_LAW = OffspringDistribution.from_masses({0: 0.5, 1: 0.2, 3: 0.3})


class TestBatchedWords:
    """A route's batch of R words comes from one stream: its one-row call
    is the single draw, its rows are valid words, and they are independent
    draws of one law however the halving rows are chunked."""

    @pytest.mark.parametrize("route", sorted(WORD_ROUTES))
    def test_one_row_batch_is_the_single_draw(self, route):
        draw = WORD_ROUTES[route](LIVE_SAMPLERS)
        single = WORD_ROUTES[route](SINGLE_SAMPLERS)
        for seed in (0, 7, 2024):
            a, b = RngStream(seed, 5), RngStream(seed, 5)
            for _ in range(2):
                assert np.array_equal(draw(a, 1)[0], single(b)), seed
            assert a.gen.random() == b.gen.random()

    @pytest.mark.parametrize("route", sorted(WORD_ROUTES))
    def test_twenty_rows_are_valid_words(self, route):
        words = WORD_ROUTES[route](LIVE_SAMPLERS)(RngStream(11, 0), 20)
        assert words.dtype == np.int64 and words.shape[0] == 20
        validate_words(words)
        if route not in ("one-node", "path-n5"):  # one tree each
            assert len({w.tobytes() for w in words}) > 1

    @pytest.mark.parametrize("sampler", [
        sample_conditioned_bienayme_batch,
        sample_conditioned_bienayme_sequential_batch],
        ids=["rejection", "halving"])
    def test_consecutive_rows_are_independent(self, sampler):
        """Pairs (row 2i, row 2i + 1) of one batch against pairs of rows of
        two other batches, keyed by their count of degree 3 (0, 1 or 2 in
        a 7-node tree of the sparse law): a two-sample chi-square at
        P_FLOOR."""
        def threes(stream, reps):
            return (sampler(SPARSE_LAW, 7, RngStream(26, stream), reps)
                    == 3).sum(axis=1)
        one = threes(0, 20_000)
        adjacent = 3 * one[0::2] + one[1::2]
        apart = 3 * threes(1, 10_000) + threes(2, 10_000)
        assert chi_square_two_sample(adjacent.tolist(),
                                     apart.tolist()) > P_FLOOR

    def test_count_vectors_are_the_rejection_rows(self):
        degrees, counts = sample_count_vectors(SPARSE_LAW, 7,
                                               RngStream(3, 0), 50)
        assert degrees.tolist() == [0, 1, 3, 6]
        assert counts.shape == (50, 4)
        assert (counts.sum(axis=1) == 7).all()
        assert (counts @ degrees == 6).all()
        words = sample_conditioned_bienayme_batch(SPARSE_LAW, 7,
                                                  RngStream(3, 0), 50)
        assert np.array_equal(
            np.stack([(words == d).sum(axis=1) for d in degrees], axis=1),
            counts)

    def test_chunked_halving_draws_the_same_law(self, monkeypatch):
        """One chunk against chunks of 100 rows (a split budget of
        2 * 7 * 100 weights): the first chunk is the 100-row batch, both
        stacks are valid, and their trees agree by a two-sample chi-square
        at P_FLOOR."""
        digits = 7 ** np.arange(7)

        def batch(budget, stream, reps):
            monkeypatch.setattr(samplers, "_SPLIT_BUDGET", budget)
            words = sample_conditioned_bienayme_sequential_batch(
                SPARSE_LAW, 7, RngStream(27, stream), reps)
            validate_words(words)
            return words

        assert np.array_equal(batch(1400, 0, 250)[:100], batch(2**30, 0, 100))
        chunked = batch(1400, 1, 20_000) @ digits
        whole = batch(2**30, 2, 20_000) @ digits
        keys = {k: i for i, k in enumerate(np.unique(np.concatenate(
            [chunked, whole])).tolist())}
        assert chi_square_two_sample([keys[k] for k in chunked.tolist()],
                                     [keys[k] for k in whole.tolist()]) \
            > P_FLOOR

    HALVING_LAYOUT = {  # case -> (law, n, reps); heavy n = 800 and 3,200
        # also at reps = chunk and chunk + 1, chunk = 2**16 // (2n)
        **{f"heavy-n{n}-r{reps}": (_LADDERS["heavy"][0], n, reps)
           for n in (1, 2, 7, 200, 800, 3200) for reps in (1, 3, 20, 45)},
        **{f"heavy-n{n}-r{reps}": (_LADDERS["heavy"][0], n, reps)
           for n, chunk in ((800, 40), (3200, 10))
           for reps in (chunk, chunk + 1)},
        **{f"{law}-n2000-r{reps}": (_CLASS_LAWS[law], 2000, reps)
           for law in ("second-moment", "stretched")
           for reps in (1, 3, 20, 45)}}

    @pytest.mark.parametrize("case", sorted(HALVING_LAYOUT))
    def test_halving_layout_is_the_frozen_row_id_batch(self, case):
        """The shared block layout draws the words of the row-id batch of
        tests/tree_sampler_reference.py and leaves the stream where it
        did."""
        law, n, reps = self.HALVING_LAYOUT[case]
        mu = law()
        table = conditional_sum_table(mu, n)
        for seed in (0, 2024):
            a, b = RngStream(seed, 4), RngStream(seed, 4)
            words = sample_conditioned_bienayme_sequential_batch(
                mu, n, a, reps, table)
            assert words.dtype == np.int64 and words.shape == (reps, n)
            assert np.array_equal(
                words, frozen_trees.sequential_batch(mu, n, b, reps, table))
            assert a.gen.random() == b.gen.random()

    def test_empty_batches(self):
        for sampler in (sample_conditioned_bienayme_batch,
                        sample_conditioned_bienayme_sequential_batch):
            assert sampler(SPARSE_LAW, 7, RngStream(0, 0), 0).shape == (0, 7)
        with pytest.raises(ValueError):
            sample_count_vectors(SPARSE_LAW, 7, RngStream(0, 0), -1)


def frozen_full_column_bienayme(mu, n, rng, max_attempts=10_000_000):
    """The rejection sampler as it was when every proposal row had a column
    for each of the n degrees, kept verbatim as the reference for the
    support-only rows."""
    q = samplers._truncated_masses(mu, n)
    if n > 1 and q[1] == 0 and not samplers._reachable_sum(
            (np.flatnonzero(q[1:]) + 1).tolist(), n - 1):
        raise ZeroPartition(
            f"sum {n - 1} is unreachable with this offspring law")
    gen = rng.gen
    degrees = np.arange(n)
    attempts = 0
    rows = 16
    while attempts < max_attempts:
        take = min(rows, max_attempts - attempts)
        counts = gen.multinomial(n, q, size=take)
        hits = np.flatnonzero(counts @ degrees == n - 1)
        if hits.size:
            multiset = np.repeat(degrees, counts[hits[0]])
            return build_tree(rotate_to_valid_word(gen.permutation(multiset)))
        attempts += take
        rows = min(2 * rows, max(16, 65_536 // n))
    raise AttemptsExhausted(
        f"no degree sequence summed to {n - 1} in {max_attempts} attempts")


def frozen_fixpoint_reachable_sum(coins, target):
    """`_reachable_sum` as it was when each coin shifted the bitset by c
    until nothing changed, O(target / c) shifts a coin, kept verbatim as
    the reference for the doubling shifts."""
    if target == 0:
        return True
    reach = 1
    mask = (1 << (target + 1)) - 1
    for c in sorted(set(coins)):
        if c <= 0 or c > target:
            continue
        prev = -1
        while prev != reach:
            prev = reach
            reach = (reach | (reach << c)) & mask
        if (reach >> target) & 1:
            return True
    return bool((reach >> target) & 1)


class TestReachableSum:
    def test_matches_the_frozen_fixpoint_loop(self):
        """Seeded inputs with zero, negative and oversized coins, repeats,
        no coins, and target 0; small targets so the frozen loop stays
        fast, and both answers common."""
        gen = np.random.default_rng(33)
        answers = Counter()
        for _ in range(20_000):
            target = int(gen.integers(0, 400))
            coins = gen.integers(-3, target + 6,
                                 size=int(gen.integers(0, 6))).tolist()
            if gen.random() < 0.5:  # one lattice, so misses are common
                coins = [c * int(gen.integers(2, 7)) for c in coins]
            want = frozen_fixpoint_reachable_sum(coins, target)
            assert samplers._reachable_sum(coins, target) == want, \
                (coins, target)
            answers[want] += 1
        assert min(answers.values()) > 2_000, answers

    @pytest.mark.parametrize("coins, target, want", [
        ((), 0, True), ((), 5, False), ((0, -2), 3, False),
        ((7,), 6, False), ((2,), 1_000_000, True), ((2,), 999_999, False),
        ((4, 6), 999_999, False), ((4, 6), 999_998, True),
        ((6, 10, 15), 29, False), ((6, 10, 15), 31, True),
        ((2, 4, 6, 8), 2_000_001, False), ((3, 1_000_000), 1_000_003, True)])
    def test_hand_values(self, coins, target, want):
        assert samplers._reachable_sum(coins, target) is want

    @pytest.mark.parametrize("target", range(90, 99))
    @pytest.mark.parametrize("coins", [
        (3, 6, 9), (6, 9), (9, 12, 15), (21, 27, 30, 33), (3,), (0, -3, 3)])
    def test_multiples_of_three_on_every_residue(self, coins, target):
        """The gcd of the usable coins decides targets off its lattice;
        on it, coins and target are divided by it."""
        want = frozen_fixpoint_reachable_sum(coins, target)
        assert samplers._reachable_sum(coins, target) is want
        if target % 3:
            assert want is False

    @pytest.mark.parametrize("coins", [
        (1,), (1, 5), (2, 4, 6), (6, 4, 2), (3, 9, 12), (5, 5, 10), (7, 14)])
    def test_a_coin_equal_to_the_gcd_reaches_its_whole_lattice(self, coins):
        """After the gcd division such a coin is 1, which reaches every
        target on the lattice without a bitset."""
        for target in range(80):
            want = frozen_fixpoint_reachable_sum(coins, target)
            assert samplers._reachable_sum(coins, target) is want
            assert want is (target % math.gcd(*coins) == 0)

    @pytest.mark.parametrize("top", [7, 100, 2_001])
    def test_reachable_coins_on_one_lattice_match(self, top):
        """Every even coin plus one odd coin: every even coin after 2 is
        already a sum, and the odd one closes the target."""
        coins = list(range(2, top, 2)) + [top - 1]
        for target in (top - 1, top - 2, top - 3, 2 * top):
            assert (samplers._reachable_sum(coins, target)
                    is frozen_fixpoint_reachable_sum(coins, target))

    def test_schur_bound_matches_the_frozen_fixpoint_loop(self):
        """Seeded coprime coin sets (after the gcd division) with targets
        just below and at or above (c_min - 1)(c_max - 1), where the walk
        answers at once: both sides must match the frozen loop."""
        gen = np.random.default_rng(34)
        sides = Counter()
        for _ in range(2_000):
            coins = sorted(set(gen.integers(2, 30, size=int(
                gen.integers(1, 5))).tolist()))
            g = math.gcd(*coins)
            bound = (coins[0] // g - 1) * (coins[-1] // g - 1)
            for target in range(max(0, bound - 3) * g, (bound + 3) * g):
                want = frozen_fixpoint_reachable_sum(coins, target)
                assert samplers._reachable_sum(coins, target) is want, \
                    (coins, target)
                if target % g == 0:
                    sides[target // g >= bound, want] += 1
        assert sides[True, False] == 0
        assert min(sides.values()) > 100, sides

    def test_a_target_past_the_schur_bound_needs_no_bitset(self):
        """A bitset to 10^12 would need 10^12 bytes; the Schur bound of
        coins 2 and 3 is 2."""
        start = time.perf_counter()
        assert samplers._reachable_sum([2, 3], 10**12) is True
        assert samplers._reachable_sum([6, 9], 10**12 + 1) is False
        assert time.perf_counter() - start < 0.1

    def test_reachable_coins_are_skipped_without_a_copy(self):
        """Each skipped coin's `(reach >> c) & 1` copied the bitset: 0.1,
        0.34 and 1.08 s at N = 10^5, 2 * 10^5 and 4 * 10^5 on a 2-vCPU VM,
        where a one-element test takes about 0.04 s at 4 * 10^5."""
        n = 400_000
        start = time.perf_counter()
        assert samplers._reachable_sum(list(range(2, n, 2)) + [n - 1], n - 1)
        assert time.perf_counter() - start < 0.5

    def test_a_lattice_miss_is_refused_at_once(self):
        """Every even coin below two million against an odd target: the
        doubling shifts tested each coin's bit, O(target / 64) words a
        coin, about 25 s on a 2-vCPU VM; the gcd refuses it outright."""
        start = time.perf_counter()
        assert samplers._reachable_sum(range(2, 2_000_000, 2),
                                       1_999_999) is False
        assert time.perf_counter() - start < 1.0

    def test_even_weights_refuse_two_million_nodes_at_once(self):
        """Z_n = 0 for n - 1 odd: the fixpoint loop took 37-47 s on this
        input on a 2-vCPU VM; the doubling shifts leave the support scan."""
        w = WeightSequence.from_list([1, 0, 1])
        start = time.perf_counter()
        with pytest.raises(ZeroPartition):
            simply_generated_sampler(w, 2_000_000)
        assert time.perf_counter() - start < 2.0


def random_finite_law(seed):
    """A subcritical law on 0 and two to five degrees up to 12, gaps left
    at zero mass (degree 1 included about half the time)."""
    gen = np.random.default_rng(seed)
    degrees = np.sort(gen.choice(np.arange(1, 13), size=gen.integers(2, 6),
                                 replace=False))
    raw = gen.random(degrees.size)
    scale = gen.uniform(0.8, 0.99) / float(raw @ degrees)
    masses = {0: 1.0 - scale * float(raw.sum())}
    masses.update((int(d), scale * float(r)) for d, r in zip(degrees, raw))
    return OffspringDistribution.from_masses(masses, renormalize=True)


SUPPORT_ROW_LAWS = (
    [("control", _LADDERS["control"][0]()),
     ("near-path", OffspringDistribution.near_path(0.1)),
     ("branching", _CLASS_LAWS["branching"]()),
     ("geometric", OffspringDistribution.geometric(0.5)),
     ("heavy", _LADDERS["heavy"][0]()),
     # q[n - 1] > 0 at n = 5 and n = 9
     ("mass-at-n-1", OffspringDistribution.from_masses(
         {0: 0.55, 1: 0.1, 4: 0.2, 8: 0.15}))]
    + [(f"random-{seed}", random_finite_law(seed)) for seed in range(40)])


def _tree_or_error(sampler, mu, n, rng, max_attempts):
    try:
        tree = sampler(mu, n, rng, max_attempts=max_attempts)
    except (ZeroPartition, AttemptsExhausted) as exc:
        return type(exc), str(exc)
    return tree.luka if isinstance(tree, PlaneTree) else build_tree(tree).luka


class TestSupportOnlyRejectionRows:
    @pytest.mark.parametrize("name, mu", SUPPORT_ROW_LAWS,
                             ids=[c[0] for c in SUPPORT_ROW_LAWS])
    def test_same_trees_as_full_column_rows(self, name, mu):
        for n in (2, 3, 5, 9, 17, 60, 201, 1000):
            for stream in range(3):
                old, new = RngStream(7, stream), RngStream(7, stream)
                for _ in range(2):  # the second tree checks the stream state
                    assert (_tree_or_error(sample_conditioned_bienayme, mu, n,
                                           new, 2_000)
                            == _tree_or_error(frozen_full_column_bienayme,
                                              mu, n, old, 2_000)), (n, stream)

    def test_outcomes_include_both_refusals(self):
        # support {0, 2} cannot make a 4-node tree; 41 nodes at mu(2) =
        # 0.001 are reachable but no row in 500 comes near
        cases = [(OffspringDistribution.from_masses({0: 0.5, 2: 0.5}), 4,
                  ZeroPartition),
                 (OffspringDistribution.from_masses({0: 0.999, 2: 0.001}), 41,
                  AttemptsExhausted)]
        for mu, n, error in cases:
            got = _tree_or_error(sample_conditioned_bienayme, mu, n,
                                 RngStream(3, 0), 500)
            assert got == _tree_or_error(frozen_full_column_bienayme, mu, n,
                                         RngStream(3, 0), 500)
            assert got[0] is error


def simulated_rows(mu, n, seed, accepts=50):
    """Proposal rows per accepted tree of the rejection sampler, counted
    over `accepts` acceptances of its multinomial rows."""
    q = samplers._truncated_masses(mu, n)
    gen = np.random.default_rng(seed)
    degrees = np.arange(n)
    block = max(16, 65_536 // n)
    rows = hits = 0
    while True:
        ok = np.flatnonzero(gen.multinomial(n, q, size=block) @ degrees
                            == n - 1)
        if hits + ok.size >= accepts:
            return (rows + int(ok[accepts - hits - 1]) + 1) / accepts
        rows += block
        hits += ok.size


# the laws and sizes the harness draws at its defaults
DEFAULT_TREE_LAWS = (
    [(f"heavy-n{n}", _LADDERS["heavy"][0](), n) for n in (200, 800, 3200)]
    + [("control-n3201", _LADDERS["control"][0](), 3201),
       ("near-path-0.1-n2000", OffspringDistribution.near_path(0.1), 2000)]
    + [(f"{name}-n2000", make(), 2000) for name, make in _CLASS_LAWS.items()])


class TestExpectedRejectionRows:
    @pytest.mark.parametrize("name, mu, n", DEFAULT_TREE_LAWS,
                             ids=[c[0] for c in DEFAULT_TREE_LAWS])
    def test_within_factor_two_of_simulated_rows(self, name, mu, n):
        predicted = samplers.expected_rejection_rows(mu, n)
        simulated = simulated_rows(mu, n, seed=31)
        assert 0.5 < predicted / simulated < 2.0, (predicted, simulated)

    def test_matches_the_exact_acceptance_probability(self):
        # binary law at n = 9: P(S_9 = 8) = C(9, 4) / 2^9, so 512 / 126 rows
        mu = OffspringDistribution.from_masses({0: 0.5, 2: 0.5})
        rows = samplers.expected_rejection_rows(mu, 9)
        assert abs(rows / (512 / 126) - 1) < 0.1

    def test_no_spread_has_no_estimate(self):
        assert samplers.expected_rejection_rows(
            OffspringDistribution.geometric(0.5), 1) is None
        # truncated below n = 5 the law is the point mass at zero
        point = OffspringDistribution.from_masses({0: 0.01, 60: 0.99})
        assert samplers.expected_rejection_rows(point, 5) is None

    def test_far_tail_is_infinite_not_an_overflow(self):
        # mean 0.001 against the 1,999 edges of a 2,000-node tree
        mu = OffspringDistribution.from_masses({0: 0.999, 1: 0.001})
        assert samplers.expected_rejection_rows(mu, 2000) == math.inf


class TestConditionalSumTable:
    def test_matches_exact_convolution(self):
        """Each float row equals the exact truncated convolution power for
        its block size, computed in rationals: clipping cannot leak mass
        back below the cut because degree draws are nonnegative.  No split
        reads a row for n itself, so there is none."""
        mu = OffspringDistribution.from_masses({0: 0.5, 1: 0.25, 2: 0.25})
        n = 9
        table = conditional_sum_table(mu, n)
        sizes = block_sizes(n)
        assert sizes == [1, 2, 3, 4, 5, 9]
        sizes.pop()
        assert table.shape == (len(sizes), n)
        base = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        row = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for m in range(1, n + 1):
            nxt = [Fraction(0)] * n
            for s, mass in enumerate(row):
                if mass == 0:
                    continue
                for d, q in enumerate(base):
                    if s + d < n:
                        nxt[s + d] += mass * q
            row = nxt
            if m in sizes:
                total = sum(row)
                expect = [float(x / total) for x in row]
                np.testing.assert_allclose(table[sizes.index(m)], expect,
                                           atol=1e-13)

    def test_truncation_drops_unreachable_degrees(self):
        # degrees >= n cannot occur in an n-node tree; after truncation the
        # remaining law here is the point mass at zero
        mu = OffspringDistribution.from_masses({0: 0.01, 60: 0.99})
        table = conditional_sum_table(mu, 5)
        assert len(table) == len(block_sizes(5)) - 1
        assert (table[:, 0] == 1.0).all()
        assert (table[:, 1:] == 0.0).all()

    def test_census_tree_at_n10000(self):
        """A size the n x n table could not reach (800 MB at n = 10,000):
        the halving table has one row per visited block size below n, and
        a census tree is drawn well inside 32 MB."""
        n = 10_000
        law = census_law(n)
        tracemalloc.start()
        try:
            table = conditional_sum_table(law, n)
            word = sample_conditioned_bienayme_sequential_batch(
                law, n, RngStream(23, 0), 1, table)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (len(block_sizes(n)) - 1, n) == (21, n)
        assert build_tree(word).n == n
        assert word.sum() == n - 1
        assert peak < 32 * 2**20
