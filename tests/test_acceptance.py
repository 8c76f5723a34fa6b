"""Release gate: one test per contract-level acceptance criterion.

Each test computes its verdict, reports one PASS/FAIL line through the
`acceptance` fixture (echoed in the terminal summary), and then asserts it.
Monte Carlo criteria run at fixed seeds at the stated scale, so a failure
here is reproducible, never a reroll.  Frozen constants were derived from
the exact oracles in arbor.enumeration before being asserted.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from arbor.bounds import (BoundInput, height_tail_bound,
                          height_tail_bound_no_ones, height_threshold,
                          pair_survival, pair_survival_log_band,
                          pair_survival_log_series, pair_survival_upper,
                          stopping_tail_bound_no_ones)
from arbor.enumeration import (count_forests, enumerate_degree_statistics,
                               exact_mark_height_distribution,
                               exact_stopping_index_distribution,
                               exact_threshold_sampler_distribution)
from arbor.harness import (DEFAULT_BETAS, _repeat_time_cells,
                           full_binary_statistics,
                           heavy_tailed_statistics, run_concentration,
                           run_convergence, run_equivalence_suite,
                           run_tail_sweep)
from arbor.rng import RngStream
from arbor.samplers import sample_mark_height_batch, sample_stopping_index_batch
from arbor.trees import DegreeStatistics
from arbor.weights import (WeightSequence, concentrate_degrees,
                           concentration_count_ratio_ok, partition_function,
                           statistics_weight)

from chisq import chi_square_two_sample
from poisson_reference import interval_poissonized_batch

EXACT_SLACK = 1e-12  # float-valued bounds against exact rational tails
SMALL_MAX_N = 9


@pytest.fixture(scope="module")
def equivalence():
    start = time.perf_counter()
    report = run_equivalence_suite(max_n=SMALL_MAX_N)
    return report, time.perf_counter() - start


def _cells(report, prefix):
    return [c for c in report.cells if str(c.grid_value).startswith(prefix)]


def test_exact_counting(equivalence, acceptance):
    report, elapsed = equivalence
    cells = _cells(report, "count ")
    ok = len(cells) == 67 and all(c.verdict for c in cells) and elapsed < 600
    acceptance("exact-counting", ok,
               f"{len(cells)} degree classes with <= {SMALL_MAX_N} nodes, "
               f"{elapsed:.1f}s")


def test_sampler_identity(equivalence, acceptance):
    report, _ = equivalence
    cells = _cells(report, "threshold-vs-height ")
    worst = max(c.empirical for c in cells)
    ok = len(cells) == 67 and all(c.verdict for c in cells)
    acceptance("sampler-identity", ok,
               f"exact rational equality on {len(cells)} classes, "
               f"max TV {worst:g}")


def test_spine_formulas(equivalence, acceptance):
    report, _ = equivalence
    cells = _cells(report, "spine ")
    ok = len(cells) == 67 and all(c.verdict for c in cells)
    histo = _cells(report, "histogram-vs-height ")
    ok = ok and all(c.verdict for c in histo)
    acceptance("spine-formulas", ok,
               f"prefix lengths <= 4 over {len(cells)} classes")


def test_worked_example(acceptance):
    stats = DegreeStatistics({0: 2, 1: 1, 2: 1})
    want = {0: Fraction(3, 12), 1: Fraction(5, 12), 2: Fraction(4, 12)}
    by_enumeration = exact_mark_height_distribution(stats).pmf()
    by_recursion = exact_threshold_sampler_distribution(stats).pmf()
    reps = 100_000
    draws = sample_mark_height_batch(stats, RngStream(20260823, 0), reps)
    worst_z = 0.0
    for depth, p in want.items():
        freq = float(np.count_nonzero(draws == depth)) / reps
        se = math.sqrt(float(p) * (1 - float(p)) / reps)
        worst_z = max(worst_z, abs(freq - float(p)) / se)
    ok = by_enumeration == want and by_recursion == want and worst_z <= 3.0
    acceptance("worked-example", ok,
               f"(3/12, 5/12, 4/12) by enumeration, recursion, and "
               f"{reps} draws; max |z| = {worst_z:.2f}")


POISSONIZATION_BATTERY = (
    {0: 3, 2: 2}, {0: 3, 1: 1, 3: 1}, {0: 5, 5: 1}, {0: 2, 1: 4, 2: 1},
    {0: 4, 2: 3}, {0: 5, 2: 2, 3: 1}, {0: 4, 1: 2, 2: 1, 3: 1},
    {0: 10, 4: 3}, {0: 5, 1: 6, 5: 1}, {0: 19, 3: 9}, {0: 15, 1: 1, 2: 14},
)


def test_poissonization_equivalence(acceptance):
    # the direct stopping-index sampler against the Poisson interval
    # construction simulated arrival by arrival (the batch in arbor.samplers
    # takes its sigma from this walk, so it would test nothing here); seed 5
    # was fixed in advance, not tuned after a failure
    seed, reps, level = 5, 100_000, 0.01
    battery = [DegreeStatistics(c) for c in POISSONIZATION_BATTERY]
    assert len(battery) >= 10
    assert any(s.count(1) == 0 for s in battery)
    assert any(s.count(1) > 0 for s in battery)
    min_p = 1.0
    for j, stats in enumerate(battery):
        direct = sample_stopping_index_batch(stats, RngStream(seed, j), reps)
        poisson, _ = interval_poissonized_batch(
            stats, RngStream(seed, 100 + j), reps)
        min_p = min(min_p, chi_square_two_sample(direct, poisson))
    ok = min_p > level
    acceptance("poissonization-equivalence", ok,
               f"{len(battery)} classes at {reps} draws each, "
               f"min p = {min_p:.3f} vs level {level}")


def _tail_geq_table(law, top):
    """geq[k] = P(X >= k) for 0 <= k <= top + 1, one linear pass."""
    pmf = law.pmf()
    geq = [Fraction(0)] * (top + 2)
    for k in range(top, -1, -1):
        geq[k] = geq[k + 1] + pmf.get(k, Fraction(0))
    return geq


def _exact_bound_violations(stats):
    """Count (checks, violations) of the closed-form tail bounds against the
    exact height and stopping-index laws of one degree class."""
    inp = BoundInput.from_stats(stats)
    n = stats.n
    height_law = exact_threshold_sampler_distribution(stats)
    h_geq = _tail_geq_table(height_law, n)
    checks = bad = 0
    for beta in DEFAULT_BETAS:
        thr = height_threshold(inp, beta)
        exact = h_geq[min(n + 1, int(math.floor(thr)) + 1)]
        checks += 1
        if float(exact) > height_tail_bound(inp, beta) + EXACT_SLACK:
            bad += 1
    if stats.count(1) == 0 and n >= 2:
        sigma_law = exact_stopping_index_distribution(stats)
        s_geq = _tail_geq_table(sigma_law, n + 1)
        for ell in range(1, n + 1):
            checks += 2
            if float(h_geq[ell]) > height_tail_bound_no_ones(inp, ell) + EXACT_SLACK:
                bad += 1
            strict = s_geq[min(n + 2, ell + 1)]
            if float(strict) > stopping_tail_bound_no_ones(inp, ell) + EXACT_SLACK:
                bad += 1
    return checks, bad


def _uncertified_repeat_times(stats):
    """tau cells of DEFAULT_BETAS that no certified tail passes: each cell
    holds P(tau > k') in an interval certified to contain the exact value,
    at the least k' <= floor(threshold) whose upper end is at or below its
    bound, and fails when there is none."""
    cells = _repeat_time_cells(stats, BoundInput.from_stats(stats),
                               DEFAULT_BETAS)
    assert len(cells) == len(DEFAULT_BETAS)
    return [c for c in cells if not c.verdict]


def test_tail_bounds_never_violated(acceptance):
    checks = violations = 0
    small = 0
    tau_checks = tau_bad = 0
    for stats in enumerate_degree_statistics(SMALL_MAX_N):
        if stats.max_degree < 2:
            continue  # single node or path: the deviation scale is zero
        small += 1
        c, b = _exact_bound_violations(stats)
        checks += c
        violations += b
        tau_checks += len(DEFAULT_BETAS)
        tau_bad += len(_uncertified_repeat_times(stats))
    large = [full_binary_statistics(127), full_binary_statistics(1023),
             heavy_tailed_statistics(127), heavy_tailed_statistics(1023)]
    exact_only = [full_binary_statistics(4095), heavy_tailed_statistics(4095)]
    for stats in large + exact_only:
        c, b = _exact_bound_violations(stats)
        checks += c
        violations += b
        tau_checks += len(DEFAULT_BETAS)
        tau_bad += len(_uncertified_repeat_times(stats))
    mc_ok = True
    mc_cells = 0
    for stats in large:
        report = run_tail_sweep(stats, replications=100_000, seed=17)
        mc_ok = mc_ok and report.passed
        mc_cells += len(report.cells)
    ok = violations == 0 and tau_bad == 0 and mc_ok
    acceptance("tail-bounds-never-violated", ok,
               f"{checks} exact checks over {small} small + "
               f"{len(large) + len(exact_only)} large classes, "
               f"{violations} violations; {tau_checks - tau_bad} of "
               f"{tau_checks} tau bounds certified by float tails; "
               f"{mc_cells} Monte Carlo cells at 100000 reps all inside bound")


def test_pair_survival_battery(acceptance):
    rng = np.random.default_rng(12345)
    instances = 1000
    worst_series = 0.0
    bad = 0
    for _ in range(instances):
        n = int(rng.integers(4, 81))
        degrees = rng.integers(0, 9, size=n)
        degrees[0] = int(rng.integers(2, 9))
        base = (n - 1) / int(degrees.max())

        t = float(rng.uniform(0.1, 1.0)) * 1.3 * base
        err = abs(math.log(pair_survival(t, degrees))
                  - pair_survival_log_series(t, degrees, terms=60))
        worst_series = max(worst_series, err)
        if err >= 1e-10:
            bad += 1

        t = float(rng.uniform(0.0, 1.0)) * base
        if pair_survival(t, degrees) > pair_survival_upper(t, degrees) * (1 + 1e-12):
            bad += 1

        t = float(rng.uniform(0.0, 1.9)) * base
        centre, half = pair_survival_log_band(t, degrees)
        logg = math.log(pair_survival(t, degrees))
        if not (centre - half - 1e-9 <= logg <= centre + half + 1e-9):
            bad += 1
    ok = bad == 0
    acceptance("pair-survival-battery", ok,
               f"{instances} random (degrees, t) instances, "
               f"{bad} failures; worst series error {worst_series:.2e}")


def test_partition_function_cross_check(acceptance):
    binary = WeightSequence.from_list([1, 0, 1])
    ok = partition_function(binary, 5) == 2 and partition_function(binary, 7) == 5
    batteries = [
        WeightSequence.from_list([1, Fraction(1, 2), Fraction(1, 3),
                                  Fraction(1, 5)]),
        WeightSequence.from_list([2, 1, 0, Fraction(1, 7), 3]),
    ]
    compared = 0
    by_size = {n: [] for n in range(1, SMALL_MAX_N + 1)}
    for stats in enumerate_degree_statistics(SMALL_MAX_N):
        by_size[stats.n].append(stats)
    for w in batteries:
        for n in range(1, SMALL_MAX_N + 1):
            brute = sum((Fraction(count_forests(s)) * statistics_weight(w, s)
                         for s in by_size[n]), Fraction(0))
            ok = ok and partition_function(w, n) == brute
            compared += 1
    acceptance("partition-function-cross-check", ok,
               f"coefficient extraction equals tree-weight sums for "
               f"{compared} (weights, n) pairs; binary Z_5 = 2, Z_7 = 5")


def test_scaling_trends(acceptance):
    heavy = run_convergence(family="heavy", seed=11)
    control = run_convergence(family="control", seed=11)
    cells = {str(c.grid_value): c for c in heavy.cells + control.cells}
    wid_ratio = cells["wid-trend-min-ratio"].empirical
    ht_ratio = cells["ht-trend-max-ratio"].empirical
    span = cells["wid-span-ratio"].empirical
    ok = heavy.passed and control.passed
    acceptance("scaling-trends", ok,
               f"heavy wid/sqrt(n) step ratios >= {wid_ratio:.3f} > 1, "
               f"ht/(sqrt(n)log^3n) step ratios <= {ht_ratio:.3f} < 1; "
               f"control span {span:.3f} < 2")


def test_depth_constant_bounded(acceptance):
    report = run_convergence(family="near-path", seed=11)
    spread = report.cells[-1].empirical
    chats = [c.empirical for c in report.cells[:-1]]
    ok = report.passed
    acceptance("depth-constant-bounded", ok,
               f"chat in [{min(chats):.3f}, {max(chats):.3f}] over eps grid, "
               f"spread {spread:.3f} < 2")


def test_concentration_pass_fraction(acceptance):
    parts = []
    ok = True
    for name in ("second-moment", "stretched", "branching", "census"):
        report = run_concentration(name, seed=101)
        ok = ok and report.passed
        parts.append(f"{name}={report.cells[-1].empirical:.3f}")
    leaf = run_concentration("leaf", seed=101)
    ok = ok and leaf.passed
    parts.append(f"leaf-min-step={leaf.cells[-1].empirical:.4f}")
    acceptance("concentration-pass-fraction", ok, " ".join(parts))


def test_bundling_battery(acceptance):
    rng = np.random.default_rng(777)
    instances = 100
    bad = 0
    for _ in range(instances):
        counts = {c: int(rng.integers(0, 26)) for c in (1, 2, 3)}
        bundle = int(rng.integers(7, 13))
        boosted = int(rng.integers(1, 4))
        counts[boosted] = counts.get(boosted, 0) + bundle + int(rng.integers(0, 13))
        counts = {c: k for c, k in counts.items() if k}
        leaves = 1 + sum((c - 1) * k for c, k in counts.items())
        stats = DegreeStatistics({0: leaves, **counts})
        hat = concentrate_degrees(stats, 3, bundle)
        if hat.n != stats.n or hat.a != stats.a:
            bad += 1
            continue
        if hat == stats:  # surgery must have moved something
            bad += 1
            continue
        if not concentration_count_ratio_ok(stats, 3, bundle):
            bad += 1
    ok = bad == 0
    acceptance("bundling-battery", ok,
               f"{instances} random classes: nodes and edges preserved, "
               f"count ratio inside the factorial factor; {bad} failures")


def _frozen(report):
    doc = report.to_jsonable()
    doc["wall_clock_seconds"] = 0.0
    return json.dumps(doc, sort_keys=True)


def test_determinism(acceptance):
    stats = full_binary_statistics(15)
    sweep_a = run_tail_sweep(stats, replications=3000, seed=2)
    sweep_b = run_tail_sweep(stats, replications=3000, seed=2)
    ok = _frozen(sweep_a) == _frozen(sweep_b)
    ok = ok and sweep_a.csv_text() == sweep_b.csv_text()
    equiv_a = run_equivalence_suite(max_n=6)
    equiv_b = run_equivalence_suite(max_n=6)
    ok = ok and _frozen(equiv_a) == _frozen(equiv_b)
    conc_a = run_concentration("leaf", seed=0)
    conc_b = run_concentration("leaf", seed=0)
    ok = ok and _frozen(conc_a) == _frozen(conc_b)
    ladder_a = run_convergence(family="near-path", sizes=(60,),
                               replications=10, seed=4, grid=(0.4, 0.2))
    ladder_b = run_convergence(family="near-path", sizes=(60,),
                               replications=10, seed=4, grid=(0.4, 0.2))
    ok = ok and _frozen(ladder_a) == _frozen(ladder_b)
    halving_a = run_concentration("stretched", n=2000, replications=3, seed=2)
    halving_b = run_concentration("stretched", n=2000, replications=3, seed=2)
    ok = ok and _frozen(halving_a) == _frozen(halving_b)
    acceptance("determinism", ok,
               "reports byte-identical modulo wall clock across reruns")
