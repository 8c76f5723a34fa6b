"""Unit tests for the experiment harness.

Probabilistic verdicts at acceptance scale live in the acceptance suite;
here the runs are small and the focus is report structure, parameter
validation, and byte-level determinism.
"""

import functools
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from arbor import harness, samplers
from arbor.bounds import BoundInput
from arbor.enumeration import (TAU_FLOOR, enumerate_degree_statistics,
                               enumerate_trees, repeat_time_tails, word_table)
from arbor.errors import (BadParameters, InvalidWord, PathDegenerate,
                          ZeroPartition)
from arbor.harness import (_CLASS_LAWS, _LADDERS, CONCENTRATION_CLASSES,
                           CSV_COLUMNS, Cell, ExperimentConfig,
                           ExperimentReport, full_binary_statistics,
                           heavy_tailed_statistics,
                           run_concentration, run_convergence,
                           run_equivalence_suite, run_tail_sweep)
from arbor.rng import RngStream
from arbor.samplers import OffspringDistribution, conditional_sum_table
from arbor.trees import DegreeStatistics, MarkedTree, build_tree, depth_table
from arbor.weights import (WeightSequence, phi,
                           simply_generated_sampler, solve_critical_tilt,
                           tilted_law)
from polynomial_reference import repeat_time_survivals
from test_golden import RUNS as GOLDEN_RUNS


def strip_clock(report):
    d = report.to_jsonable()
    d.pop("wall_clock_seconds")
    return d


class TestReportPlumbing:
    def cell(self):
        return Cell("tail_sweep", 9, "height>=ell=3", 0.125, 0.1, 0.15,
                    0.5, True)

    def test_csv_row(self):
        row = self.cell().csv_row()
        assert row == ["tail_sweep", "9", "height>=ell=3", "0.125", "0.1",
                       "0.15", "0.5", "pass"]

    def test_csv_row_without_bound(self):
        cell = Cell("convergence", 4, "wid mean", 1.0, 0.9, 1.1, None, False)
        assert cell.csv_row()[6] == ""
        assert cell.csv_row()[7] == "fail"

    def report(self):
        config = ExperimentConfig(kind="demo", seed=7, replications=3,
                                  sizes=(9,))
        return ExperimentReport(config=config, cells=[self.cell()],
                                version="0.0", wall_clock_seconds=1.5)

    def test_json_shape(self):
        doc = json.loads(self.report().to_json())
        assert doc["passed"] is True
        assert doc["config"]["seed"] == 7
        assert doc["cells"][0]["grid_value"] == "height>=ell=3"

    def test_csv_text(self):
        text = self.report().csv_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_write_strips_json_suffix(self, tmp_path):
        base = tmp_path / "report.json"
        json_path, csv_path = self.report().write(str(base))
        assert json_path.endswith("report.json")
        assert csv_path.endswith("report.csv")
        assert (tmp_path / "report.csv").exists()


class TestReportSerialisation:
    """Reports serialise their cells field by field; the output must match
    the `dataclasses.asdict` route byte for byte."""

    @staticmethod
    def asdict_json(report):
        doc = {"config": report.config.to_jsonable(),
               "cells": [asdict(c) for c in report.cells],
               "passed": report.passed,
               "version": report.version,
               "wall_clock_seconds": report.wall_clock_seconds}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("make", [
        lambda: run_tail_sweep(full_binary_statistics(127), replications=500,
                               seed=3),
        lambda: run_equivalence_suite(max_n=6)])
    def test_matches_asdict_route(self, make):
        report = make()
        assert len(report.cells) > 10
        assert report.to_json() == self.asdict_json(report)
        rows = [",".join(CSV_COLUMNS)] + [
            ",".join(Cell(**asdict(c)).csv_row()) for c in report.cells]
        assert report.csv_text() == "\n".join(rows) + "\n"

    @staticmethod
    def indented_json(report):
        return json.dumps(report.to_jsonable(), sort_keys=True,
                          indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_golden_reports_match_indented_dumps(self, name):
        report = GOLDEN_RUNS[name]()
        assert report.to_json() == self.indented_json(report)

    ODD_TEXT = ['say "hi"', "back\\slash", "two\nlines", "},\n      {",
                "caf\u00e9", '"},\n      {\\é']

    @pytest.mark.parametrize("cells", [
        [],
        [Cell("tail_sweep", 9, "height>=ell=3", 0.125, 0.1, 0.15, 0.5, True)],
        [Cell("trend", 4, "nan", math.nan, -math.inf, math.inf, None, False),
         Cell("trend", 5, 2.5, -0.0, 1e-300, 1.7976931348623157e308, None,
              True)],
        [Cell(text, i, text, 0.5, 0.25, 0.75, None, bool(i % 2))
         for i, text in enumerate(ODD_TEXT)],
    ], ids=["no-cells", "one-cell", "non-finite", "odd-strings"])
    def test_hand_made_reports_match_indented_dumps(self, cells):
        config = ExperimentConfig(kind="demo", seed=7, sizes=(9, 11),
                                  grid=(0.5,), target={"0": 5, "2": 4},
                                  threshold=math.inf)
        report = ExperimentReport(config=config, cells=cells,
                                  version="0.0", wall_clock_seconds=1.5)
        assert report.to_json() == self.indented_json(report)


class TestReferenceStatistics:
    def test_full_binary(self):
        assert full_binary_statistics(1) == DegreeStatistics({0: 1})
        assert full_binary_statistics(7) == DegreeStatistics({0: 4, 2: 3})
        with pytest.raises(BadParameters):
            full_binary_statistics(8)

    def test_heavy_tailed(self):
        for n in (127, 1023):
            stats = heavy_tailed_statistics(n)
            assert stats.n == n
            assert stats.a == 1
            assert stats.count(1) == 0
            assert stats.max_degree >= n // 10
        with pytest.raises(BadParameters):
            heavy_tailed_statistics(3)


class TestEquivalenceSuite:
    def test_small_run_passes(self):
        report = run_equivalence_suite(max_n=5)
        assert report.passed
        # four comparison cells per statistics class, twelve classes
        assert len(report.cells) == 48
        kinds = {str(c.grid_value).split()[0] for c in report.cells}
        assert kinds == {"count", "threshold-vs-height", "histogram-vs-height",
                         "spine"}

    def test_spine_prefixes_match_the_per_mark_ancestry_loop(self):
        """The table counter equals the frozen per-mark loop, which walks
        each (tree, mark) pair's ancestry, on every class up to 10 nodes,
        with the suite's prefix cap and with none; each size's classes share
        one table, so the class keys must keep them apart."""
        for n, group in itertools.groupby(enumerate_degree_statistics(10),
                                          key=lambda stats: stats.n):
            per_class = [list(enumerate_trees(stats)) for stats in group]
            words = np.array([t.luka for trees in per_class for t in trees])
            cls = np.repeat(np.arange(len(per_class)),
                            [len(trees) for trees in per_class])
            depths = depth_table(words)
            for top in {min(4, n - 1), n - 1}:
                got = harness._spine_prefixes(words, depths, cls, top)
                assert len(got) == len(per_class)
                for trees, seen in zip(per_class, got):
                    want: Counter = Counter()
                    for tree in trees:
                        for mark in range(n):
                            spine = tuple(tree.luka[v] for v in MarkedTree(
                                tree, mark).ancestry()[:-1])
                            for k in range(1, min(top, len(spine)) + 1):
                                want[spine[:k]] += 1
                    assert seen == want, (n, top)

    def test_each_size_is_one_word_table(self, monkeypatch):
        """Every size is built once, with every degree allowed, and its
        rows fill each class's count cell."""
        sizes = Counter()

        def counting(n, counts):
            sizes[n] += 1
            assert list(counts) == [n] * n
            return word_table(n, counts)

        monkeypatch.setattr(harness, "word_table", counting)
        report = run_equivalence_suite(max_n=6)
        assert report.passed
        assert sizes == Counter(range(1, 7))
        counts = [c for c in report.cells
                  if str(c.grid_value).startswith("count ")]
        assert sum(c.empirical for c in counts) == sum(
            math.comb(2 * n - 2, n - 1) // n for n in range(1, 7))

    def test_size_guard(self):
        with pytest.raises(BadParameters):
            run_equivalence_suite(max_n=11)
        with pytest.raises(BadParameters):
            run_equivalence_suite(max_n=0)


class TestTailSweep:
    def test_small_binary_sweep_passes(self):
        report = run_tail_sweep(full_binary_statistics(15),
                                replications=3000, seed=2)
        assert report.passed
        labels = [str(c.grid_value) for c in report.cells]
        assert any(s.startswith("height>beta=") for s in labels)
        assert any(s.startswith("height>=ell=") for s in labels)
        assert any(s.startswith("sigma>ell=") for s in labels)
        assert any(s.startswith("tau>beta=") for s in labels)
        assert report.config.target == {"0": 8, "2": 7}

    @pytest.mark.parametrize("scale,verdict", [(0.99, False), (1.01, True)])
    @pytest.mark.parametrize("counts", [{0: 8, 2: 7},
                                        {0: 9, 1: 2, 2: 2, 3: 1, 5: 1}])
    def test_tau_cell_fails_below_the_exact_tail(self, monkeypatch, counts,
                                                 scale, verdict):
        # a broken copy of the bound at 0.99 times the exact P(tau > k) must
        # fail every tau cell at that tail; 1.01 times it must pass
        stats = DegreeStatistics(counts)
        inp = BoundInput.from_stats(stats)

        def exact(beta):
            k = math.floor(harness.repeat_threshold(inp, beta))
            return next(itertools.islice(repeat_time_survivals(stats), k, None))

        monkeypatch.setattr(harness, "repeat_time_tail_bound",
                            lambda _, beta: scale * float(exact(beta)))
        report = run_tail_sweep(stats, replications=200, seed=3)
        tau = [c for c in report.cells if str(c.grid_value).startswith("tau>")]
        assert [c.verdict for c in tau] == [verdict] * 4
        if not verdict:
            assert all(c.ci_lo <= exact(b) <= c.ci_hi
                       for c, b in zip(tau, harness.DEFAULT_BETAS))
        monkeypatch.undo()
        plain = run_tail_sweep(stats, replications=200, seed=3).cells
        assert report.cells[:-4] == plain[:-4]  # the Monte Carlo cells

    def test_informative_floor_truncates_ell_range(self):
        report = run_tail_sweep(full_binary_statistics(15),
                                replications=3000, seed=2)
        ells = [int(str(c.grid_value).split("=")[-1]) for c in report.cells
                if str(c.grid_value).startswith("height>=ell=")]
        assert ells == list(range(1, max(ells) + 1))
        assert max(ells) < 15  # far tail cells are left to the exact oracle

    def test_path_statistics_rejected(self):
        with pytest.raises(PathDegenerate):
            run_tail_sweep(DegreeStatistics({0: 1, 1: 5}), replications=10)

    def test_parameter_guards(self):
        with pytest.raises(BadParameters, match="no forest bound"):
            run_tail_sweep(DegreeStatistics({0: 2}), replications=10)
        with pytest.raises(BadParameters):
            run_tail_sweep(full_binary_statistics(5), replications=0)

    @pytest.mark.parametrize("beta", [-5.0, 0.0, math.inf, math.nan])
    def test_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(BadParameters):
            run_tail_sweep(full_binary_statistics(7), betas=(80.0, beta),
                           replications=10)

    def test_reports_are_reproducible(self):
        a = run_tail_sweep(full_binary_statistics(9), replications=500, seed=5)
        b = run_tail_sweep(full_binary_statistics(9), replications=500, seed=5)
        assert strip_clock(a) == strip_clock(b)
        assert a.csv_text() == b.csv_text()

    def test_seed_changes_the_draws(self):
        a = run_tail_sweep(full_binary_statistics(9), replications=500, seed=5)
        b = run_tail_sweep(full_binary_statistics(9), replications=500, seed=6)
        assert [c.empirical for c in a.cells] != [c.empirical for c in b.cells]


TAIL_COUNT_CLASSES = [
    full_binary_statistics(15), full_binary_statistics(127),
    full_binary_statistics(1023), full_binary_statistics(4095),
    DegreeStatistics({0: 11, 3: 5}), DegreeStatistics({0: 1, 1: 299}),
    heavy_tailed_statistics(127), heavy_tailed_statistics(1023),
    DegreeStatistics({0: 9, 1: 2, 2: 2, 3: 1, 5: 1})]


class TestTailCounts:
    """Every tail cell reads its hit count from one reversed cumulative
    `bincount`; it must equal the per-cell comparison over all rows."""

    @pytest.mark.parametrize("stats", TAIL_COUNT_CLASSES,
                             ids=lambda s: f"n{s.n}-b{len(s.sorted_items())}")
    def test_counts_match_per_cell_comparisons(self, stats):
        n = stats.n
        heights = samplers.sample_mark_height_batch(
            stats, RngStream(60, 0), 2000)
        sigmas = samplers.sample_stopping_index_batch(
            stats, RngStream(60, 1), 2000)
        height_counts = harness._tail_counts(heights)
        sigma_counts = harness._tail_counts(sigmas)
        for ell in range(-2, n + 3):
            assert harness._count_above(height_counts, ell - 1) == \
                np.count_nonzero(heights >= ell)
            assert harness._count_above(sigma_counts, ell) == \
                np.count_nonzero(sigmas > ell)
        if stats.max_degree < 2:
            return  # no branch scale, so no beta thresholds
        inp = BoundInput.from_stats(stats)
        xs = [harness.height_threshold(inp, b) for b in harness.DEFAULT_BETAS]
        xs += [-0.5, 0.0, 0.5, 2.999, 3.0, 3.001, n - 0.5, n, n + 0.5,
               float(heights.max()), math.inf, -math.inf]
        for x in xs:
            assert harness._count_above(height_counts, x) == \
                np.count_nonzero(heights > x)

    def test_cells_match_per_cell_comparisons(self):
        # the whole sweep against cells rebuilt from per-row comparisons
        stats = full_binary_statistics(127)
        reps, seed = 3000, 8
        report = run_tail_sweep(stats, replications=reps, seed=seed)
        heights = samplers.sample_mark_height_batch(
            stats, RngStream(seed, 0), reps)
        sigmas = samplers.sample_stopping_index_batch(
            stats, RngStream(seed, 1), reps)
        inp = BoundInput.from_stats(stats)
        hits = {}
        for beta in harness.DEFAULT_BETAS:
            hits[f"height>beta={beta:g}"] = np.count_nonzero(
                heights > harness.height_threshold(inp, beta))
        for ell in range(1, stats.n + 1):
            hits[f"height>=ell={ell}"] = np.count_nonzero(heights >= ell)
            hits[f"sigma>ell={ell}"] = np.count_nonzero(sigmas > ell)
        mc = [c for c in report.cells if not c.grid_value.startswith("tau")]
        assert len(mc) > 20
        for c in mc:
            k = int(hits[c.grid_value])
            lo, hi = harness.wilson_interval(k, reps)
            assert (c.empirical, c.ci_lo, c.ci_hi) == (k / reps, lo, hi)


def frozen_repeat_time_cells(stats, inp, betas):
    """(k', verdict) of each tau cell as the exact scan gave them: the least
    k' <= floor(threshold) whose exact tail is at or below the bound, else
    floor(threshold) and a failure."""
    want = [(int(harness.repeat_threshold(inp, b)),
             harness.repeat_time_tail_bound(inp, b)) for b in betas]
    cells = {}
    for k, tail in enumerate(repeat_time_survivals(stats)):
        for i, (top, bound) in enumerate(want):
            if i not in cells and (tail <= bound or k == top):
                cells[i] = (k, tail <= bound)
        if len(cells) == len(want):
            return [cells[i] for i in range(len(want))]


class TestRepeatTimeCertification:
    """Each tau cell holds the certified float tail at its k': the exact
    tail lies in [ci_lo, ci_hi], a pass means it is at or below the bound,
    and away from ties and the floor k' and the verdict are those of the
    exact scan."""

    CLASSES = [full_binary_statistics(15), full_binary_statistics(31),
               DegreeStatistics({0: 9, 1: 2, 2: 2, 3: 1, 5: 1}),
               DegreeStatistics({0: 11, 3: 5}), heavy_tailed_statistics(127)]

    @pytest.mark.parametrize("stats", CLASSES, ids=lambda s: f"n{s.n}")
    def test_cells_hold_the_exact_tail(self, monkeypatch, stats):
        inp = BoundInput.from_stats(stats)
        betas = harness.DEFAULT_BETAS + (10.0, 30.0)
        tops = [int(harness.repeat_threshold(inp, b)) for b in betas]
        survivals = list(itertools.islice(repeat_time_survivals(stats),
                                          max(tops) + 1))
        tails = list(itertools.islice(repeat_time_tails(stats), max(tops) + 1))

        def at(scale, part):
            # scale times the exact tail at part of each cell's threshold
            return lambda _, b: scale * float(
                survivals[int(tops[betas.index(b)] * part)])

        # "at" and "last" put a bound on an exact tail itself, a tie: the
        # scan may pass there while the interval around it is still above.
        # A bound below TAU_FLOOR (heavy n = 127 "over" at beta = 343 is
        # 1.3e-292) is never certified, as the float tails stop there.
        bound_sets = {"real": None, "zero": lambda _, b: 0.0,
                      "at": at(1.0, 1 / 2), "under": at(0.99, 1 / 3),
                      "over": at(1.01, 2 / 3), "last": at(1.0, 1)}
        for name, bound in bound_sets.items():
            if bound is not None:
                monkeypatch.setattr(harness, "repeat_time_tail_bound", bound)
            frozen = frozen_repeat_time_cells(stats, inp, betas)
            cells = harness._repeat_time_cells(stats, inp, betas)
            for cell, beta, top, (k0, v0) in zip(cells, betas, tops, frozen):
                b = harness.repeat_time_tail_bound(inp, beta)
                # a cell still open where the float tails drop below
                # TAU_FLOOR (lo = 0) fails there: hi stays put after it
                k = next(k for k, (_, lo, hi) in enumerate(tails)
                         if hi <= b or k == top or lo == 0)
                if name == "real":  # the floor never closes a real cell
                    assert k == next(k for k, (_, _, hi) in enumerate(tails)
                                     if hi <= b or k == top), beta
                assert (cell.empirical, cell.ci_lo, cell.ci_hi) == tails[k]
                assert cell.ci_lo <= survivals[k] <= cell.ci_hi, (name, beta)
                assert cell.verdict == (cell.ci_hi <= b)
                assert not cell.verdict or survivals[k] <= b
                if name in ("at", "last") or b < TAU_FLOOR:
                    assert k >= k0 or cell.ci_lo == 0, (name, beta)
                    assert v0 or not cell.verdict, (name, beta)
                else:
                    assert (k, cell.verdict) == (k0, v0), (name, beta)
            monkeypatch.undo()

    def test_broken_bound_finishes_quickly(self, monkeypatch):
        # a bound of 0 certifies nothing: every cell fails at k = 2,421,
        # the first k whose float tail is below TAU_FLOOR, short of its
        # floor(threshold) (k = 3,619 to 15,518 at binary n = 4,095)
        stats = full_binary_statistics(4095)
        inp = BoundInput.from_stats(stats)
        monkeypatch.setattr(harness, "repeat_time_tail_bound",
                            lambda _, b: 0.0)
        start = time.process_time()
        cells = harness._repeat_time_cells(stats, inp, harness.DEFAULT_BETAS)
        assert time.process_time() - start < 1.0
        assert [c.verdict for c in cells] == [False] * 4
        k, (tail, _, hi) = next((k, t) for k, t in
                                enumerate(repeat_time_tails(stats))
                                if t[1] == 0)
        assert k == 2421
        assert all((c.empirical, c.ci_lo, c.ci_hi) == (tail, 0.0, hi)
                   for c in cells)


class TestConvergence:
    def test_cell_structure(self):
        report = run_convergence(family="control", sizes=(21, 41),
                                 replications=8, seed=3)
        labels = [str(c.grid_value) for c in report.cells]
        for name in ("wid/sqrt(n) mean", "wid/sqrt(n) median",
                     "ht/(sqrt(n)log^3n) mean", "depth/sqrt(n) mean"):
            assert sum(name == lab for lab in labels) == 2
        assert labels[-1] == "wid-span-ratio"
        assert report.config.family == "control"

    def test_near_path_structure(self):
        report = run_convergence(family="near-path", sizes=(40,),
                                 replications=6, seed=3, grid=(0.5, 0.2))
        labels = [str(c.grid_value) for c in report.cells]
        assert labels == ["chat eps=0.5", "chat eps=0.2", "chat-spread"]
        assert report.config.grid == (0.5, 0.2)

    def test_heavy_trend_cells(self):
        report = run_convergence(family="heavy", sizes=(30, 60),
                                 replications=6, seed=4)
        labels = [str(c.grid_value) for c in report.cells]
        assert "wid-trend-min-ratio" in labels
        assert "ht-trend-max-ratio" in labels

    def test_parameter_guards(self):
        with pytest.raises(BadParameters):
            run_convergence(replications=1)
        with pytest.raises(BadParameters):
            run_convergence(family="unknown", replications=5)
        with pytest.raises(BadParameters):
            run_convergence(family="heavy", sizes=(100,), replications=5)

    @pytest.mark.parametrize("kwargs", [
        {"family": "near-path", "mu": OffspringDistribution.near_path(0.5)},
        {"family": "near-path", "sizes": (40, 60)},
        {"family": "heavy", "grid": (0.5,)},
        {"family": "control", "grid": (0.5,)},
        # sizes below 2: 0/0 cells at n = 1, or a zero trend to divide by
        {"family": "control", "sizes": (1, 3)},
        {"family": "heavy", "sizes": (0, 30)},
        {"family": "near-path", "sizes": (1,)}])
    def test_unused_inputs_are_refused(self, kwargs):
        with pytest.raises(BadParameters):
            run_convergence(replications=4, **kwargs)


def _count_generator_calls(monkeypatch):
    """Patch the harness's `WeightSequence.from_generator` so that every
    weight call of a sequence it builds adds one to calls[0]; return
    (calls, the counting constructor)."""
    calls = [0]

    def counting(fn, cap=100_000, rho_hint=None):
        def weight(k):
            calls[0] += 1
            return fn(k)
        return WeightSequence(generator=weight, cap=cap, rho_hint=rho_hint)

    monkeypatch.setattr(harness.WeightSequence, "from_generator",
                        staticmethod(counting))
    return calls, counting


class TestConcentration:
    def test_class_list_is_closed(self):
        with pytest.raises(BadParameters):
            run_concentration("heavy")

    def test_leaf_class_is_exact_and_passes(self):
        report = run_concentration("leaf", seed=0)
        assert report.passed
        assert report.cells[-1].grid_value == "leaf-trend-min-step"
        assert report.cells[-1].empirical > 0

    def test_census_smoke(self):
        report = run_concentration("census", n=40, replications=4, seed=1,
                                   tolerance=1.0)
        assert report.passed
        assert report.config.target["weights"] == "k^-3"
        assert len(report.config.target["pi"]) == 4

    def test_branching_needs_real_branching(self):
        mu = OffspringDistribution.from_masses({0: 0.3, 1: 0.7})
        with pytest.raises(BadParameters):
            run_concentration("branching", mu=mu, n=30, replications=4)

    def test_supercritical_law_rejected(self):
        mu = OffspringDistribution.from_masses({0: 0.1, 2: 0.9})
        with pytest.raises(BadParameters):
            run_concentration("second-moment", mu=mu, n=30, replications=4)

    def test_replication_guard(self):
        with pytest.raises(BadParameters):
            run_concentration("stretched", replications=0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_node_guard(self, n):
        for class_name in CONCENTRATION_CLASSES[:4]:
            with pytest.raises(BadParameters, match="at least one node"):
                run_concentration(class_name, n=n, replications=2)

    def test_mc_classes_record_the_event(self):
        report = run_concentration("branching", n=60, replications=6, seed=2,
                                   eps=0.1)
        assert "event" in report.config.target
        assert report.cells[-1].bound == 0.99

    @pytest.mark.parametrize("class_name", ["census", "leaf"])
    def test_fixed_weight_classes_refuse_mu(self, class_name):
        mu = OffspringDistribution.from_masses({0: 0.5, 2: 0.5})
        with pytest.raises(BadParameters):
            run_concentration(class_name, mu=mu, n=30, replications=4)

    @pytest.mark.parametrize("kwargs", [
        {"threshold": math.nan}, {"threshold": -0.01}, {"threshold": 1.5},
        {"factor": math.inf}, {"factor": math.nan}, {"factor": 0.0},
        {"factor": -1.0}, {"tolerance": math.nan}, {"tolerance": math.inf},
        {"tolerance": 0.0}, {"eps": math.nan}, {"eps": -math.inf}])
    def test_non_finite_or_out_of_range_inputs_are_refused(self, kwargs):
        for class_name in CONCENTRATION_CLASSES:
            with pytest.raises(BadParameters, match=next(iter(kwargs))):
                run_concentration(class_name, n=5, replications=2, **kwargs)

    def test_unreachable_degree_sum_fails_at_once(self):
        # below n = 40 the default law has mass only at 0 and 18, and 39 is
        # no multiple of 18: refused before the first proposal
        start = time.perf_counter()
        with pytest.raises(ZeroPartition):
            run_concentration("second-moment", n=40, replications=1)
        assert time.perf_counter() - start < 1.0

    def test_census_constants_are_solved_once(self):
        first = harness._census_constants()
        assert harness._census_constants() is first
        weights = WeightSequence.from_generator(
            lambda k: 1.0 if k == 0 else float(k) ** -3.0, rho_hint=1.0)
        total = phi(weights, 1.0)
        assert first[1] == tuple(float(weights.weight(k)) / total
                                 for k in range(4))
        assert solve_critical_tilt(first[0]) == solve_critical_tilt(weights)
        # Psi(1) = zeta(2)/(1 + zeta(3)) = 0.747 <= 1: the tilt saturates
        assert solve_critical_tilt(weights) == 1.0

    def test_census_law_is_the_zeta_law(self):
        # pi(k) = k^-3/(1 + zeta(3)) with w_0 = 1; Apery's constant zeta(3)
        # to 22 digits (OEIS A002117)
        zeta3 = 1.2020569031595942853997
        _, pis = harness._census_constants()
        for got, c in zip(pis, (1, 1, 1 / 8, 1 / 27)):
            assert abs(got - c / (1 + zeta3)) <= 1e-13 * c / (1 + zeta3)

    def test_fresh_census_set_up_reads_few_weights(self, monkeypatch):
        """The census class's set-up in a fresh process, its constants and
        its n = 2,000 sampler, calls the k^-3 weight about 5,160 times: 3
        in the constructor, 192 for Phi(1), 960 for sum k w_k, 4 for
        pi(0..3), and about 2,000 each for the sampler's support scan and
        tilted law."""
        calls, _ = _count_generator_calls(monkeypatch)
        weights, _ = harness._census_constants.__wrapped__()
        simply_generated_sampler(weights, 2000)
        assert calls[0] <= 6_000

    def test_census_constants_sum_phi_at_rho_once(self, monkeypatch):
        """Phi(rho) is summed once per process: once the census law has
        summed it, the tilt's edge probe reads the memoised series, which
        saves a whole power-0 series of generator calls."""
        calls, counting = _count_generator_calls(monkeypatch)
        shared, _ = harness._census_constants.__wrapped__()
        calls[0] = 0
        tilt = solve_critical_tilt(shared)
        once, calls[0] = calls[0], 0
        fresh = counting(lambda k: 1.0 if k == 0 else float(k) ** -3.0,
                         rho_hint=1.0)
        assert solve_critical_tilt(fresh) == tilt
        # the fresh tilt also sums Phi(1): 3 constructor calls and 192
        assert 0 < calls[0] - once <= 256
        calls[0] = 0
        assert solve_critical_tilt(shared) == tilt  # every series memoised
        assert calls[0] == 0

    def test_census_draws_match_the_frozen_halving_partial(self):
        # the census class's own sampler before it drew through
        # `simply_generated_sampler`: the tilted law and one halving table
        weights, _ = harness._census_constants()
        for n, seed in ((118, 3), (200, 5), (2000, 2)):
            law = tilted_law(weights, solve_critical_tilt(weights), n - 1)
            frozen = functools.partial(
                samplers.sample_conditioned_bienayme_sequential_batch, law, n,
                table=samplers.conditional_sum_table(law, n))
            words = [harness._draw_trees(draw, seed, 0, 4)
                     for draw in (frozen,
                                  simply_generated_sampler(weights, n))]
            assert np.array_equal(words[0], words[1]), n

    def test_drawn_stack_is_checked(self):
        words = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(InvalidWord, match="^row 2: prefix sum drops"):
            harness._draw_trees(lambda rng, reps: words[:reps], 0, 0, 3)

    def test_a_battery_draws_one_batch_from_its_cell_stream(self):
        draws = []

        def draw(rng, reps):
            draws.append((rng.seed, rng.stream, reps))
            return np.tile(np.array([1, 0], dtype=np.int64), (reps, 1))
        assert harness._draw_trees(draw, 7, 2, 5).shape == (5, 2)
        assert draws == [(7, 2, 5)]

    @pytest.mark.parametrize("class_name, n", [
        ("second-moment", 300), ("stretched", 300), ("branching", 300),
        ("census", 60), ("census", 300)])
    def test_stack_events_are_the_norms_events(self, class_name, n):
        """Each event read off the stack of words agrees, tree by tree,
        with the same comparison on the tree's counts and `Norms`, also at
        a parameter equal to some tree's own statistic."""
        reps, seed = 24, 6
        if class_name == "census":
            weights, pis = harness._census_constants()
            draw = simply_generated_sampler(weights, n)
        else:
            mu = _CLASS_LAWS[class_name]()
            draw = samplers.conditioned_sampler(mu, n)
        stats = [build_tree(w).degree_statistics()
                 for w in harness._draw_trees(draw, seed, 0, reps)]
        norms = [s.norms() for s in stats]
        if class_name == "census":
            gaps = [max(abs(s.count(k) / n - pis[k]) for k in range(4))
                    for s in stats]
            grid = [{"tolerance": g} for g in sorted(gaps)[::5]]
        elif class_name == "branching":
            slack = 1.0 - mu.mass(0) - mu.mass(1)
            grid = [{"eps": slack - (x.p2sq - x.n1) / x.p1 / 4}
                    for x in sorted(norms)[::5]]
        else:
            grid = [{"factor": x.p2sq / x.p1} for x in sorted(norms)[::5]]
        split = False
        for kwargs in grid:
            report = run_concentration(class_name, n=n, replications=reps,
                                       seed=seed, **kwargs)
            if class_name == "census":
                want = [g < kwargs["tolerance"] for g in gaps]
            elif class_name == "branching":
                floor = report.config.target["event"]["floor"]
                want = [x.p2sq - x.n1 >= floor * x.p1 for x in norms]
            else:
                want = [x.p2sq >= kwargs["factor"] * x.p1 for x in norms]
            assert report.cells[0].empirical == sum(want) / reps, kwargs
            split |= 0 < sum(want) < reps
        assert split

    def test_class_names_cover_the_cli_choices(self):
        assert CONCENTRATION_CLASSES == ("second-moment", "stretched",
                                         "branching", "census", "leaf")


class TestRouteChoice:
    """Rejection or halving by the predicted rejection cost, proposal rows
    per tree times support columns against 16 n, as
    `samplers.conditioned_sampler` picks it; the route is pinned at every
    default rung and class and where the census crosses over, and the
    halving route's table is built once per rung or census call, in
    samplers."""

    @staticmethod
    def halves(law, n):
        if law is None:  # the census class: k^-3 weights, tilted
            draw = simply_generated_sampler(harness._census_constants()[0], n)
        else:
            draw = samplers.conditioned_sampler(law, n)
        return draw.func is samplers.sample_conditioned_bienayme_sequential_batch

    @pytest.mark.parametrize("family, law, n, halving", [
        ("heavy", _LADDERS["heavy"][0](), 200, True),
        ("heavy", _LADDERS["heavy"][0](), 800, True),
        ("heavy", _LADDERS["heavy"][0](), 3200, True),
        ("control", _LADDERS["control"][0](), 201, False),
        ("control", _LADDERS["control"][0](), 801, False),
        ("control", _LADDERS["control"][0](), 3201, False),
        ("near-path", OffspringDistribution.near_path(0.5), 2000, False),
        ("near-path", OffspringDistribution.near_path(0.2), 2000, False),
        ("near-path", OffspringDistribution.near_path(0.1), 2000, False),
        ("second-moment", _CLASS_LAWS["second-moment"](), 2000, True),
        ("stretched", _CLASS_LAWS["stretched"](), 2000, True),
        ("branching", _CLASS_LAWS["branching"](), 2000, False),
        ("census", None, 17, False),
        ("census", None, 18, True),
        ("census", None, 117, True),
        ("census", None, 118, True),
        ("census", None, 2000, True)])
    def test_default_routes(self, family, law, n, halving):
        assert self.halves(law, n) is halving

    def test_no_spread_takes_rejection(self):
        # sigma = 0: a single node, or a law with all its mass below n at 0
        assert not self.halves(OffspringDistribution.geometric(0.5), 1)
        assert not self.halves(
            OffspringDistribution.from_masses({0: 0.01, 60: 0.99}), 5)

    @pytest.fixture
    def tables(self, monkeypatch):
        built = []

        def spy(law, n):
            built.append(n)
            return conditional_sum_table(law, n)
        monkeypatch.setattr(samplers, "conditional_sum_table", spy)
        return built

    def test_halving_rung_shares_one_table(self, tables):
        run_concentration("stretched", n=2000, replications=3, seed=2)
        assert tables == [2000]

    def test_rejection_route_builds_no_table(self, tables):
        run_concentration("branching", n=60, replications=3, seed=2)
        assert tables == []

    @pytest.mark.parametrize("n, built", [(2000, [2000]), (10, [])],
                             ids=["halving-n2000", "rejection-n10"])
    def test_census_builds_its_table_in_samplers(self, tables, n, built):
        run_concentration("census", n=n, replications=3, seed=1,
                          tolerance=1.0)
        assert tables == built
        assert not hasattr(harness, "conditional_sum_table")
