"""Experiment engine: equivalence suites, tail sweeps, scaling ladders, and
concentration batteries, reported as JSON plus a flat CSV of verdict cells.

Every runner returns an ExperimentReport whose JSON form depends only on the
configuration and seed: replications draw from RNG substreams keyed by
replication index, so rerunning a report reproduces it byte for byte apart
from the wall_clock_seconds field.  Every draw runs in the calling process.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from . import __version__
from .bounds import (BoundInput, height_tail_bound, height_tail_bound_no_ones,
                     height_threshold, repeat_threshold, repeat_time_tail_bound,
                     stopping_tail_bound_no_ones)
from .enumeration import (ExactDistribution, count_forests,
                          enumerate_degree_statistics,
                          exact_threshold_sampler_distribution,
                          repeat_time_tails, spine_probability, word_table)
from .errors import BadParameters
from .rng import RngStream
# the three batch samplers stay bound here, where benchmark tracers patch them
from .samplers import (OffspringDistribution, conditioned_sampler,
                       sample_mark_height_batch, sample_stopping_index_batch,
                       sample_stopping_index_poissonized_batch)
from .stats import wilson_interval
from .trees import DegreeStatistics, depth_table, validate_words
from .weights import (WeightSequence, exact_tree_law, limit_degree_law,
                      simply_generated_sampler)

CSV_COLUMNS = ("experiment", "n", "grid_value", "empirical",
               "ci_lo", "ci_hi", "bound", "verdict")
DEFAULT_BETAS = (80.0, 125.0, 216.0, 343.0)
CONCENTRATION_CLASSES = ("second-moment", "stretched", "branching",
                         "census", "leaf")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One report row: an empirical quantity against its reference value.

    For Monte Carlo tails, empirical is the hit fraction, the interval is a
    95% Wilson interval, and the verdict is ci_hi <= bound, as for a tau
    cell, whose interval is certified to hold the exact tail.  Exact, identity
    and trend cells have degenerate intervals; grid_value names the check.
    """

    experiment: str
    n: int
    grid_value: Any
    empirical: float
    ci_lo: float
    ci_hi: float
    bound: float | None
    verdict: bool

    def csv_row(self) -> list[str]:
        return [self.experiment, str(self.n), _plain(self.grid_value),
                _plain(self.empirical), _plain(self.ci_lo), _plain(self.ci_hi),
                "" if self.bound is None else _plain(self.bound),
                "pass" if self.verdict else "fail"]


def _plain(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    replications: int = 1
    sizes: tuple[int, ...] = ()
    grid: tuple[float, ...] = ()
    target: dict | None = None
    family: str = ""
    threshold: float | None = None
    out: str | None = None

    def to_jsonable(self) -> dict:
        d = asdict(self)
        d["sizes"] = list(self.sizes)
        d["grid"] = list(self.grid)
        return d


# between the fields of a cell and between cells, indented for a field
_CELL_SEP = ",\n      "
_CELL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(_CELL_SEP, ": "))


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    cells: list[Cell]
    version: str
    wall_clock_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.verdict for c in self.cells)

    def to_jsonable(self) -> dict:
        # cell fields are scalars, so the recursive copy `asdict` makes is
        # not needed, and `to_json` can lay the cells out by hand
        names = [f.name for f in fields(Cell)]
        return {"config": self.config.to_jsonable(),
                "cells": [{k: getattr(c, k) for k in names}
                          for c in self.cells],
                "passed": self.passed,
                "version": self.version,
                "wall_clock_seconds": self.wall_clock_seconds}

    def to_json(self) -> str:
        """`json.dumps(self.to_jsonable(), sort_keys=True, indent=2)` plus a
        newline, byte for byte.  `indent` would send the cells to json's
        pure-Python encoder, so the C encoder writes them with `_CELL_SEP`;
        a JSON string holds no raw newline, so only the list's ends and the
        cell boundaries need re-indenting."""
        doc = self.to_jsonable()
        cells = _CELL_ENCODER.encode(doc.pop("cells"))
        if cells != "[]":
            cells = ("[\n    {\n      "
                     + cells[2:-2].replace("}" + _CELL_SEP + "{",
                                           "\n    },\n    {\n      ")
                     + "\n    }\n  ]")
        rest = json.dumps(doc, sort_keys=True, indent=2)  # "{\n  "config"...
        return '{\n  "cells": ' + cells + "," + rest[1:] + "\n"

    def csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(c.csv_row()) for c in self.cells)
        return "\n".join(lines) + "\n"

    def write(self, base: str) -> tuple[str, str]:
        """Write <base>.json and <base>.csv, returning the two paths."""
        if base.endswith(".json"):
            base = base[:-5]
        json_path, csv_path = base + ".json", base + ".csv"
        with open(json_path, "w") as fh:
            fh.write(self.to_json())
        with open(csv_path, "w") as fh:
            fh.write(self.csv_text())
        return json_path, csv_path


def _finish(cells: list[Cell], start: float, **config) -> ExperimentReport:
    return ExperimentReport(config=ExperimentConfig(**config), cells=cells,
                            version=__version__,
                            wall_clock_seconds=time.perf_counter() - start)


def _tail_cell(n: int, label: str, hits: int, reps: int, bound: float) -> Cell:
    """A tail-sweep cell for `hits` of `reps` replications."""
    lo, hi = wilson_interval(hits, reps)
    return Cell("tail_sweep", n, label, hits / reps, lo, hi, bound,
                hi <= bound + 1e-12)


def _tail_counts(values: np.ndarray) -> np.ndarray:
    """counts[k] = #{v >= k} over non-negative integer values, for
    k = 0..max + 1: reversed cumulative sums of one `bincount`."""
    return np.append(np.bincount(values)[::-1].cumsum()[::-1], 0)


def _count_above(counts: np.ndarray, x: float) -> int:
    """#{v > x} for the values whose `_tail_counts` are `counts`."""
    top = counts.size - 1  # counts[top] = 0
    k = 0 if x < 0 else top if x >= top else math.floor(x) + 1
    return int(counts[k])


def _value_cell(experiment: str, n: int, label: str, value: float,
                se: float = 0.0) -> Cell:
    return Cell(experiment, n, label, value, value - 1.96 * se,
                value + 1.96 * se, None, True)


def _verdict_cell(experiment: str, n: int, label: str, value: float,
                  bound: float, verdict: bool) -> Cell:
    return Cell(experiment, n, label, value, value, value, bound, verdict)


def _num(x: float) -> str:
    return format(x, "g")


# ---------------------------------------------------------------------------
# reference statistics used by sweeps and scripts
# ---------------------------------------------------------------------------

def full_binary_statistics(n: int) -> DegreeStatistics:
    """The {0: (n+1)/2, 2: (n-1)/2} census; n must be odd."""
    if n < 1 or n % 2 == 0:
        raise BadParameters("a tree with only leaves and degree-2 nodes "
                            "has an odd node count")
    if n == 1:
        return DegreeStatistics({0: 1})
    return DegreeStatistics({0: (n + 1) // 2, 2: (n - 1) // 2})


def heavy_tailed_statistics(n: int) -> DegreeStatistics:
    """A heavy census on n nodes with leaves and no degree-1 nodes: degree
    counts shaped like c^(-5/2) for c >= 2 plus one large remainder degree.

    Deterministic in n, so sweeps over it are reproducible without an RNG.
    """
    if n < 4:
        raise BadParameters("heavy census needs at least 4 nodes")
    counts: dict[int, int] = {}
    used = 0
    for c in range(2, n):
        k = int(0.35 * n * c ** -2.5)
        if k == 0:
            break
        if used + c * k > n - 1:
            k = (n - 1 - used) // c
        if k <= 0:
            break
        counts[c] = k
        used += c * k
    rest = (n - 1) - used
    if rest == 1:
        counts[2] -= 1
        if counts[2] == 0:
            del counts[2]
        used -= 2
        rest = 3
    if rest >= 2:
        counts[rest] = counts.get(rest, 0) + 1
        used += rest
    internal = sum(counts.values())
    counts[0] = n - internal
    if counts[0] < 1:
        raise BadParameters(f"heavy census infeasible at n = {n}")
    return DegreeStatistics(counts)


# ---------------------------------------------------------------------------
# equivalence suite
# ---------------------------------------------------------------------------

def run_equivalence_suite(max_n: int = 8) -> ExperimentReport:
    """Exhaustive small-n agreement between enumeration and closed forms.

    For every single-tree degree statistics with at most max_n nodes:
      count:     enumerated tree count vs the (a/n)-multinomial formula.
      threshold: threshold-sampler law vs mark-height law, exact rationals.
      histogram: mark-height law vs the enumeration depth histogram.
      spine:     closed-form spine-prefix probabilities (lengths <= 4) vs
                 enumeration ratios over all (tree, mark) pairs, including
                 the total-mass check that nothing is unaccounted for.

    Each size is one `word_table` of all its trees, every degree allowed;
    a row's class is the degree counts it used.  One `depth_table` call
    and one `bincount` over (class, depth) give every class's depth
    histogram, and `_spine_prefixes` counts every class's spine prefixes.
    Discrepancy cells record the worst absolute difference as a float; the
    verdict requires the exact rational difference to be zero.  max_n above
    10 is refused since the suite walks every tree.  Nothing is drawn at
    random, so the report's config records seed 0.
    """
    if not 1 <= max_n <= 10:
        raise BadParameters("equivalence suite runs at 1 <= max_n <= 10")
    start = time.perf_counter()
    cells: list[Cell] = []
    for n, group in itertools.groupby(enumerate_degree_statistics(max_n),
                                      key=lambda stats: stats.n):
        classes = list(group)
        words, unused = word_table(n, [n] * n)
        cls = np.full(len(words), -1)
        for i, stats in enumerate(classes):
            counts = [stats.count(c) for c in range(n)]
            cls[(n - unused == counts).all(axis=1)] = i
        depths = depth_table(words)
        sizes = np.bincount(cls, minlength=len(classes)).tolist()
        histograms = np.bincount((cls[:, None] * n + depths).ravel(),
                                 minlength=len(classes) * n).reshape(-1, n)
        spines = _spine_prefixes(words, depths, cls, min(4, n - 1))
        for stats, size, histogram, seen in zip(
                classes, sizes, histograms.tolist(), spines, strict=True):
            label = "+".join(f"{c}x{k}" for c, k in stats.sorted_items())
            formula = count_forests(stats)
            cells.append(Cell("equivalence", n, f"count {label}",
                              float(size), float(size), float(size),
                              float(formula), size == formula))
            depth_pmf = {d: Fraction(k, size * n)
                         for d, k in enumerate(histogram) if k}
            height_law = ExactDistribution.from_pmf(depth_pmf)
            threshold_law = exact_threshold_sampler_distribution(stats)
            tv = _total_variation(height_law.pmf(), threshold_law.pmf())
            cells.append(_discrepancy_cell(n, f"threshold-vs-height {label}",
                                           tv))
            tv2 = _total_variation(height_law.pmf(), depth_pmf)
            cells.append(_discrepancy_cell(n, f"histogram-vs-height {label}",
                                           tv2))
            cells.append(_discrepancy_cell(
                n, f"spine {label}", _spine_discrepancy(stats, seen, size)))
    return _finish(cells, start, kind="equivalence", seed=0,
                   replications=1, sizes=(max_n,))


def _total_variation(a: dict, b: dict) -> Fraction:
    keys = set(a) | set(b)
    diff = sum((abs(a.get(k, Fraction(0)) - b.get(k, Fraction(0)))
                for k in keys), Fraction(0))
    return diff / 2


def _discrepancy_cell(n: int, label: str, disc: Fraction) -> Cell:
    return _verdict_cell("equivalence", n, label, float(disc), 0.0, disc == 0)


def _spine_prefixes(words: np.ndarray, depths: np.ndarray, cls: np.ndarray,
                    top: int) -> list[Counter]:
    """Marks over all (tree, mark) pairs counted, for each class of `cls`
    (one entry per row of `words`), by each spine prefix of length 1..top:
    the out-degrees of the mark's first k ancestors, root first.  A mark
    deeper than k counts towards its length-k prefix.

    In preorder, a node's ancestor at depth j is the last node of depth j
    at or before it.  A prefix is read as the number with digits d + 1 in
    base n + 1, so prefixes of different lengths never meet, and one
    `np.unique` over (class, prefix) keys counts them all; the keys stay in
    int64 while classes x (n + 1)^top does, ample for the suite's sizes."""
    n = words.shape[1]
    base, width = n + 1, (n + 1) ** top
    nodes = np.arange(n)
    prefix = np.zeros_like(words)
    keys = [np.zeros(0, dtype=np.int64)]
    for j in range(top):
        above = np.maximum.accumulate(np.where(depths == j, nodes, 0), axis=1)
        prefix = prefix * base + np.take_along_axis(words, above, axis=1) + 1
        keys.append((cls[:, None] * width + prefix)[depths > j])
    found, counts = np.unique(np.concatenate(keys), return_counts=True)
    seen = [Counter() for _ in range(int(cls.max()) + 1)]
    for key, count in zip(found.tolist(), counts.tolist()):
        c, rest = divmod(key, width)
        digits: list[int] = []
        while rest:
            rest, d = divmod(rest, base)
            digits.append(d - 1)
        seen[c][tuple(reversed(digits))] = count
    return seen


def _spine_discrepancy(stats: DegreeStatistics, seen: Counter,
                       trees: int) -> Fraction:
    n = stats.n
    total = n * trees
    top = min(4, n - 1)
    worst = Fraction(0)
    for k in range(1, top + 1):
        mass = Fraction(0)
        deep = 0
        for vec, cnt in seen.items():
            if len(vec) != k:
                continue
            closed = spine_probability(stats, vec)
            worst = max(worst, abs(closed - Fraction(cnt, total)))
            mass += closed
            deep += cnt
        # closed-form masses over the seen classes must account for the
        # whole deep-mark event, otherwise some class went missing
        worst = max(worst, abs(mass - Fraction(deep, total)))
    return worst


# ---------------------------------------------------------------------------
# tail sweep
# ---------------------------------------------------------------------------

def run_tail_sweep(stats: DegreeStatistics,
                   betas: Sequence[float] = DEFAULT_BETAS,
                   replications: int = 100_000,
                   seed: int = 0) -> ExperimentReport:
    """Monte Carlo mark-height and stopping-index tails, and certified
    repeat-time tails, against their closed-form bounds.

    Cells emitted:
      height>beta=B:  P(depth of mark > B * p1 / sqrt(p2sq - n1)) vs the
                      two-term bound (trivially 1.0 below the beta floor);
                      like the ell cells below, emitted only when the
                      bound is at or above their Wilson floor.
      height>=ell=L / sigma>ell=L:  the leafless sub-Gaussian bounds; only
                      emitted while the bound stays at or above ten times
                      the zero-success Wilson ceiling.  Below that the interval
                      cannot resolve the comparison at this many
                      replications; the exact oracles cover that range
                      without noise.  The floor does not stop spurious
                      failures where a bound is nearly tight: at binary
                      n = 4,095 the exact P(H >= 1) = 1 - 1/4095 sits just
                      under its bound exp(-1/8188).  At 20,000 replications
                      binary n = 4,095 fails 93 of 461 cells (seed 17) and
                      48 (seed 0), binary n = 1,023 fails none of 235 at
                      seeds 17 and 0, and heavy n = 1,023 and 4,095 fail
                      height>=ell=1 at some seeds, all on noise alone.
      tau>beta=B:     `repeat_time_tails` vs the two-term bound: P(tau > k')
                      in its certified interval at the least k' <= k =
                      floor(threshold) whose upper end is at or below the
                      bound, else the failing P(tau > k), or [0, hi] at the
                      first k whose tail is below TAU_FLOOR, past which hi
                      never moves.  Needs a degree >= 2.

    Each Monte Carlo cell reads its hit count from one table per sample:
    the reversed cumulative sums of a `bincount` of the heights (or
    sigmas) give #{v >= k} for every k, so no cell scans the replications.

    A Monte Carlo verdict passes when the upper 95% Wilson end sits at or
    below the bound; cells are reported individually, never pooled.  The
    bounds hold for every n, so as above a failing Monte Carlo cell near a
    tight bound may be an unlucky seed; ROADMAP item 3 plans exact tails and
    a binomial test instead.  Raises PathDegenerate for path statistics,
    where the beta threshold divides by zero spread.
    """
    if stats.a != 1:
        raise BadParameters("tail sweep needs single-tree statistics")
    if replications < 1:
        raise BadParameters("need at least one replication")
    if not all(0 < beta < math.inf for beta in betas):
        raise BadParameters("every beta must be positive and finite, got "
                            f"{list(betas)}")
    start = time.perf_counter()
    n = stats.n
    norms = stats.norms()
    inp = BoundInput.from_stats(stats)
    inp.branch_scale  # raises PathDegenerate before any sampling
    cells: list[Cell] = []
    heights = sample_mark_height_batch(stats, RngStream(seed, 0), replications)
    sigmas = sample_stopping_index_batch(stats, RngStream(seed, 1), replications)
    height_counts, sigma_counts = _tail_counts(heights), _tail_counts(sigmas)
    floor = 10.0 * wilson_interval(0, replications)[1]
    for beta in betas:
        if (bound := height_tail_bound(inp, beta)) >= floor:
            hits = _count_above(height_counts, height_threshold(inp, beta))
            cells.append(_tail_cell(n, f"height>beta={_num(beta)}", hits,
                                    replications, bound))
    if norms.n1 == 0 and n >= 2:
        # H >= ell counts heights above ell - 1, sigma > ell those above ell
        for label, counts, shift, bound_at in (
                ("height>=ell", height_counts, 1, height_tail_bound_no_ones),
                ("sigma>ell", sigma_counts, 0, stopping_tail_bound_no_ones)):
            for ell in range(1, n + 1):
                bound = bound_at(inp, ell)
                if bound < floor:
                    break
                cells.append(_tail_cell(n, f"{label}={ell}",
                                        _count_above(counts, ell - shift),
                                        replications, bound))
    if stats.max_degree >= 2:
        cells.extend(_repeat_time_cells(stats, inp, betas))
    return _finish(cells, start, kind="tail_sweep", seed=seed,
                   replications=replications, sizes=(n,),
                   grid=tuple(float(b) for b in betas),
                   target=json.loads(stats.to_json()))


def _repeat_time_cells(stats: DegreeStatistics, inp: BoundInput,
                       betas: Sequence[float]) -> list[Cell]:
    # P(tau > k) never increases in k, so the first k' <= k = floor(cutoff)
    # whose upper end is at or below the bound certifies P(tau > k); one walk
    # serves all.  k + 1 > cutoff first holds at k = floor(cutoff), and never
    # for an infinite cutoff.  Once lo is 0 the tails have dropped below
    # TAU_FLOOR and hi stays put, so every cell still open fails there
    want = [(f"tau>beta={_num(b)}", repeat_threshold(inp, b),
             repeat_time_tail_bound(inp, b)) for b in betas]
    cells: dict[int, Cell] = {}
    for k, (tail, lo, hi) in enumerate(repeat_time_tails(stats)):
        for i, (label, cutoff, bound) in enumerate(want):
            if i not in cells and (hi <= bound or k + 1 > cutoff or lo == 0):
                cells[i] = Cell("tail_sweep", stats.n, label, tail, lo, hi,
                                bound, hi <= bound)
        if len(cells) == len(want):
            return [cells[i] for i in range(len(want))]


# ---------------------------------------------------------------------------
# conditioned trees: convergence ladders and concentration batteries
# ---------------------------------------------------------------------------

def _draw_trees(draw, seed: int, cell: int, reps: int) -> np.ndarray:
    """The reps x n stack of the words draw(substream r of RngStream(seed,
    cell)), r < reps, checked in one `validate_words` pass; `draw` is a
    `conditioned_sampler` or a `simply_generated_sampler`."""
    base = RngStream(seed, cell)
    words = np.stack([draw(base.substream(r)) for r in range(reps)])
    validate_words(words)
    return words


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return (float(values.mean()),
            float(values.std(ddof=1) / math.sqrt(len(values))))


def _ladder_measure(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """Heights, widths and mean depths of a rung's trees in one
    `depth_table` pass; depth sums are exact, so the means are too."""
    depths = depth_table(words)
    rows, n = depths.shape
    levels = np.bincount((depths + n * np.arange(rows)[:, None]).ravel(),
                         minlength=rows * n).reshape(rows, n)
    return depths.max(axis=1), levels.max(axis=1), depths.mean(axis=1)


_LADDERS = {  # family -> (default law, default sizes)
    "heavy": (lambda: OffspringDistribution.power_law(2.5, 0.95),
              (200, 800, 3200)),
    "control": (lambda: OffspringDistribution.from_masses({0: 0.5, 2: 0.5}),
                (201, 801, 3201)),
}


def run_convergence(mu: OffspringDistribution | None = None,
                    sizes: Sequence[int] | None = None,
                    replications: int = 200,
                    seed: int = 0,
                    family: str = "heavy",
                    grid: Sequence[float] | None = None) -> ExperimentReport:
    """Scaling ladder for width, height, and mean mark depth.

    family picks the verdicts, since the limit statements only make sense
    relative to a hypothesis class:

      "heavy":    default mu(k) proportional to k^(-5/2) with mean 0.95
                  (subcritical, infinite variance).  Verdict cells require
                  mean wid/sqrt(n) strictly increasing across the ladder and
                  mean ht/(sqrt(n) * log^3 n) strictly decreasing (natural
                  log).  Default sizes (200, 800, 3200).
      "control":  default mu = {0: 1/2, 2: 1/2} on odd sizes
                  (201, 801, 3201); the verdict asks that wid/sqrt(n) does
                  NOT double across the ladder, the finite-variance
                  stability check.
      "near-path": mu(1) = 1 - eps, mu(0) = mu(2) = eps/2 across the eps
                  grid (default 0.5, 0.2, 0.1) at a single size (default
                  2000).  Reports Chat = mean_depth * sqrt(eps) / sqrt(n)
                  per eps and passes when max/min < 2.

    Rung j (a size, or an eps) draws from stream j, by the route
    `conditioned_sampler` picks for it: at the defaults, halving for the
    heavy rungs at n = 800 and 3,200 and rejection for the rest.  A rung's
    words are one stack, handed to one `depth_table` call.  Per size,
    mean cells carry a normal-approximation 95% interval and median cells a
    degenerate one; trend cells compare the means.  Near-path refuses a mu
    or several sizes, the other families a grid, and every family a size
    below 2.
    """
    if replications < 2:
        raise BadParameters("ladder needs at least two replications")
    if family == "near-path":
        if mu is not None or (sizes and len(sizes) > 1):
            raise BadParameters("near-path fixes its laws and takes one size")
        grid = tuple(float(e) for e in (grid or (0.5, 0.2, 0.1)))
        sizes = (int(sizes[0]) if sizes else 2000,)
        rungs = [(OffspringDistribution.near_path(eps), sizes[0])
                 for eps in grid]
    elif family in _LADDERS:
        if grid is not None:
            raise BadParameters(f"the {family} ladder takes no grid")
        default_law, default_sizes = _LADDERS[family]
        mu = mu or default_law()
        sizes = tuple(int(s) for s in (sizes or default_sizes))
        if len(sizes) < 2:
            raise BadParameters("a ladder needs at least two sizes")
        grid, rungs = (), [(mu, n) for n in sizes]
    else:
        raise BadParameters(f"unknown convergence family {family!r}")
    if min(sizes) < 2:
        # at n = 1, log n and every depth are 0, so the cells would divide
        # by zero
        raise BadParameters(f"ladder sizes must be at least 2, got "
                            f"{list(sizes)}")
    start = time.perf_counter()
    cells: list[Cell] = []
    trend = []  # per rung: Chat, or the (wid, ht) means
    for j, (law, n) in enumerate(rungs):
        hts, wids, deps = _ladder_measure(_draw_trees(
            conditioned_sampler(law, n), seed, j, replications))
        if family == "near-path":
            scale = math.sqrt(grid[j]) / math.sqrt(n)
            mean, se = _mean_se(deps)
            trend.append(mean * scale)
            cells.append(_value_cell("convergence", n,
                                     f"chat eps={_num(grid[j])}",
                                     mean * scale, se * scale))
            continue
        root = math.sqrt(n)
        log3 = math.log(n) ** 3
        means = []
        for name, arr in (("wid/sqrt(n)", wids / root),
                          ("ht/(sqrt(n)log^3n)", hts / (root * log3)),
                          ("depth/sqrt(n)", deps / root)):
            mean, se = _mean_se(arr)
            means.append(mean)
            cells.append(_value_cell("convergence", n, name + " mean",
                                     mean, se))
            cells.append(_value_cell("convergence", n, name + " median",
                                     float(np.median(arr))))
        trend.append(tuple(means[:2]))
    last = sizes[-1]
    if family == "near-path":
        spread = max(trend) / min(trend)
        cells.append(_verdict_cell("convergence", last, "chat-spread",
                                   spread, 2.0, spread < 2.0))
    elif family == "heavy":
        wid, ht = zip(*trend)
        ratio_min = min(b / a for a, b in zip(wid, wid[1:]))
        cells.append(_verdict_cell("convergence", last, "wid-trend-min-ratio",
                                   ratio_min, 1.0, ratio_min > 1.0))
        ratio_max = max(b / a for a, b in zip(ht, ht[1:]))
        cells.append(_verdict_cell("convergence", last, "ht-trend-max-ratio",
                                   ratio_max, 1.0, ratio_max < 1.0))
    else:
        span = trend[-1][0] / trend[0][0]
        cells.append(_verdict_cell("convergence", last, "wid-span-ratio",
                                   span, 2.0, span < 2.0))
    return _finish(cells, start, kind="convergence", seed=seed,
                   replications=replications, sizes=sizes, grid=grid,
                   target=None if mu is None else mu.to_jsonable(),
                   family=family)


@functools.cache
def _census_constants() -> tuple[WeightSequence, tuple[float, ...]]:
    """The census class's k^-3 weights and the boundary law pi(0..3),
    solved once per process."""
    weights = WeightSequence.from_generator(
        lambda k: 1.0 if k == 0 else float(k) ** -3.0, rho_hint=1.0)
    pi = limit_degree_law(weights)
    return weights, tuple(pi.mass(k) for k in range(4))


_CLASS_LAWS = {  # default law of each class that takes a mu
    "second-moment": lambda: OffspringDistribution.anchored_heavy(
        18, 0.05, 40, 0.1),
    "stretched": lambda: OffspringDistribution.stretched_exp(0.95),
    "branching": lambda: OffspringDistribution.from_masses(
        {0: 0.4, 1: 0.2, 2: 0.4}),
}


def run_concentration(class_name: str,
                      mu: OffspringDistribution | None = None,
                      n: int = 2000,
                      replications: int = 200,
                      seed: int = 0,
                      threshold: float = 0.99,
                      factor: float = 10.0,
                      eps: float = 0.1,
                      tolerance: float = 0.04) -> ExperimentReport:
    """Per-replication degree-profile inequality checks.

    Classes and their events (pass fraction over replications is compared
    to `threshold`, default 0.99):

      second-moment: infinite-variance offspring law; event
          p2sq >= factor * p1.  Default mu: atom at 18 with mass 0.05 plus a
          k^(-5/2) tail from 40 with mean 0.1, subcritical overall.
      stretched: E[exp(t X)] infinite for every t > 0, still subcritical; same
          event.  Default mu(k) proportional to exp(-sqrt(k)), mean 0.95.
      branching: mu(0) + mu(1) < 1; event
          p2sq - n1 >= 4 * (1 - mu(0) - mu(1) - eps) * p1.  Default mu
          {0: 0.4, 1: 0.2, 2: 0.4} with eps 0.1.
      census: simply generated with w_k = k^(-3); event
          max over k <= 3 of |n(k)/n - pi(k)| < tolerance, pi the boundary
          degree law.  Trees come from `simply_generated_sampler`, which
          solves the tilt and builds the route once per call: halving over
          one `conditional_sum_table` from n = 118 (0.8 ms per word at
          n = 2,000), rejection below it, where 400 trees each drew 47,
          111, 256 and 492 rows per tree at n = 20, 40, 80 and 117
          (0.05-0.35 ms per word on a 2-vCPU VM).  pi is solved once per
          process.
      leaf: factorial-squared weights (zero radius); exact expected leaf
          fraction strictly increasing over n = 6..12.  Deterministic, no
          Monte Carlo; n and replications are ignored.

    The other Monte Carlo classes take the route `conditioned_sampler`
    picks: at the defaults and n = 2,000, second-moment and stretched are
    drawn by halving and branching by rejection.  A class's replications
    are one stack of words from `_draw_trees`, and its event reads n(k),
    p2sq and n1 off every row at once, with p1 = n - 1; the counts are
    exact, so the event is the same float comparison as on `Norms`.

    The census and leaf classes fix their weights and refuse a mu.  Every
    class refuses (BadParameters) a threshold outside [0, 1], a factor or
    tolerance that is not finite and positive, and a non-finite eps, so a
    report never records a value JSON cannot hold.  The degenerate case
    mu(0) + mu(1) = 1 is rejected for the branching class: the event's
    floor would be vacuous and the class hypothesis requires genuine
    branching.
    """
    if class_name not in CONCENTRATION_CLASSES:
        raise BadParameters(f"unknown concentration class {class_name!r}; "
                            f"choices: {', '.join(CONCENTRATION_CLASSES)}")
    if mu is not None and class_name not in _CLASS_LAWS:
        raise BadParameters(f"the {class_name} class fixes its weights "
                            "and takes no mu")
    if not 0 <= threshold <= 1:
        raise BadParameters(f"threshold must lie in [0, 1], got {threshold}")
    for name, value in (("factor", factor), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise BadParameters(f"{name} must be finite and positive, "
                                f"got {value}")
    if not math.isfinite(eps):
        raise BadParameters(f"eps must be finite, got {eps}")
    start = time.perf_counter()
    cells: list[Cell] = []
    if class_name == "leaf":
        weights = WeightSequence.from_generator(
            lambda k: Fraction(math.factorial(k)) ** 2, rho_hint=0.0)
        ladder = tuple(range(6, 13))
        fractions = []
        for size in ladder:
            law = exact_tree_law(weights, size)
            frac = sum((p * Fraction(s.count(0), size)
                        for s, p in law.items()), Fraction(0))
            fractions.append(frac)
            cells.append(_value_cell("concentration", size,
                                     "leaf-fraction", float(frac)))
        increasing = all(b > a for a, b in zip(fractions, fractions[1:]))
        worst = min(float(b - a) for a, b in zip(fractions, fractions[1:]))
        cells.append(_verdict_cell("concentration", ladder[-1],
                                   "leaf-trend-min-step", worst, 0.0,
                                   increasing))
        return _finish(cells, start, kind="concentration", seed=seed,
                       replications=1, sizes=ladder,
                       target={"weights": "(k!)^2"}, family=class_name,
                       threshold=threshold)
    for name, count in (("replication", replications), ("node", n)):
        if count < 1:
            raise BadParameters(f"need at least one {name}")
    if class_name == "census":
        weights, pis = _census_constants()
        draw = simply_generated_sampler(weights, n)

        def holds(words: np.ndarray) -> np.ndarray:
            counts = np.stack([(words == k).sum(axis=1) for k in range(4)],
                              axis=1)
            return np.abs(counts / n - pis).max(axis=1) < tolerance
        target = {"weights": "k^-3", "pi": list(pis), "tolerance": tolerance}
    else:
        mu = mu or _CLASS_LAWS[class_name]()
        if class_name == "branching":
            mu0, mu1 = mu.mass(0), mu.mass(1)
            if mu0 + mu1 >= 1.0 - 1e-12:
                raise BadParameters("branching class requires mu(0) + mu(1) < 1")
            event = {"floor": 4.0 * (1.0 - mu0 - mu1 - eps)}

            def holds(words: np.ndarray) -> np.ndarray:
                return ((words * words).sum(axis=1) - (words == 1).sum(axis=1)
                        >= event["floor"] * (n - 1))
        else:
            event = {"factor": factor}

            def holds(words: np.ndarray) -> np.ndarray:
                return (words * words).sum(axis=1) >= factor * (n - 1)
        if mu.mean() > 1.0 + 1e-9:
            raise BadParameters("concentration classes are subcritical or "
                                f"critical; mean is {mu.mean():.4f}")
        draw = conditioned_sampler(mu, n)
        target = mu.to_jsonable()
        target["event"] = event
    hits = int(np.count_nonzero(holds(_draw_trees(draw, seed, 0,
                                                  replications))))
    frac = hits / replications
    lo, hi = wilson_interval(hits, replications)
    cells.append(Cell("concentration", n, f"{class_name} pass-fraction",
                      frac, lo, hi, threshold, frac >= threshold))
    return _finish(cells, start, kind="concentration", seed=seed,
                   replications=replications, sizes=(n,), target=target,
                   family=class_name, threshold=threshold)
