"""One workload process of the arbor benchmark.

    python3 perfbench/workloads.py --workload tails --seed 17 --trace 0 \
        [--setup-only]

Run by `run.py` in a fresh interpreter with ARBOR_THREADS=1 and `src` on
PYTHONPATH.  The process imports arbor, builds the workload's inputs and
prints `ready` (the parent times process start to that line as set-up).
Then it runs one measured round on `--seed`, checks its outputs and prints
one JSON line with the round time, peak RSS, check counts and, under
`--trace 1`, the per-layer metrics of a second, traced round.  Why each
workload exists and what each metric should move is in README.md next to
this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

import numpy as np
import scipy
from scipy.stats import binom

import arbor.bounds as bounds
import arbor.enumeration as enumeration
import arbor.harness as harness
import arbor.weights as weights
from arbor.samplers import OffspringDistribution

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(CHECKOUT, ".perfbench_out")

CENSUSES = {"binary": harness.full_binary_statistics,
            "heavy": harness.heavy_tailed_statistics}
TAIL_SIZES = (127, 1023, 4095)
# 20,000 rows fill exactly one chunk of the Poisson batch, so the interval
# bitmap is as large as in the 100,000-replication battery.
TAIL_REPS = 20_000
TREE_REPS = 20
LAW_SIZES = (1023, 2047)
EQUIVALENCE_MAX_N = 9
EXACT_SLACK = 1e-12  # float bounds against exact rational tails
MC_LEVEL = 1e-9  # two-sided binomial p below this flags a Monte Carlo tail


# ---------------------------------------------------------------------------
# inputs (built inside set-up) and one measured round per workload
# ---------------------------------------------------------------------------

def setup_tails():
    return {f"{c}-n{n}": make(n) for n in TAIL_SIZES
            for c, make in CENSUSES.items()}


def round_tails(inputs, seed, out, tracer):
    reports = {}
    for case, stats in inputs.items():
        tracer.case = case
        report = harness.run_tail_sweep(stats, replications=TAIL_REPS,
                                        seed=seed)
        report.write(os.path.join(out, f"tails_{case}"))
        reports[case] = report
    return reports


def setup_trees():
    return {"heavy": OffspringDistribution.power_law(2.5, 0.95),
            "control": OffspringDistribution.from_masses({0: 0.5, 2: 0.5}),
            "second-moment": OffspringDistribution.anchored_heavy(
                18, 0.05, 40, 0.1),
            "stretched": OffspringDistribution.stretched_exp(0.95),
            "branching": OffspringDistribution.from_masses(
                {0: 0.4, 1: 0.2, 2: 0.4})}


def round_trees(laws, seed, out, tracer):
    # the convergence ladder's acceptance seed is 11 and the concentration
    # battery's is 101, so the default seed reproduces both offsets
    reports = {}
    for family in ("heavy", "control", "near-path"):
        tracer.case = family
        report = harness.run_convergence(mu=laws.get(family),
                                         replications=TREE_REPS, seed=seed,
                                         family=family)
        report.write(os.path.join(out, f"converge_{family}"))
        reports[family] = report
    for cls in harness.CONCENTRATION_CLASSES:
        tracer.case = cls
        report = harness.run_concentration(cls, mu=laws.get(cls),
                                           replications=TREE_REPS,
                                           seed=seed + 90)
        report.write(os.path.join(out, f"concentrate_{cls}"))
        reports[cls] = report
    return reports


def setup_exact():
    stats = {f"{c}-n{n}": make(n) for n in LAW_SIZES
             for c, make in CENSUSES.items()}
    sequences = {
        "rational-n200": (weights.WeightSequence.from_list(
            [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]), 200),
        "integer-n400": (weights.WeightSequence.from_list([2, 1, 0, 1, 3]),
                         400),
    }
    return stats, sequences


def round_exact(inputs, seed, out, tracer):
    # no RNG anywhere: the seed only varies which round this is
    stats_by_case, sequences = inputs
    tracer.case = "equivalence"
    report = harness.run_equivalence_suite(max_n=EQUIVALENCE_MAX_N)
    report.write(os.path.join(out, "equivalence"))
    outputs = {"equivalence": report}
    for case, stats in stats_by_case.items():
        tracer.case = case
        height = enumeration.exact_threshold_sampler_distribution(stats)
        sigma = enumeration.exact_stopping_index_distribution(stats)
        outputs[f"threshold_law.{case}"] = height
        outputs[f"stopping_law.{case}"] = sigma
        outputs[f"bound_check.{case}"] = exact_bound_violations(stats, height,
                                                                sigma)
    for case, (seq, n) in sequences.items():
        tracer.case = case
        outputs[f"partition.{case}"] = weights.partition_function(seq, n)
    return outputs


def _tail_geq_table(law, top):
    """geq[k] = P(X >= k) for 0 <= k <= top + 1, one linear pass."""
    pmf = law.pmf()
    geq = [Fraction(0)] * (top + 2)
    for k in range(top, -1, -1):
        geq[k] = geq[k + 1] + pmf.get(k, Fraction(0))
    return geq


def exact_bound_violations(stats, height_law, sigma_law):
    """(checks, violations) of the closed-form tail bounds against the exact
    height and stopping-index laws: every beta, and every ell for classes
    without degree-1 nodes (the acceptance test's check)."""
    inp = bounds.BoundInput.from_stats(stats)
    n = stats.n
    h_geq = _tail_geq_table(height_law, n)
    checks = bad = 0
    for beta in harness.DEFAULT_BETAS:
        thr = bounds.height_threshold(inp, beta)
        exact = h_geq[min(n + 1, int(math.floor(thr)) + 1)]
        checks += 1
        bad += float(exact) > bounds.height_tail_bound(inp, beta) + EXACT_SLACK
    if stats.count(1) == 0 and n >= 2:
        s_geq = _tail_geq_table(sigma_law, n + 1)
        for ell in range(1, n + 1):
            checks += 2
            bad += (float(h_geq[ell])
                    > bounds.height_tail_bound_no_ones(inp, ell) + EXACT_SLACK)
            bad += (float(s_geq[min(n + 2, ell + 1)])
                    > bounds.stopping_tail_bound_no_ones(inp, ell) + EXACT_SLACK)
    return checks, int(bad)


WORKLOADS = {"tails": (setup_tails, round_tails),
             "trees": (setup_trees, round_trees),
             "exact": (setup_exact, round_exact)}


# ---------------------------------------------------------------------------
# output fingerprints and checks
# ---------------------------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(value) -> str:
    """Digest of an output: a report without its wall clock and version, an
    exact law's JSON, or a partition value's exact decimal or fraction."""
    if isinstance(value, harness.ExperimentReport):
        body = value.to_jsonable()
        return _sha(json.dumps({k: body[k] for k in ("config", "cells",
                                                     "passed")},
                               sort_keys=True))
    if isinstance(value, enumeration.ExactDistribution):
        return _sha(value.to_json())
    return _sha(str(value))


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


class Checks:
    """Counts attempted and failed checks (verdict cells, exact digests,
    exact bound checks) and collects anything that makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.false_failures = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def cells(self, name, report, is_false_failure=lambda cell: False):
        """Verdict cells of one report.  A failing cell counts as failed
        either way; it makes the run incorrect unless `is_false_failure`
        shows that the verdict rule, not the program, is at fault."""
        for cell in report.cells:
            self.attempted += 1
            if not math.isfinite(cell.empirical):
                self.problem(f"{name} {cell.grid_value}: non-finite value")
            if not cell.verdict:
                self.failed += 1
                if is_false_failure(cell):
                    self.false_failures += 1
                else:
                    self.problem(f"{name} {cell.grid_value}: verdict failed")

    def digest(self, name, value, want) -> None:
        self.attempted += 1
        if fingerprint(value) != want:
            self.failed += 1
            self.problem(f"{name}: exact output differs from the reference")


def tail_reference(ref: dict, stats):
    """Exact tail of a sweep cell from the recorded laws, or None for the
    Poisson repeat-time cells, which have no exact law here."""
    inp = bounds.BoundInput.from_stats(stats)
    geq, gt = ref["height_geq"], ref["sigma_gt"]

    def at(table, k):
        return table[k] if k < len(table) else 0.0

    def exact_tail(cell):
        label, value = str(cell.grid_value).rsplit("=", 1)
        if label == "height>beta":
            thr = bounds.height_threshold(inp, float(value))
            return at(geq, int(math.floor(thr)) + 1)
        if label == "height>=ell":
            return at(geq, int(value))
        if label == "sigma>ell":
            return at(gt, int(value))
        return None
    return exact_tail


def check_tails(checks, inputs, reports, reference) -> None:
    for case, report in reports.items():
        exact_tail = tail_reference(reference["tails"][case], inputs[case])
        reps = report.config.replications
        for cell in report.cells:
            p = exact_tail(cell)
            if p is None:
                continue
            hits = round(cell.empirical * reps)
            pval = 2 * min(binom.cdf(hits, reps, p), binom.sf(hits - 1, reps, p))
            if pval < MC_LEVEL:
                checks.problem(f"tails {case} {cell.grid_value}: {hits} hits "
                               f"of {reps} against exact tail {p!r}")

        def inside_bound(cell):
            # the Wilson rule cannot resolve an exact tail just under its bound
            p = exact_tail(cell)
            return p is not None and p <= cell.bound + EXACT_SLACK
        checks.cells(f"tails {case}", report, inside_bound)


def _threshold_in_interval(cell) -> bool:
    # 19 of 20 trees fails "fraction >= 0.99", yet its Wilson interval still
    # reaches 0.99: the sample cannot show the class misses the threshold
    return (str(cell.grid_value).endswith("pass-fraction")
            and cell.ci_hi >= cell.bound)


def check_trees(checks, inputs, reports, reference) -> None:
    for name, report in reports.items():
        checks.cells(f"trees {name}", report, _threshold_in_interval)


def check_exact(checks, inputs, outputs, reference) -> None:
    want = reference["exact"]
    for name, value in outputs.items():
        if name.startswith("bound_check."):
            done, bad = value
            checks.attempted += done
            checks.failed += bad
            if bad:
                checks.problem(f"{name}: {bad} exact bound violations")
            continue
        if name == "equivalence":
            checks.cells(name, value)
        checks.digest(name, value, want[name])


CHECKS = {"tails": check_tails, "trees": check_trees, "exact": check_exact}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(CHECKOUT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    src = os.path.dirname(os.path.abspath(harness.__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "commit": _git_commit(),
            "src_sha256": h.hexdigest(),
            "arbor_threads": os.environ.get("ARBOR_THREADS")}


# ---------------------------------------------------------------------------
# one measured round
# ---------------------------------------------------------------------------

class _Untraced:
    case = ""


def _timed_round(round_fn, inputs, seed, out, tracer):
    start = perf_counter()
    outputs = round_fn(inputs, seed, out, tracer)
    return perf_counter() - start, outputs


def measure(workload: str, inputs, seed: int, trace: bool) -> dict:
    """One round on `seed`, checked; under tracing, the same round again with
    the tracer installed, whose outputs must be identical."""
    _, round_fn = WORKLOADS[workload]
    check = CHECKS[workload]
    reference = load_reference()
    os.makedirs(OUT_ROOT, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_ROOT)
    checks = Checks()
    result = {}
    try:
        wall, outputs = _timed_round(round_fn, inputs, seed, out, _Untraced())
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check(checks, inputs, outputs, reference)
        if trace:
            from tracing import DROPPED, Tracer, layer_metrics
            plain = {k: fingerprint(v) for k, v in outputs.items()}
            del outputs
            tracer = Tracer()
            tracer.round_id = seed
            tracer.install()
            try:
                traced, outputs = _timed_round(round_fn, inputs, seed, out,
                                               tracer)
            finally:
                tracer.uninstall()
            check(checks, inputs, outputs, reference)
            if {k: fingerprint(v) for k, v in outputs.items()} != plain:
                checks.problem("tracing changed an output")
            result["per_layer"] = layer_metrics(tracer.spans, seed, traced)
            result["per_layer"]["bench.untraced_wall.s"] = wall
            result["per_layer"]["bench.traced_wall.s"] = traced
            result["dropped"] = DROPPED
            tracer.dump(os.path.join(OUT_ROOT,
                                     f"{workload}-{seed}.spans.jsonl"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result.update(attempted=checks.attempted, failed=checks.failed,
                  false_failures=checks.false_failures,
                  problems=checks.problems, env=environment())
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    inputs = WORKLOADS[args.workload][0]()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(args.workload, inputs, args.seed, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
