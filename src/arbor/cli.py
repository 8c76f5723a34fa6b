"""Command-line front end.

Subcommands:
  equiv        exhaustive small-n equivalence suite
  tails        tail sweep for one degree-statistics file (exact tau)
  converge     scaling-trend ladder for an offspring law
  concentrate  degree-profile concentration battery
  sample       draw uniform trees with fixed degree statistics
  zn           partition-function value for a weight sequence

All file inputs are JSON.  Report-producing subcommands print the JSON
report to stdout, or write <out>.json plus <out>.csv when --out is given,
and exit 0 only when every verdict passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import ArborError, BadParameters
from .harness import (CONCENTRATION_CLASSES, DEFAULT_BETAS, ExperimentReport,
                      run_concentration, run_convergence,
                      run_equivalence_suite, run_tail_sweep)
from .rng import RngStream
from .samplers import OffspringDistribution, sample_uniform_tree
from .trees import DegreeStatistics, dump_trees
from .weights import WeightSequence, partition_function


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_stats(path: str) -> DegreeStatistics:
    return DegreeStatistics.from_json(_read_text(path))


def _load_mu(path: str) -> OffspringDistribution:
    return OffspringDistribution.from_jsonable(json.loads(_read_text(path)),
                                               renormalize=True)


def _load_weights(path: str) -> WeightSequence:
    return WeightSequence.from_json(json.loads(_read_text(path)))


def _parse_list(text: str | None, kind, empty: str) -> tuple | None:
    """Comma- or space-separated `kind` values, None for no text."""
    if not text:
        return None
    vals = tuple(kind(tok) for tok in text.replace(",", " ").split())
    if not vals:
        raise BadParameters(empty)
    return vals


def _emit(report: ExperimentReport, out: str | None) -> int:
    if out:
        json_path, csv_path = report.write(out)
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {json_path} {csv_path}")
    else:
        sys.stdout.write(report.to_json())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="arbor",
        description="Random plane trees with fixed degree statistics: "
                    "samplers, exact oracles, tail bounds, experiments.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equiv", help="exhaustive small-n equivalence suite")
    p.add_argument("--max-n", type=int, default=8,
                   help="largest node count, at most 10 (default 8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report base path")

    p = sub.add_parser("tails", help="Monte Carlo height and sigma tails, "
                       "exact tau tails, vs closed-form bounds")
    p.add_argument("--stats", required=True,
                   help="JSON file: object of degree -> count")
    p.add_argument("--grid", default=None,
                   help='beta grid, e.g. "80,125,216,343"')
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("converge", help="width/height scaling ladder")
    p.add_argument("--mu", default=None,
                   help="JSON offspring law (default depends on --family)")
    p.add_argument("--family", choices=("heavy", "control", "near-path"),
                   default="heavy")
    p.add_argument("--sizes", default=None, help='e.g. "200,800,3200"')
    p.add_argument("--grid", default=None,
                   help="eps grid for --family near-path")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("concentrate", help="degree-profile concentration")
    p.add_argument("--class", dest="cls", required=True,
                   choices=CONCENTRATION_CLASSES)
    p.add_argument("--mu", default=None,
                   help="JSON offspring law overriding the class default")
    p.add_argument("--n", type=int, default=None,
                   help="tree size (default 2000); the leaf class runs its "
                        "fixed 6..12 ladder and takes none")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.99,
                   help="required pass fraction (default 0.99)")
    p.add_argument("--factor", type=float, default=10.0,
                   help="second-moment event multiplier (default 10)")
    p.add_argument("--eps", type=float, default=0.1,
                   help="branching-class slack (default 0.1)")
    p.add_argument("--tolerance", type=float, default=0.04,
                   help="census deviation tolerance (default 0.04)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="uniform trees for fixed statistics")
    p.add_argument("--stats", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="write tree lines here instead of stdout")

    p = sub.add_parser("zn", help="partition function of a weight sequence")
    p.add_argument("--weights", required=True,
                   help='JSON file: {"weights": [...], "rho": ...}')
    p.add_argument("--n", type=int, required=True)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "equiv":
            return _emit(run_equivalence_suite(args.max_n, seed=args.seed),
                         args.out)
        if args.command == "tails":
            grid = _parse_list(args.grid, float, "empty grid") or DEFAULT_BETAS
            report = run_tail_sweep(_load_stats(args.stats), betas=grid,
                                    replications=args.reps, seed=args.seed)
            return _emit(report, args.out)
        if args.command == "converge":
            mu = _load_mu(args.mu) if args.mu else None
            sizes = _parse_list(args.sizes, int, "empty size list")
            grid = _parse_list(args.grid, float, "empty grid")
            report = run_convergence(mu=mu, sizes=sizes,
                                     replications=args.reps, seed=args.seed,
                                     family=args.family, grid=grid)
            return _emit(report, args.out)
        if args.command == "concentrate":
            if args.cls == "leaf" and args.n is not None:
                raise BadParameters("the leaf class runs its fixed n = 6..12 "
                                    "ladder and takes no --n")
            mu = _load_mu(args.mu) if args.mu else None
            n = 2000 if args.n is None else args.n
            report = run_concentration(args.cls, mu=mu, n=n,
                                       replications=args.reps, seed=args.seed,
                                       threshold=args.threshold,
                                       factor=args.factor, eps=args.eps,
                                       tolerance=args.tolerance)
            return _emit(report, args.out)
        if args.command == "sample":
            if args.count < 1:
                raise BadParameters("need at least one tree")
            stats = _load_stats(args.stats)
            rng = RngStream(args.seed, 0)
            text = dump_trees(sample_uniform_tree(stats, rng.substream(i))
                              for i in range(args.count))
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        if args.command == "zn":
            value = partition_function(_load_weights(args.weights), args.n)
            if isinstance(value, Fraction) and value.denominator != 1:
                print(f"{value.numerator}/{value.denominator}")
            else:
                print(int(value) if isinstance(value, Fraction) else value)
            return 0
    except (ArborError, OSError, ValueError) as exc:
        # OSError and ValueError cover unreadable or malformed input files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable: argparse enforces the command set")


if __name__ == "__main__":
    sys.exit(main())
