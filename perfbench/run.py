#!/usr/bin/env python3
"""Benchmark entry point for arbor.

    python3 perfbench/run.py --workload tails|trees|exact|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Every round of a workload runs in a fresh
process (`workloads.py`) with ARBOR_THREADS=1 and this checkout's `src` as
the only PYTHONPATH entry, so a caller's settings cannot leak in and set-up
time and peak memory are per workload.  Set-up is timed from process start
to the workload's `ready` line.  `setup_s` and `wall_s` are medians over the
run's processes and `peak_rss_mb` is the least of their peaks (each process
runs one round).

The last line of output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`).  fail_frac, every failing check over `attempted`, is printed
above it; the JSON `failed` leaves out the known false failures of a verdict
rule described in README.md.
Metric names, workloads and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("tails", "trees", "exact")
DEFAULT_SEEDS = {"tails": 17, "trees": 11, "exact": 0}
SETUP_SAMPLES = 5  # set-ups timed per run, the measured processes included
SEED_STRIDE = 1000  # round j of a run draws from seed + SEED_STRIDE * j
CHILD_TIMEOUT = 170.0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=os.path.join(CHECKOUT, "src"), ARBOR_THREADS="1",
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _spawn(args: list[str]) -> tuple[float, str]:
    """Run one workload process; return (seconds from start to `ready`, the
    rest of its standard output)."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"workload process failed "
                           f"(exit {proc.returncode}): {' '.join(args)}")
    return ready, rest


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Start one measured process per round until the next would overrun
    `seconds`, then top the set-up samples up to SETUP_SAMPLES."""
    rounds, setups = [], []
    begin = perf_counter()
    while True:
        round_seed = seed + SEED_STRIDE * len(rounds)
        ready, rest = _spawn(["--workload", name, "--seed", str(round_seed),
                              "--trace", str(int(trace))])
        setups.append(ready)
        rounds.append(json.loads(rest.strip().splitlines()[-1]))
        elapsed = perf_counter() - begin
        if elapsed + elapsed / len(rounds) > seconds * 1.05:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(["--workload", name, "--seed", str(seed),
                              "--setup-only"])[0])
    median = statistics.median
    problems = [p for r in rounds for p in r["problems"]]
    attempted = sum(r["attempted"] for r in rounds)
    result = {"workload": name, "seed": seed,
              "rounds": [r["wall_s"] for r in rounds],
              "setup_s": median(setups),
              "wall_s": median(r["wall_s"] for r in rounds),
              # one-sided outliers: glibc sometimes keeps ~70 MB of freed
              # heap in a tails process, so take the least of the processes
              "peak_rss_mb": min(r["peak_rss_mb"] for r in rounds),
              "attempted": attempted,
              "failed": sum(r["failed"] for r in rounds),
              "false_failures": sum(r["false_failures"] for r in rounds),
              "problems": problems,
              "correct": not problems and attempted > 0,
              "env": rounds[0]["env"]}
    if trace:
        layer = {key: median(r["per_layer"][key] for r in rounds)
                 for key in rounds[0]["per_layer"]}
        layer["bench.trace_overhead.s"] = (layer["bench.traced_wall.s"]
                                           - layer["bench.untraced_wall.s"])
        result["per_layer"] = layer
        result["dropped"] = rounds[0]["dropped"]
    return result


def _metrics(result: dict, trace: bool) -> dict:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if trace:
        return {m["name"]: {"value": result["per_layer"][m["name"]],
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def _summary(result: dict, metrics: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    rounds = ", ".join(f"{w:.3f}" for w in result["rounds"])
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{len(result['rounds'])} rounds ({rounds} s)")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<64} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<64} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks; {result['false_failures']} "
          f"known false failures of a verdict rule, see README.md)")
    for name, reason in result.get("dropped", {}).items():
        print(f"  dropped {name}: {reason}")
    for text in result["problems"]:
        print(f"  problem: {text}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the battery's acceptance "
                         "seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative (it seeds numpy's SeedSequence)")
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "arbor",
                                       "__init__.py")):
        print(f"perfbench: no arbor sources under {CHECKOUT}/src",
              file=sys.stderr)
        return 2
    # compile once up front so no set-up sample pays for bytecode writing
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(CHECKOUT, "src"), HERE], check=True,
                   stdout=subprocess.DEVNULL)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        result = run_workload(name, seed, args.seconds, bool(args.trace))
        metrics = _metrics(result, bool(args.trace))
        _summary(result, metrics)
        # `failed` counts the checks the program got wrong.  Known false
        # failures of a verdict rule (README.md) are counted in fail_frac
        # above but not here: they depend on how many rounds fit in a run,
        # not on the program.
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": (result["failed"]
                                     - result["false_failures"]),
                          "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
