"""Record the exact outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference.json with
  * "exact": the digest of every exact law, partition value and equivalence
    report the `exact` workload produces (see `workloads.fingerprint`);
  * "tails": for every census and size of the `tails` workload, the exact
    tails P(height >= k) and P(sigma > k) as floats, cut where they fall
    below 1e-18, from which each Monte Carlo cell is checked.

Run it only at a commit whose exact outputs are trusted: a rewrite of an
exact routine must reproduce these digests bit for bit, so regenerating the
file to absorb a mismatch defeats the check.
"""

import json
import os
import sys
import tempfile
from fractions import Fraction

import workloads
from arbor.enumeration import (exact_stopping_index_distribution,
                               exact_threshold_sampler_distribution)

CUTOFF = 1e-18


def _upper_tails(law, strict: bool) -> list[float]:
    pmf = law.pmf()
    top = max(pmf)
    tail = Fraction(0)
    out = [0.0] * (top + 2)
    for k in range(top, -1, -1):
        if strict:
            out[k] = float(tail)  # P(X > k)
        tail += pmf.get(k, Fraction(0))
        if not strict:
            out[k] = float(tail)  # P(X >= k)
    while out and out[-1] < CUTOFF:
        out.pop()
    return out


def main() -> int:
    reference = {"tails": {}, "exact": {}}
    for case, stats in workloads.setup_tails().items():
        print(f"tails {case}", flush=True)
        reference["tails"][case] = {
            "height_geq": _upper_tails(
                exact_threshold_sampler_distribution(stats), strict=False),
            "sigma_gt": _upper_tails(
                exact_stopping_index_distribution(stats), strict=True)}
    with tempfile.TemporaryDirectory() as out:
        outputs = workloads.round_exact(workloads.setup_exact(), 0, out,
                                        workloads._Untraced())
    for name, value in outputs.items():
        if not name.startswith("bound_check."):
            reference["exact"][name] = workloads.fingerprint(value)
    path = os.path.join(workloads.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
