"""Smoke runs of the battery scripts in scripts/ at small sizes.

Each script runs in a subprocess on the checkout's own package.  It must
write a JSON and a CSV report for every run it makes and exit 0 exactly
when every report it wrote passed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

BATTERIES = [
    ("equivalence_suite.py", ["--max-n", "5", "--out", "{out}/equivalence"],
     ["equivalence"]),
    ("tail_sweep_battery.py", ["--reps", "500", "--sizes", "15",
                               "--out-dir", "{out}"],
     ["tails_binary_15", "tails_heavy_15"]),
    ("convergence_ladder.py", ["--reps", "4", "--out-dir", "{out}"],
     ["converge_heavy", "converge_control", "converge_near_path"]),
    ("concentration_battery.py", ["--n", "100", "--reps", "4",
                                  "--out-dir", "{out}"],
     ["concentrate_second_moment", "concentrate_stretched",
      "concentrate_branching", "concentrate_census", "concentrate_leaf"]),
]


@pytest.mark.parametrize("script,args,reports", BATTERIES,
                         ids=[b[0] for b in BATTERIES])
def test_battery_writes_reports_and_exit_code(tmp_path, script, args,
                                              reports):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(a.format(out=tmp_path) for a in args)],
        env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path,
        capture_output=True, text=True, timeout=300)
    assert run.returncode in (0, 1), run.stderr
    passed = []
    for base in reports:
        assert (tmp_path / f"{base}.csv").is_file()
        doc = json.loads((tmp_path / f"{base}.json").read_text())
        passed.append(doc["passed"] is True)
    assert run.returncode == (0 if all(passed) else 1), run.stdout
