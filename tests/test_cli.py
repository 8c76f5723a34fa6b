"""End-to-end checks of the argparse front end via main(argv)."""

import json
import os
import subprocess
import sys
import time

import pytest

import arbor
from arbor.cli import main
from arbor.harness import CSV_COLUMNS, full_binary_statistics
from arbor.trees import DegreeStatistics, PlaneTree


@pytest.fixture
def stats_file(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps({"0": 4, "2": 3}))
    return str(path)


@pytest.fixture
def binary15_file(tmp_path):
    path = tmp_path / "binary15.json"
    path.write_text(json.dumps({"0": 8, "2": 7}))
    return str(path)


def test_equiv_prints_report_and_exits_zero(capsys):
    code = main(["equiv", "--max-n", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["config"]["kind"] == "equivalence"


def test_equiv_rejects_oversized_request(capsys):
    code = main(["equiv", "--max-n", "99"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_tails_writes_report_files(tmp_path, binary15_file, capsys):
    base = tmp_path / "sweep"
    code = main(["tails", "--stats", binary15_file, "--reps", "3000",
                 "--seed", "2", "--out", str(base)])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS ")
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["config"]["replications"] == 3000
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    assert len(csv_lines) == len(doc["cells"]) + 1


def test_tails_at_binary_4095_and_a_large_beta_is_quick(tmp_path, capsys):
    # the beta = 2,000 tau cell certifies at k' = 221 of a threshold of
    # 90,487, one vector step per k on the float tails
    path = tmp_path / "binary4095.json"
    path.write_text(full_binary_statistics(4095).to_json())
    start = time.perf_counter()
    code = main(["tails", "--stats", str(path), "--grid", "2000",
                 "--reps", "2000"])
    assert time.perf_counter() - start < 5.0
    assert code in (0, 1)  # a nearly tight height>=ell cell may fail on noise
    doc = json.loads(capsys.readouterr().out)
    tau = [c for c in doc["cells"] if c["grid_value"].startswith("tau>")]
    assert [(c["grid_value"], c["verdict"]) for c in tau] == [
        ("tau>beta=2000", True)]


def test_tails_drops_a_height_cell_no_replication_count_resolves(tmp_path,
                                                                capsys):
    # at binary n = 4,095 the beta = 20,000 height bound is 9.3e-14, under
    # ten times the zero-hit Wilson ceiling 0.0019 of 2,000 replications,
    # so the cell could never pass; the certified tau cell stays
    path = tmp_path / "binary4095.json"
    path.write_text(full_binary_statistics(4095).to_json())
    code = main(["tails", "--stats", str(path), "--grid", "20000",
                 "--reps", "2000"])
    assert code in (0, 1)  # a nearly tight height>=ell cell may fail on noise
    labels = [c["grid_value"] for c in json.loads(capsys.readouterr().out)[
        "cells"]]
    assert "height>beta=20000" not in labels
    assert "tau>beta=20000" in labels


def test_tails_accepts_a_beta_grid(binary15_file, capsys):
    code = main(["tails", "--stats", binary15_file, "--reps", "2000",
                 "--grid", "90, 150"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["grid"] == [90.0, 150.0]


def test_tails_path_statistics_fail_cleanly(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"0": 1, "1": 4}))
    code = main(["tails", "--stats", str(path), "--reps", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_reports_instead_of_crashing(tmp_path, capsys):
    code = main(["tails", "--stats", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_reports_instead_of_crashing(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["tails", "--stats", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_converge_near_path_smoke(capsys):
    code = main(["converge", "--family", "near-path", "--sizes", "40",
                 "--grid", "0.5,0.2", "--reps", "6", "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code in (0, 1)  # trend verdicts are probabilistic at this scale
    assert doc["config"]["family"] == "near-path"
    assert [c["grid_value"] for c in doc["cells"]][-1] == "chat-spread"


def test_converge_with_explicit_mu(tmp_path, capsys):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps({"0": 0.5, "2": 0.5}))
    code = main(["converge", "--family", "control", "--mu", str(mu_path),
                 "--sizes", "21,41", "--reps", "8", "--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert doc["config"]["target"] == {"0": 0.5, "2": 0.5}


def test_concentrate_leaf_writes_files(tmp_path, capsys):
    base = tmp_path / "leaf_report"
    code = main(["concentrate", "--class", "leaf", "--out", str(base)])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS ")
    assert (tmp_path / "leaf_report.json").exists()
    assert (tmp_path / "leaf_report.csv").exists()


@pytest.mark.parametrize("n", ["0", "5000"])
def test_concentrate_leaf_refuses_n(n, capsys):
    code = main(["concentrate", "--class", "leaf", "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "6..12" in captured.err


@pytest.mark.parametrize("cls", ["second-moment", "stretched", "branching",
                                 "census"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_concentrate_refuses_fewer_than_one_node(cls, n, capsys):
    code = main(["concentrate", "--class", cls, "--n", n, "--reps", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need at least one node\n"


def test_concentrate_n_defaults_to_2000(capsys):
    code = main(["concentrate", "--class", "branching", "--reps", "3",
                 "--threshold", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["sizes"] == [2000]


@pytest.mark.parametrize("grid", ["-5", "0", "80,0"])
def test_tails_refuses_a_non_positive_beta(grid, binary15_file, capsys):
    code = main(["tails", "--stats", binary15_file, "--grid", grid,
                 "--reps", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, name", [
    (["--class", "census", "--n", "5", "--threshold", "nan"], "threshold"),
    (["--class", "branching", "--n", "50", "--eps", "nan"], "eps"),
    (["--class", "stretched", "--n", "50", "--factor", "inf"], "factor"),
    (["--class", "census", "--n", "5", "--tolerance", "-0.5"], "tolerance"),
    (["--class", "leaf", "--threshold", "2"], "threshold")])
def test_concentrate_refuses_values_json_cannot_hold(argv, name, capsys):
    code = main(["concentrate", *argv, "--reps", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must ")
    assert len(captured.err.splitlines()) == 1


def test_concentrate_census_smoke(capsys):
    code = main(["concentrate", "--class", "census", "--n", "40",
                 "--reps", "3", "--tolerance", "1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["family"] == "census"


@pytest.mark.parametrize("argv", [
    ["converge", "--family", "near-path", "--mu", "MU", "--reps", "4"],
    ["converge", "--family", "near-path", "--sizes", "40,60", "--reps", "4"],
    ["converge", "--family", "heavy", "--grid", "0.5", "--reps", "4"],
    ["converge", "--family", "control", "--grid", "0.5", "--reps", "4"],
    ["concentrate", "--class", "census", "--mu", "MU", "--reps", "4"],
    ["concentrate", "--class", "leaf", "--mu", "MU"]])
def test_inputs_a_runner_would_ignore_exit_2(argv, tmp_path, capsys):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps({"0": 0.5, "2": 0.5}))
    code = main([str(mu_path) if a == "MU" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("law", [
    {"family": "geometric"},
    {"family": "stretched", "params": [1]},
    {"family": "anchored", "params": [18, 0.05, 40, 0.0, 1.5, 0.1]},
    {"0": None, "2": 0.5},
    {"0": 0.5, "2": 0.5, "3": True}],
    ids=["geometric-none", "stretched-short", "anchored-alpha-1.5", "null-mass",
         "bool-mass"])
def test_malformed_mu_exits_2(law, tmp_path, capsys):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps(law))
    # two sizes, so the law is the only fault in the command
    code = main(["converge", "--mu", str(mu_path), "--sizes", "21,41",
                 "--reps", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("text", ['{"0": 8.9, "2": 7}',
                                  '{"0": 8, "1": true, "2": 7}'],
                         ids=["float-count", "bool-count"])
def test_non_integer_counts_exit_2(text, tmp_path, capsys):
    # the float count was truncated to {0: 8, 2: 7} and swept with exit 0
    path = tmp_path / "stats.json"
    path.write_text(text)
    code = main(["tails", "--stats", str(path), "--reps", "200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["converge", "--sizes", ","], "empty size list"),
    (["converge", "--family", "near-path", "--grid", " "], "empty grid"),
    (["tails", "--grid", ","], "empty grid")])
def test_empty_lists_exit_with_their_message(argv, message, stats_file,
                                             capsys):
    # bad input exits 2 with one error line; exit 1 is a failing report
    if argv[0] == "tails":
        argv = argv + ["--stats", stats_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_concentrate_rejects_unknown_class(capsys):
    with pytest.raises(SystemExit):
        main(["concentrate", "--class", "misc"])
    capsys.readouterr()


def test_sample_emits_valid_trees(stats_file, capsys):
    code = main(["sample", "--stats", stats_file, "--count", "5",
                 "--seed", "9"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 5
    want = DegreeStatistics({0: 4, 2: 3})
    for line in lines:
        tree = PlaneTree.from_line(line)
        assert tree.degree_statistics() == want


def test_sample_to_file_matches_stdout(tmp_path, stats_file, capsys):
    out = tmp_path / "trees.txt"
    assert main(["sample", "--stats", stats_file, "--count", "3",
                 "--seed", "9", "--out", str(out)]) == 0
    assert main(["sample", "--stats", stats_file, "--count", "3",
                 "--seed", "9"]) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sample_rejects_a_count_below_one(stats_file, count, capsys):
    code = main(["sample", "--stats", stats_file, "--count", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_zn_prints_integer_counts(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [1, 0, 1], "rho": "infinity"}))
    code = main(["zn", "--weights", str(path), "--n", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_zn_prints_exact_rationals(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [1, "1/2"], "rho": "infinity"}))
    code = main(["zn", "--weights", str(path), "--n", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_zn_prints_correctly_rounded_floats(tmp_path, capsys):
    # the float powering printed 8e-301 here
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [1e100, 1e-100]}))
    code = main(["zn", "--weights", str(path), "--n", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1e-300"


@pytest.mark.parametrize("text", [
    '[1, "1/2"]',  # a list, not an object
    '"1/2"',  # a bare string
    '{"rho": "infinity"}',  # no "weights"
    '{"weights": [1, "1/0"]}',  # zero denominator
    '{"weights": [1, 1e400]}',  # overflows to inf while parsing
    '{"weights": [1, 1e300]}',  # Z_5 = 1e1200 overflows a float
    '{"weights": [1, NaN, 1]}',  # json reads NaN as a float
    '{"weights": [1, Infinity]}',
    '{"weights": [1, true, 1]}',
])
def test_zn_refuses_malformed_weights(tmp_path, capsys, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    code = main(["zn", "--weights", str(path), "--n", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


# Runs the front end with every scipy import made to fail, so the package
# must work on its runtime dependencies alone (scipy is test-only).
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import arbor, arbor.cli, arbor.harness
sys.exit(arbor.cli.main(sys.argv[1:]))
"""


def _run_without_scipy(*argv, timeout=120):
    src = os.path.dirname(os.path.dirname(os.path.abspath(arbor.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", _NO_SCIPY, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("beta", ["1e10", "1e308"])
def test_tails_fails_a_tau_cell_whose_bound_underflows(beta, tmp_path):
    # at binary n = 9 the tau bound underflows to 0.0 and the cutoff is
    # 2e10 or infinite; once the float tails drop below TAU_FLOOR their
    # upper end stops moving, so the cell fails there instead of scanning
    # on (a hang, or an OverflowError for the infinite cutoff)
    path = tmp_path / "binary9.json"
    path.write_text(json.dumps({"0": 5, "2": 4}))
    run = _run_without_scipy("tails", "--stats", str(path), "--grid", beta,
                             "--reps", "2000", timeout=5)
    assert run.returncode == 1, run.stderr
    assert run.stdout.startswith("{")  # the report, not a traceback
    tau = [c for c in json.loads(run.stdout)["cells"]
           if c["grid_value"].startswith("tau>")]
    assert len(tau) == 1
    assert tau[0]["bound"] == 0.0 and tau[0]["verdict"] is False
    assert tau[0]["ci_lo"] == 0.0 < tau[0]["ci_hi"]


def test_runs_without_scipy(stats_file, binary15_file):
    equiv = _run_without_scipy("equiv", "--max-n", "5")
    assert equiv.returncode == 0, equiv.stderr
    doc = json.loads(equiv.stdout)
    assert doc["passed"] is True and doc["config"]["kind"] == "equivalence"

    sample = _run_without_scipy("sample", "--stats", stats_file,
                                "--count", "3", "--seed", "9")
    assert sample.returncode == 0, sample.stderr
    lines = sample.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        tree = PlaneTree.from_line(line)
        assert tree.degree_statistics() == DegreeStatistics({0: 4, 2: 3})

    # the heavy ladder's default law is normalised by the Hurwitz zeta
    ladder = _run_without_scipy("converge", "--family", "heavy",
                                "--sizes", "20,40", "--reps", "4")
    assert ladder.returncode in (0, 1), ladder.stderr
    doc = json.loads(ladder.stdout)
    assert doc["config"]["family"] == "heavy"
    assert doc["config"]["sizes"] == [20, 40]

    # the threshold walk and the certified float repeat-time tails
    tails = _run_without_scipy("tails", "--stats", binary15_file,
                               "--reps", "2000")
    assert tails.returncode == 0, tails.stderr
    doc = json.loads(tails.stdout)
    assert doc["passed"] is True and doc["config"]["replications"] == 2000

    # the census weights and their critical tilt
    census = _run_without_scipy("concentrate", "--class", "census",
                                "--n", "40", "--reps", "4",
                                "--tolerance", "1.0")
    assert census.returncode == 0, census.stderr
    doc = json.loads(census.stdout)
    assert doc["passed"] is True and doc["config"]["replications"] == 4
