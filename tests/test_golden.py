"""Golden reports: fixed SHA-256 digests of small runs of every runner.

The determinism tests elsewhere compare reruns with each other; these pin
the output itself, so a refactor that moves a single draw, reorders a cell
or changes a float's last bit fails here.  Each digest covers the report
JSON without its wall_clock_seconds field (or, for `arbor sample`, the
printed tree lines).  The draws come from numpy's Generator streams, so a
numpy release that changes one of those streams changes these digests too.
"""

import hashlib
import json

import pytest

from arbor.cli import main
from arbor.harness import (full_binary_statistics, run_concentration,
                           run_convergence, run_equivalence_suite,
                           run_tail_sweep)


def report_digest(report) -> str:
    doc = report.to_jsonable()
    doc.pop("wall_clock_seconds")
    text = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


RUNS = {
    "converge-heavy": lambda: run_convergence(
        family="heavy", sizes=(30, 60), replications=6, seed=4),
    # rejection at n = 200, halving at n = 800, one depth pass per rung
    "converge-heavy-halving": lambda: run_convergence(
        family="heavy", sizes=(200, 800), replications=3, seed=4),
    "converge-control": lambda: run_convergence(
        family="control", sizes=(21, 41), replications=8, seed=3),
    "converge-near-path": lambda: run_convergence(
        family="near-path", sizes=(40,), replications=6, seed=3,
        grid=(0.5, 0.2)),
    "concentrate-second-moment": lambda: run_concentration(
        "second-moment", n=60, replications=6, seed=2),
    "concentrate-stretched": lambda: run_concentration(
        "stretched", n=60, replications=6, seed=2),
    # n = 2,000 draws by halving over one shared table
    "concentrate-stretched-halving": lambda: run_concentration(
        "stretched", n=2000, replications=3, seed=2),
    "concentrate-branching": lambda: run_concentration(
        "branching", n=60, replications=6, seed=2),
    "concentrate-census": lambda: run_concentration(
        "census", n=40, replications=4, seed=1, tolerance=1.0),
    "concentrate-leaf": lambda: run_concentration("leaf", seed=0),
    "tails-binary9": lambda: run_tail_sweep(
        full_binary_statistics(9), replications=500, seed=5),
    "equivalence-6": lambda: run_equivalence_suite(6),
}

GOLDEN = {
    "converge-heavy":
        "abd9fbe517faa5c77774a108310fb6ca84e26d196180444ab606dadb0f68d362",
    "converge-heavy-halving":
        "bb1762d9cc9fbf7e4532e9dd14449c374636f6ed69cbe897ffd38b1002f93b1c",
    "converge-control":
        "1b454433d1ae32cf61beadbbb669e444c2c91a892bffadf6c7091f5d0bec38fe",
    "converge-near-path":
        "6b32129c00b4190a6c7f1bdd025face0b296e846ec2d79e84e2367b4865d622f",
    "concentrate-second-moment":
        "8ac61c301c385d898c3331bc266c9df5c97b5f4fed6f2a1a3f7e611d8850ecd4",
    "concentrate-stretched":
        "05f843cde358a7946c4e4f0d9f8c31834c39bc4d9bfe22db07f03ff84d959dbd",
    "concentrate-stretched-halving":
        "8610addbf9cd547c508ccdafa9362a7a268161c6c1bf51ebe81c6b893bc07e50",
    "concentrate-branching":
        "3f9d1fab020083e605937459d7a26c23a0feca4534cc3066a57d96306b62fc98",
    "concentrate-census":
        "25de8f4298b5f7b5f622ea2f1c28603c16c4d097ab0c2e35f3747421fd4f4a08",
    "concentrate-leaf":
        "5e34b0473c0489fc2b84e374dca1671f89a0f8c4893b95f9df7788dbb44924af",
    "tails-binary9":
        "66ee79c7e0b2c3265da692ad1a21d31b07bd466b34d1619f2c4e9625baab3b90",
    "equivalence-6":
        "c611d85ece8e992e0fc3df8132e9abdd52819ec462a43c425adfbe0e4bf49c77",
}

SAMPLE_GOLDEN = (
    "7a36050c3808356b1424b11a980e97be9806d08eb31d8a646d53ee35b8465e3f")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden_digest(name):
    assert report_digest(RUNS[name]()) == GOLDEN[name]


def test_sample_matches_golden_digest(tmp_path, capsys):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps({"0": 6, "1": 2, "2": 3, "3": 1}))
    assert main(["sample", "--stats", str(path), "--count", "8",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_GOLDEN
