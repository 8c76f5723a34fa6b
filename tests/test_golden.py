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
    # halving at n = 200 and 800, one batch and one depth pass per rung
    "converge-heavy-halving": lambda: run_convergence(
        family="heavy", sizes=(200, 800), replications=3, seed=4),
    # halving at n = 800 and 3,200
    "converge-heavy-3200": lambda: run_convergence(
        family="heavy", sizes=(800, 3200), replications=3, seed=4),
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
    # census weights at n = 2,000, tilted and drawn by halving
    "concentrate-census-halving": lambda: run_concentration(
        "census", n=2000, replications=3, seed=1, tolerance=0.01),
    "concentrate-branching": lambda: run_concentration(
        "branching", n=60, replications=6, seed=2),
    "concentrate-census": lambda: run_concentration(
        "census", n=40, replications=4, seed=1, tolerance=1.0),
    "concentrate-leaf": lambda: run_concentration("leaf", seed=0),
    "tails-binary9": lambda: run_tail_sweep(
        full_binary_statistics(9), replications=500, seed=5),
    "equivalence-6": lambda: run_equivalence_suite(6),
    # the suite's cap: every tree of up to 10 nodes, one word table a size
    "equivalence-10": lambda: run_equivalence_suite(10),
}

GOLDEN = {
    "converge-heavy":
        "75fcf6aa22c9d9c3c14f33ee6b756b3704b12281376cfa7ebfaec6df5eb5cec4",
    "converge-heavy-halving":
        "7b7ff77662636d65b8cf860b3933051aba439f3a0317395b99dfa51991856bd9",
    "converge-heavy-3200":
        "2d960639c62411b59eea027f64453294ad075defce49b99f899afee0ee4f9099",
    "converge-control":
        "c81e26c23c65947870c03b2fc4faab839b08fce4c98cc95de3139cbf9b7d0fd0",
    "converge-near-path":
        "3b52273e7b523ec14163ac311bc0b93c6d9f2cea07427b5461121bb0e807a49c",
    "concentrate-second-moment":
        "8ac61c301c385d898c3331bc266c9df5c97b5f4fed6f2a1a3f7e611d8850ecd4",
    "concentrate-stretched":
        "7359d3f666d0393e940117e203c4bb55223617136bf6c0eefe5abade032c7f2e",
    "concentrate-stretched-halving":
        "8610addbf9cd547c508ccdafa9362a7a268161c6c1bf51ebe81c6b893bc07e50",
    # the census digests read target.pi off the certified Phi(1)
    "concentrate-census-halving":
        "d9bd69e3ae817d5c10c6198feb3522fdc55c05685a60fb32e32d4e65f21d5bca",
    "concentrate-branching":
        "3f9d1fab020083e605937459d7a26c23a0feca4534cc3066a57d96306b62fc98",
    "concentrate-census":
        "059fd6ec40825f96d6cb40285f9bb77872066b536358faabf25636c77441c933",
    "concentrate-leaf":
        "5e34b0473c0489fc2b84e374dca1671f89a0f8c4893b95f9df7788dbb44924af",
    "tails-binary9":
        "703e8889a1156fe402d7a7a230c8e9798d333cc5c8d8a1a75966fdd3f4b26ebc",
    "equivalence-6":
        "c611d85ece8e992e0fc3df8132e9abdd52819ec462a43c425adfbe0e4bf49c77",
    "equivalence-10":
        "20e9b7ff05f16dc40c518ccc5669ca0561198a76bfe3636ece41331bddc1b096",
}

# the 8 rows of one uniform-word batch from stream (7, 0)
SAMPLE_GOLDEN = (
    "d58e8991dfc6b79810b5e9d98ab6ebb89473d094af66210d516fe58e142cabdf")


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
