"""The benchmark tracer in perfbench/tracing.py against the live package.

The tracer patches arbor's functions by name from outside the package, so a
rename or a dropped import (say, a sampler `arbor.harness` no longer binds)
breaks only the benchmark's traced runs.  These tests install it here, run
a small sweep under it, and check that uninstalling restores every name.
"""

import importlib.util
from pathlib import Path

import arbor.bounds
import arbor.enumeration
import arbor.harness
import arbor.rng
import arbor.samplers
import arbor.stats
import arbor.trees
import arbor.weights
from arbor.harness import full_binary_statistics, run_tail_sweep

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (arbor.bounds, arbor.enumeration, arbor.harness, arbor.rng,
           arbor.samplers, arbor.stats, arbor.trees, arbor.weights)
CLASSES = (arbor.trees.PlaneTree, arbor.rng.RngStream,
           arbor.bounds.BoundInput, arbor.harness.ExperimentReport)


def load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    return {(owner.__name__, name): value
            for owner in MODULES + CLASSES
            for name, value in vars(owner).items()}


def test_tracer_installs_runs_and_uninstalls():
    tracing = load_tracing()
    before = namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert arbor.harness.run_tail_sweep is not run_tail_sweep
        tracer.case = "binary-n15"
        report = arbor.harness.run_tail_sweep(full_binary_statistics(15),
                                              replications=200, seed=1)
    finally:
        tracer.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"harness.run_tail_sweep", "samplers.mark_height_batch",
            "samplers.stopping_index_batch"} <= names
    plain = run_tail_sweep(full_binary_statistics(15), replications=200,
                           seed=1)
    assert report.cells == plain.cells
    metrics = tracing.layer_metrics(tracer.spans, 0, 1.0)
    assert metrics["harness.run_tail_sweep.self_s"] > 0

