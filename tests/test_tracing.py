"""The benchmark tracer in perfbench/tracing.py against the live package.

The tracer patches arbor's functions by name from outside the package, so a
rename or a dropped import (say, a sampler `arbor.harness` no longer binds)
breaks only the benchmark's traced runs.  These tests install it here, run
each benchmark layer under it, and check that the traced outputs equal the
untraced ones and that uninstalling restores every name.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

import arbor.bounds
import arbor.enumeration
import arbor.harness
import arbor.rng
import arbor.samplers
import arbor.stats
import arbor.trees
import arbor.weights
from arbor.harness import full_binary_statistics, run_tail_sweep
from arbor.rng import RngStream

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



def layer_runs():
    """Name -> a small run of one traced layer, looked up at call time so
    that it goes through whatever the tracer has patched."""
    H, E, S, W = (arbor.harness, arbor.enumeration, arbor.samplers,
                  arbor.weights)
    binary = full_binary_statistics(63)
    heavy = H.heavy_tailed_statistics(63)
    weights = W.WeightSequence.from_list([1, Fraction(1, 2), Fraction(1, 3)])
    heavy_law = H._LADDERS["heavy"][0]()
    return {
        # halving over a sum table at n = 200 and 800, one batch a rung
        "heavy-ladder": lambda: H.run_convergence(
            sizes=(200, 800), replications=4, seed=3, family="heavy").cells,
        "control-ladder": lambda: H.run_convergence(
            sizes=(21, 41), replications=4, seed=3, family="control").cells,
        # the single-tree samplers the tracer binds by name: one-row calls
        # of the batches the batteries draw
        "single-words": lambda: [
            S.sample_conditioned_bienayme(heavy_law, 60,
                                          RngStream(4, 0)).tolist(),
            S.sample_conditioned_bienayme_sequential(heavy_law, 300,
                                                     RngStream(4, 1)).tolist()],
        "census": lambda: H.run_concentration(
            "census", n=400, replications=3, seed=5).cells,
        "branching": lambda: H.run_concentration(
            "branching", n=200, replications=3, seed=5).cells,
        "equivalence": lambda: H.run_equivalence_suite(max_n=4).cells,
        "threshold-law": lambda: E.exact_threshold_sampler_distribution(
            heavy).pmf(),
        "stopping-law": lambda: E.exact_stopping_index_distribution(
            binary).pmf(),
        "partition": lambda: W.partition_function(weights, 60),
        "poisson-batch": lambda: [a.tolist() for a in
                                  S.sample_stopping_index_poissonized_batch(
                                      binary, RngStream(7, 0), 500)],
    }


def test_every_layer_runs_traced_and_untraced_alike():
    tracing = load_tracing()
    before = namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = {}
        for name, run in layer_runs().items():
            tracer.case = name
            traced[name] = run()
    finally:
        tracer.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"harness.run_convergence", "harness.run_concentration",
            "harness.run_equivalence_suite", "samplers.conditioned_bienayme",
            "samplers.conditioned_sequential",
            "samplers.conditional_sum_table",
            "enumeration.exact_threshold_law",
            "enumeration.exact_stopping_law", "weights.partition_function",
            "samplers.poissonized_batch"} <= names
    ladder = {span[tracing.NAME] for span in tracer.spans
              if span[tracing.CASE].startswith("heavy-ladder")}
    assert {"harness.run_convergence",
            "samplers.conditional_sum_table"} <= ladder
    single = {span[tracing.NAME] for span in tracer.spans
              if span[tracing.CASE].startswith("single-words")}
    assert {"samplers.conditioned_bienayme",
            "samplers.conditioned_sequential",
            "samplers.conditional_sum_table"} <= single
    plain = {name: run() for name, run in layer_runs().items()}
    for name in plain:
        assert traced[name] == plain[name], name
    assert np.isfinite(plain["poisson-batch"][1]).all()
