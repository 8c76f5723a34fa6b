"""Spans around the public functions of each `arbor` module, recorded from
outside the package.

`Tracer.install()` rebinds every traced function in the namespaces its
callers look it up in (the runners in `arbor.harness` call the samplers, laws
and bounds by their imported names, and the samplers call `build_tree` from
`arbor.samplers`) and `uninstall()` puts the originals back.  Spans stay in
memory as flat lists; `layer_metrics()` turns one round of them into the
per-layer metrics and `dump()` writes them out when the run ends.

A span records its name, start, end, parent span and round id, plus the
case label the workload set before calling the runner, a work count (draws,
rows, trees, bytes) and a computed byte size where the layer has one.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

import arbor.bounds
import arbor.enumeration
import arbor.harness
import arbor.rng
import arbor.samplers
import arbor.stats
import arbor.trees
import arbor.weights

NAME, CASE, START, END, PARENT, ROUND, COUNT, BYTES, CHILD = range(9)


class _CountingGenerator:
    """Stands in for `RngStream.gen` inside the rejection sampler: counts the
    proposal rows passed to `choice` and forwards every call to the same
    generator, so the draws are unchanged."""

    def __init__(self, gen):
        self._gen = gen
        self.rows = 0

    def choice(self, *args, **kwargs):
        size = kwargs.get("size")
        self.rows += size[0] if isinstance(size, tuple) else 1
        return self._gen.choice(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class Tracer:
    """Records spans while installed; `case` labels every span opened until
    it is changed, and `round_id` tags spans of one measured round."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = ""
        self.round_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.case, perf_counter(), 0.0, parent,
                           self.round_id, 0, 0, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, count: int = 0, nbytes: int = 0) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[COUNT] = count
        span[BYTES] = nbytes
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def wrap(self, name, fn, count=None, nbytes=None):
        """Span around every call of fn; count/nbytes map (args, result) to
        the span's work count and computed byte size."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                raise
            tracer._close(idx, count(args, kwargs, result) if count else 1,
                          nbytes(args, kwargs, result) if nbytes else 0)
            return result
        return traced

    def wrap_generator(self, name, fn):
        """One span per item pulled from the generator, counting items."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(idx, 0)
                    return
                except BaseException:
                    tracer._close(idx, 0)
                    raise
                tracer._close(idx, 1)
                yield item
        return traced

    def wrap_rejection(self, name, fn):
        """Span around the rejection sampler that also counts proposal rows
        through a `_CountingGenerator` swapped in for the stream's gen."""
        tracer = self

        @functools.wraps(fn)
        def traced(mu, n, rng, *args, **kwargs):
            idx = tracer._open(name)
            tracer.spans[idx][CASE] = f"{tracer.case}-n{n}"
            gen = rng.gen
            proxy = _CountingGenerator(gen)
            rng.gen = proxy
            try:
                return fn(mu, n, rng, *args, **kwargs)
            finally:
                rng.gen = gen
                tracer._close(idx, proxy.rows)
        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _bind(self, attr, wrapped, homes) -> None:
        """Rebind attr to wrapped in every home that defines or imported it."""
        for home in homes:
            if attr in home.__dict__:
                self._set(home, attr, wrapped)

    def _patch_function(self, name, attr, homes, **kw) -> None:
        self._bind(attr, self.wrap(name, getattr(homes[0], attr), **kw), homes)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        H, E, S, W, B = (arbor.harness, arbor.enumeration, arbor.samplers,
                         arbor.weights, arbor.bounds)
        reps = _arg(2, "reps")

        def _n_case(fn):
            # label spans with "<case>-n<n>" from the call's size argument
            def labelled(*args, **kwargs):
                self.spans[self.stack[-1]][CASE] = f"{self.case}-n{args[1]}"
                return fn(*args, **kwargs)
            return labelled

        # harness: the runners and report writing
        for attr in ("run_tail_sweep", "run_convergence", "run_concentration",
                     "run_equivalence_suite"):
            self._patch_function(f"harness.{attr}", attr, [H])
        self._set(H.ExperimentReport, "write", self.wrap(
            "harness.report", H.ExperimentReport.write,
            count=lambda a, k, r: sum(os.path.getsize(p) for p in r)))

        # samplers, bound by name in arbor.harness
        self._patch_function("samplers.mark_height_batch",
                             "sample_mark_height_batch", [H, S], count=reps)
        self._patch_function("samplers.stopping_index_batch",
                             "sample_stopping_index_batch", [H, S], count=reps)
        self._patch_function(
            "samplers.poissonized_batch",
            "sample_stopping_index_poissonized_batch", [H, S], count=reps,
            # the reps x (n + 1) boolean interval bitmap, one byte per entry
            nbytes=lambda a, k, r: reps(a, k, r) * (a[0].n + 1))
        self._bind("sample_conditioned_bienayme", self.wrap_rejection(
            "samplers.conditioned_bienayme", S.sample_conditioned_bienayme),
            [H, S])
        self._bind("sample_conditioned_bienayme_sequential", self.wrap(
            "samplers.conditioned_sequential",
            _n_case(S.sample_conditioned_bienayme_sequential)), [H, S])
        self._bind("conditional_sum_table", self.wrap(
            "samplers.conditional_sum_table", _n_case(S.conditional_sum_table),
            nbytes=lambda a, k, r: r.nbytes), [H, S])

        # trees: construction, and the per-tree profile functionals
        self._bind("build_tree", self.wrap("trees.build_tree",
                                           arbor.trees.build_tree), [S])
        tree_cls = arbor.trees.PlaneTree
        for attr in ("parents", "depths", "width_profile"):
            prop = functools.cached_property(
                self.wrap("trees.profile", tree_cls.__dict__[attr].func))
            prop.__set_name__(tree_cls, attr)
            self._set(tree_cls, attr, prop)
        for attr in ("height", "width"):
            self._set(tree_cls, attr, property(
                self.wrap("trees.profile", tree_cls.__dict__[attr].fget)))
        self._set(tree_cls, "degree_statistics",
                  self.wrap("trees.profile", tree_cls.degree_statistics))

        # rng: stream construction (seed hashing and generator set-up)
        self._set(arbor.rng.RngStream, "__init__",
                  self.wrap("rng.stream", arbor.rng.RngStream.__init__))

        # enumeration: exact laws and exhaustive enumeration
        self._patch_function("enumeration.exact_threshold_law",
                             "exact_threshold_sampler_distribution", [E, H])
        self._patch_function("enumeration.exact_stopping_law",
                             "exact_stopping_index_distribution", [E, H])
        self._patch_function("enumeration.exact_mark_height",
                             "exact_mark_height_distribution", [E, H])
        self._patch_function("enumeration.spine_probability",
                             "spine_probability", [E, H])
        self._patch_function("enumeration.count_forests", "count_forests",
                             [E, H])
        self._bind("enumerate_trees", self.wrap_generator(
            "enumeration.enumerate_trees", E.enumerate_trees), [E, H])

        # weights: tilts, laws and partition functions
        for attr in ("partition_function", "solve_critical_tilt",
                     "tilted_law", "limit_degree_law", "exact_tree_law"):
            self._patch_function(f"weights.{attr}", attr, [W, H])

        # bounds and stats
        self._set(B.BoundInput, "from_stats", classmethod(self.wrap(
            "bounds.from_stats", B.BoundInput.__dict__["from_stats"].__func__)))
        for attr in ("height_threshold", "height_tail_bound",
                     "height_tail_bound_no_ones", "stopping_tail_bound_no_ones",
                     "repeat_threshold", "repeat_time_tail_bound"):
            self._patch_function(f"bounds.{attr}", attr, [B, H])
        self._patch_function("stats.wilson_interval", "wilson_interval",
                             [arbor.stats, H])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        keys = ("name", "case", "start", "end", "parent", "round", "count",
                "bytes")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span[:CHILD]))) + "\n")


def _arg(pos: int, key: str):
    def get(args, kwargs, _result):
        return kwargs[key] if key in kwargs else args[pos]
    return get


# ---------------------------------------------------------------------------
# per-layer metrics from one round's spans
# ---------------------------------------------------------------------------

TAIL_CASES = tuple(f"{c}-n{n}" for c in ("binary", "heavy")
                   for n in (127, 1023, 4095))
REJECTION_CASES = ("heavy-n200", "heavy-n800", "heavy-n3200", "control-n3201",
                   "second-moment-n2000", "stretched-n2000")
LAW_CASES = tuple(f"{c}-n{n}" for c in ("binary", "heavy")
                  for n in (1023, 2047))
PARTITION_CASES = ("rational-n200", "integer-n400")
RUNNERS = ("run_tail_sweep", "run_convergence", "run_concentration",
           "run_equivalence_suite")

# Named in the layer map but not measured, with the reason.
DROPPED = {f"enumeration.{law}.s.{c}-n4095":
           "n = 4,095 is not in the exact workload: its four laws take ~33 s, "
           "more than one run"
           for law in ("exact_threshold_law", "exact_stopping_law")
           for c in ("binary", "heavy")}


def layer_metrics(spans: list[list], round_id: int, wall: float) -> dict:
    """Per-layer values for the spans of one traced round.

    Layers a workload does not reach read 0 (no draws, no calls), which is
    the "bypassed" prediction made in the benchmark's layer map.
    """
    mine = [s for s in spans if s[ROUND] == round_id]
    dur: dict = {}
    self_s: dict = {}
    count: dict = {}
    calls: dict = {}
    nbytes: dict = {}
    for s in mine:
        d = s[END] - s[START]
        for key in (s[NAME], (s[NAME], s[CASE])):
            dur[key] = dur.get(key, 0.0) + d
            self_s[key] = self_s.get(key, 0.0) + d - s[CHILD]
            count[key] = count.get(key, 0) + s[COUNT]
            calls[key] = calls.get(key, 0) + 1
            nbytes[key] = max(nbytes.get(key, 0), s[BYTES])
    layer_self: dict = {}
    layer_calls: dict = {}
    for name, v in self_s.items():
        if isinstance(name, str):
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + v
            layer_calls[layer] = layer_calls.get(layer, 0) + calls[name]

    def rate(key, scale=1.0):
        return count.get(key, 0) / dur[key] * scale if dur.get(key) else 0.0

    def per_call(key, value):
        return value / calls[key] if calls.get(key) else 0.0

    out = {}
    for fn in ("mark_height_batch", "stopping_index_batch",
               "poissonized_batch"):
        for c in TAIL_CASES:
            out[f"samplers.{fn}.draws_per_s.{c}"] = rate((f"samplers.{fn}", c))
    out["samplers.poissonized_batch.bitmap_mb.n4095"] = max(
        (nbytes.get(("samplers.poissonized_batch", c), 0) for c in TAIL_CASES
         if c.endswith("-n4095")), default=0) / 1e6
    rej = "samplers.conditioned_bienayme"
    for c in REJECTION_CASES:
        key = (rej, c)
        out[f"{rej}.ms_per_tree.{c}"] = per_call(key, dur.get(key, 0.0)) * 1e3
        out[f"{rej}.rows_per_tree.{c}"] = per_call(key, count.get(key, 0))
        out[f"{rej}.accept_ratio.{c}"] = (calls[key] / count[key]
                                          if count.get(key) else 0.0)
    key = ("samplers.conditional_sum_table", "census-n2000")
    out["samplers.conditional_sum_table.s.census-n2000"] = dur.get(key, 0.0)
    out["samplers.conditional_sum_table.mb.census-n2000"] = nbytes.get(key, 0) / 1e6
    key = ("samplers.conditioned_sequential", "census-n2000")
    out["samplers.conditioned_sequential.ms_per_tree.census-n2000"] = \
        per_call(key, dur.get(key, 0.0)) * 1e3
    out["trees.build_tree.self_s"] = self_s.get("trees.build_tree", 0.0)
    out["trees.profile.self_s"] = self_s.get("trees.profile", 0.0)
    out["rng.streams"] = calls.get("rng.stream", 0)
    out["rng.self_s"] = self_s.get("rng.stream", 0.0)
    for law in ("exact_threshold_law", "exact_stopping_law"):
        for c in LAW_CASES:
            out[f"enumeration.{law}.s.{c}"] = dur.get((f"enumeration.{law}", c), 0.0)
    out["enumeration.enumerate_trees.trees"] = count.get("enumeration.enumerate_trees", 0)
    out["enumeration.exact_mark_height.self_s"] = self_s.get(
        "enumeration.exact_mark_height", 0.0)
    out["enumeration.spine_probability.calls"] = calls.get(
        "enumeration.spine_probability", 0)
    for c in PARTITION_CASES:
        out[f"weights.partition_function.s.{c}"] = dur.get(
            ("weights.partition_function", c), 0.0)
    out["weights.solve_critical_tilt.s"] = dur.get("weights.solve_critical_tilt", 0.0)
    out["bounds.calls"] = layer_calls.get("bounds", 0)
    out["bounds.self_s"] = layer_self.get("bounds", 0.0)
    out["stats.wilson_interval.calls"] = calls.get("stats.wilson_interval", 0)
    out["stats.wilson_interval.self_s"] = self_s.get("stats.wilson_interval", 0.0)
    for r in RUNNERS:
        out[f"harness.{r}.self_s"] = self_s.get(f"harness.{r}", 0.0)
    out["harness.report.write_s"] = dur.get("harness.report", 0.0)
    out["harness.report.bytes"] = count.get("harness.report", 0)
    top = sum(s[END] - s[START] for s in mine if s[PARENT] < 0)
    out["bench.span_coverage.frac"] = top / wall if wall > 0 else 0.0
    return out
