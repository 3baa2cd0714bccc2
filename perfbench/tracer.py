"""Spans around overlap_lab's layer entry points, installed from outside.

Wrappers go where each name is looked up: a function imported with
`from .x import f` is wrapped in every importing module, kernels and
methods on their module or class. Spans (name, start, end, parent, thread,
attributes) are kept in memory and written once the run ends; only the
traced run installs anything. Kernel attributes count the work of the
active (numpy) path from argument shapes and return values; byte counts
are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict


class TraceError(RuntimeError):
    """An entry point is missing, or was never reached."""


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, thread, attrs)
        self.counts = defaultdict(int)
        self.paused = False
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, token, name, attrs):
        t1 = time.perf_counter()
        sid, parent, t0 = token
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), attrs))

    def count(self, name):
        with self._lock:
            self.counts[name] += 1

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    # -- wrappers ---------------------------------------------------------

    def span(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            token = self.begin()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(token, name, None)
                raise
            self.end(token, name, attrs and attrs(args, kwargs, out))
            return out
        return wrapper

    def counter(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def generator(self, fn, name, attrs):
        """Span each resumption: the consumer's work between yields is not
        the generator's."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            it = fn(*args, **kwargs)
            while True:
                token = self.begin()
                try:
                    item = next(it)
                except StopIteration:
                    self.end(token, name, None)
                    return
                except BaseException:
                    self.end(token, name, None)
                    raise
                self.end(token, name, attrs(bound, item))
                yield item
        return wrapper

    def pausing(self, fn):
        """Run fn without recording (kernel warm-up is set-up, not work)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.paused = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.paused = False
        return wrapper


# -- what each kernel did, from its arguments and results -------------------

def _eval_stats(args, kwargs, out):
    lv = args[0]
    return {"rows": lv.shape[0], "bytes": lv.nbytes + out.nbytes}


def _enum_stats(args, kwargs, out):
    weights, table, n = args[0], args[1], args[2]
    n_stats = len(args[5][0]) - 1
    tuples = len(weights) ** n
    # per tuple the numpy path materializes: n int64 indices, an n x n
    # level matrix, one weight and one value per statistic
    per_tuple = 8 * n + table.itemsize * n * n + 8 + 8 * n_stats
    return {"tuples": tuples, "bytes": tuples * per_tuple}


def _ultra_full(args, kwargs, out):
    return {"triples": int(out[0]), "bytes": args[0].nbytes}


def _jacobi_raw(args, kwargs, out):
    n = args[0].shape[0]
    sweeps = int(out[2])
    # each rotation reads and writes two rows and two columns of A and two
    # columns of V: 6n float64 values, n(n-1)/2 rotations per sweep
    return {"sweeps": sweeps, "bytes": sweeps * (n * (n - 1) // 2) * 96 * n}


def _measure_at(args, kwargs, out):
    model, j = args[0], args[1] if len(args) > 1 else kwargs["j"]
    return {"key": f"{model.spec.seed}/{j}"}


def _level_batches(bound, item):
    return {"drawn": bound.arguments["mc"].inner, "kept": len(item[1])}


def _report_io(args, kwargs, out):
    return {"bytes": args[1].stat().st_size}


P = "overlap_lab."
VERIFY_FNS = ("gg_residual", "distinct_mass_check", "lemma1_check",
              "consistency_check", "conditional_marginal_check",
              "support_check", "positivity_check", "ultrametricity_check")

# (lookup sites, span name, kind, attributes); a site is "module:attr" or
# "module:Class.method"
ENTRY_POINTS = [
    (["measures:TreeStructure.__init__"], "measures.TreeStructure", "span", None),
    (["models:build_tree_measure"], "measures.build_tree_measure", "span", None),
    (["measures:rng_from", "sampler:rng_from"], "measures.rng_from", "counter", None),
    (["models:TreeModel.measure_at"], "models.measure_at", "span", _measure_at),
    (["sampler:outer_stat_means", "verify:outer_stat_means",
      "pipeline:outer_stat_means"], "sampler.outer_stat_means", "span", None),
    (["verify:filtered_level_batches", "pipeline:filtered_level_batches"],
     "sampler.filtered_level_batches", "generator", _level_batches),
    (["sampler:enumerate_statistics", "verify:enumerate_statistics",
      "pipeline:enumerate_statistics"], "sampler.enumerate_statistics", "span", None),
    (["sampler:ratio_from_means", "verify:ratio_from_means",
      "pipeline:ratio_from_means"], "sampler.ratio_from_means", "span", None),
    (["sampler:pack_statistics", "observables:pack_statistics"],
     "observables.pack_statistics", "span", None),
    (["_kernels:eval_stats"], "kernels.eval_stats", "span", _eval_stats),
    (["_kernels:enum_stats"], "kernels.enum_stats", "span", _enum_stats),
    (["_kernels:ultra_full"], "kernels.ultra_full", "span", _ultra_full),
    (["_kernels:jacobi_raw"], "kernels.jacobi_raw", "span", _jacobi_raw),
    (["verify:check_ultrametric_batch"], "grid.check_ultrametric_batch", "span", None),
    (["pipeline:is_psd_dense"], "eigen.is_psd_dense", "span", None),
    *[(["cli:" + f] + (["pipeline:gg_residual"] if f == "gg_residual" else []),
       "verify." + f, "span", None) for f in VERIFY_FNS],
    (["cli:descend"], "pipeline.descend", "span", None),
    (["cli:criterion_run"], "pipeline.criterion_run", "span", None),
    (["cli:build_model"], "cli.build_model", "span", None),
    (["cli:write_rows_csv", "cli:emit_plot_data"], "cli.report_io", "span", _report_io),
    (["_kernels:warmup"], None, "pause", None),
]


def _resolve(site):
    module_name, attr = site.split(":")
    owner = importlib.import_module(P + module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer, entry_points=ENTRY_POINTS):
    """Wrap every lookup site; raise listing each site that does not exist."""
    missing = []
    resolved = []
    for sites, name, kind, attrs in entry_points:
        for site in sites:
            try:
                owner, leaf = _resolve(site)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                missing.append(site)
                continue
            resolved.append((owner, leaf, fn, name, kind, attrs))
    if missing:
        raise TraceError("entry points not found: " + ", ".join(missing))
    for owner, leaf, fn, name, kind, attrs in resolved:
        if kind == "pause":
            wrapped = tracer.pausing(fn)
        else:
            wrapped = getattr(tracer, kind)(fn, name, attrs)
        setattr(owner, leaf, wrapped)


def summarize(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed attributes.

    Self time is a span's duration minus the durations of its direct
    children (spans of the same thread that it was open around).
    """
    spans = trace["spans"]
    child_time = defaultdict(float)
    for sid, name, t0, t1, parent, thread, attrs in spans:
        if parent:
            child_time[parent] += t1 - t0
    out = defaultdict(lambda: defaultdict(float))
    keys = defaultdict(set)
    for sid, name, t0, t1, parent, thread, attrs in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += t1 - t0 - child_time[sid]
        for k, v in (attrs or {}).items():
            if k == "key":
                keys[name].add(v)
            else:
                agg[k] += v
    for name, seen in keys.items():
        out[name]["distinct"] = len(seen)
    for name, calls in trace["counts"].items():
        out[name]["calls"] += calls
    return {name: dict(agg) for name, agg in out.items()}


def merge(summaries) -> dict:
    """Sum the summaries of several traced invocations."""
    total = defaultdict(lambda: defaultdict(float))
    for summary in summaries:
        for name, agg in summary.items():
            for k, v in agg.items():
                total[name][k] += v
    return {name: dict(agg) for name, agg in total.items()}


def require_reached(summary: dict, reaches) -> None:
    """Fail loudly when an entry point the workload must reach never ran."""
    unreached = sorted(n for n in reaches
                       if summary.get(n, {}).get("calls", 0) == 0)
    if unreached:
        raise TraceError("entry points never called: " + ", ".join(unreached))


CHECK_NAMES = ("gg", "mass", "lemma1", "consistency", "marginal", "support",
               "positivity", "ultra", "descend", "criterion")

# Per-layer metrics as (name, unit, better); the traced run reports each one
# on every workload, 0 where the workload does not reach the layer.
PER_LAYER = [
    ("measures.TreeStructure.s", "s", "lower"),
    ("measures.build_tree_measure.calls", "count", "lower"),
    ("measures.build_tree_measure.self_s", "s", "lower"),
    ("measures.rng_from.calls", "count", "lower"),
    ("models.measure_at.calls", "count", "lower"),
    ("models.measure_at.distinct", "count", "lower"),
    ("models.measure_at.distinct_ratio", "ratio", "higher"),
    ("sampler.outer_stat_means.calls", "count", "lower"),
    ("sampler.outer_stat_means.self_s", "s", "lower"),
    ("sampler.filtered_level_batches.drawn", "count", "lower"),
    ("sampler.filtered_level_batches.kept", "count", "higher"),
    ("sampler.filtered_level_batches.keep_ratio", "ratio", "higher"),
    ("sampler.filtered_level_batches.self_s", "s", "lower"),
    ("sampler.enumerate_statistics.calls", "count", "lower"),
    ("sampler.enumerate_statistics.self_s", "s", "lower"),
    ("sampler.ratio_from_means.calls", "count", "lower"),
    ("sampler.ratio_from_means.self_s", "s", "lower"),
    ("observables.pack_statistics.calls", "count", "lower"),
    ("observables.pack_statistics.self_s", "s", "lower"),
    ("kernels.eval_stats.calls", "count", "lower"),
    ("kernels.eval_stats.rows", "count", "lower"),
    ("kernels.eval_stats.rows_per_call", "count", "higher"),
    ("kernels.eval_stats.bytes_computed", "bytes", "lower"),
    ("kernels.eval_stats.self_s", "s", "lower"),
    ("kernels.enum_stats.calls", "count", "lower"),
    ("kernels.enum_stats.tuples", "count", "lower"),
    ("kernels.enum_stats.tuples_per_s", "1/s", "higher"),
    ("kernels.enum_stats.bytes_computed", "bytes", "lower"),
    ("kernels.enum_stats.self_s", "s", "lower"),
    ("kernels.ultra_full.calls", "count", "lower"),
    ("kernels.ultra_full.triples", "count", "lower"),
    ("kernels.ultra_full.bytes_computed", "bytes", "lower"),
    ("kernels.ultra_full.self_s", "s", "lower"),
    ("grid.check_ultrametric_batch.calls", "count", "lower"),
    ("grid.check_ultrametric_batch.self_s", "s", "lower"),
    ("kernels.jacobi_raw.calls", "count", "lower"),
    ("kernels.jacobi_raw.sweeps", "count", "lower"),
    ("kernels.jacobi_raw.bytes_computed", "bytes", "lower"),
    ("kernels.jacobi_raw.self_s", "s", "lower"),
    ("eigen.is_psd_dense.calls", "count", "lower"),
    ("eigen.is_psd_dense.self_s", "s", "lower"),
    *[(f"verify.{f}.s", "s", "lower") for f in VERIFY_FNS],
    ("pipeline.descend.s", "s", "lower"),
    ("pipeline.criterion_run.s", "s", "lower"),
    ("cli.build_model.s", "s", "lower"),
    ("cli.report_io.s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    *[(f"cli.check.{c}.wall_s", "s", "lower") for c in CHECK_NAMES],
    ("cli.jobs_overlap", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict, manifests: list, overhead_s: float) -> dict:
    """Every PER_LAYER value, from the trace summary and the untraced
    runs' manifests (check wall times are measured without tracing)."""
    def get(name, key):
        return float(summary.get(name, {}).get(key, 0.0))

    derived = {
        "models.measure_at.distinct_ratio": _ratio(
            get("models.measure_at", "distinct"),
            get("models.measure_at", "calls")),
        "sampler.filtered_level_batches.keep_ratio": _ratio(
            get("sampler.filtered_level_batches", "kept"),
            get("sampler.filtered_level_batches", "drawn")),
        "kernels.eval_stats.rows_per_call": _ratio(
            get("kernels.eval_stats", "rows"),
            get("kernels.eval_stats", "calls")),
        "kernels.enum_stats.tuples_per_s": _ratio(
            get("kernels.enum_stats", "tuples"),
            get("kernels.enum_stats", "self_s")),
        "cli.report_bytes": get("cli.report_io", "bytes"),
        "trace.overhead_s": overhead_s,
    }
    check_wall = dict.fromkeys(CHECK_NAMES, 0.0)
    busy = 0.0
    for m in manifests:
        for c in m["checks"]:
            check_wall[c["name"]] += c["wall_time_s"]
        busy += m["jobs"] * m["total_wall_time_s"]
    for name, wall in check_wall.items():
        derived[f"cli.check.{name}.wall_s"] = wall
    derived["cli.jobs_overlap"] = _ratio(sum(check_wall.values()), busy)

    out = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            layer, key = name.rsplit(".", 1)
            value = get(layer, "bytes" if key == "bytes_computed" else key)
        out[name] = (value, unit)
    return out
