"""Spans around the public functions of each spinsemi module, from outside.

Wrappers replace module attributes (the names `runner` imports, and
`flow.adaptive_rk`) and the derivative callables of the model the runner
builds. Nothing under src/ is edited. A name that a refactor removed is
skipped: the metrics that need it are reported absent and the run goes on.

Each span records its name, start, end, parent span, the run id it belongs
to (one per `run_experiment` call) and whether it raised. Spans are kept in
flat arrays in memory and written out when the benchmark ends.
"""

import json
import statistics
from dataclasses import dataclass

from time import perf_counter_ns

import numpy as np

import spinsemi.config
import spinsemi.flow
import spinsemi.runner

# metric name -> unit; the per_layer list of BENCHMARK.json
PER_LAYER_UNITS = {
    "spin.htilde_calls": "count",
    "spin.grad_calls": "count",
    "spin.hess_calls": "count",
    "spin.deriv_s": "s",
    "spin.us_per_call": "us",
    "numerics.rk_calls": "count",
    "numerics.field_evals": "count",
    "numerics.field_evals_per_row": "count",
    "numerics.rk_self_s": "s",
    "flow.trajectory_s": "s",
    "flow.stability_s": "s",
    "quantum.eig_s": "s",
    "quantum.apply_calls": "count",
    "quantum.apply_s": "s",
    "quantum.purity_s": "s",
    "semiclassical.purity_sc_s": "s",
    "semiclassical.flagged_rows": "count",
    "models.build_s": "s",
    "models.operator_s": "s",
    "config.parse_s": "s",
    "runner.compute_s": "s",
    "runner.write_s": "s",
    "trace.overhead_s": "s",
    "spin.self_share": "fraction",
    "numerics.self_share": "fraction",
    "flow.self_share": "fraction",
    "quantum.self_share": "fraction",
    "semiclassical.self_share": "fraction",
    "models.self_share": "fraction",
    "runner.self_share": "fraction",
}

ROOT_SPAN = "runner.run_experiment"

SPAN_FIELDS = ("name", "parent", "run", "raised", "start_ns", "end_ns")

# (metric, span names it is computed from, SpanStats field summed over them)
_SPAN_METRICS = (
    ("spin.htilde_calls", ("spin.htilde",), "calls"),
    ("spin.grad_calls", ("spin.grad",), "calls"),
    ("spin.hess_calls", ("spin.hess",), "calls"),
    ("spin.deriv_s", ("spin.htilde", "spin.grad", "spin.hess"), "total_s"),
    ("numerics.rk_calls", ("numerics.adaptive_rk",), "calls"),
    ("numerics.field_evals", ("numerics.field",), "calls"),
    ("numerics.rk_self_s", ("numerics.adaptive_rk",), "self_s"),
    ("flow.trajectory_s", ("flow.integrate_trajectory",), "total_s"),
    ("flow.stability_s", ("flow.integrate_stability",), "total_s"),
    ("quantum.eig_s", ("quantum.SpectralPropagator",), "total_s"),
    ("quantum.apply_calls", ("quantum.apply",), "calls"),
    ("quantum.apply_s", ("quantum.apply",), "total_s"),
    ("quantum.purity_s", ("quantum.reduced_density", "quantum.purity"), "total_s"),
    ("semiclassical.purity_sc_s", ("semiclassical.purity_sc_evaluate",), "total_s"),
    ("semiclassical.flagged_rows", ("semiclassical.purity_sc_evaluate",), "raised"),
    ("models.build_s", ("models.build_model",), "total_s"),
    ("models.operator_s", ("models.operator",), "total_s"),
    ("config.parse_s", ("config.parse_config",), "total_s"),
    ("runner.compute_s", ("runner.compute_curve",), "total_s"),
    ("runner.write_s", ("runner.write_csv",), "total_s"),
)

# module -> spans whose self time is that module's own work
MODULE_SPANS = {
    "spin": ("spin.htilde", "spin.grad", "spin.hess"),
    "numerics": ("numerics.adaptive_rk",),
    "flow": ("numerics.field", "flow.integrate_trajectory", "flow.integrate_stability"),
    "quantum": ("quantum.SpectralPropagator", "quantum.apply",
                "quantum.reduced_density", "quantum.purity"),
    "semiclassical": ("semiclassical.purity_sc_evaluate",),
    "models": ("models.build_model", "models.operator"),
    "runner": (ROOT_SPAN, "runner.compute_curve", "runner.write_csv"),
}


class Tracer:
    """Spans in memory, one row per span: SPAN_FIELDS.

    Spans of the running call are tuples; compact() turns them into an
    int64 array between runs, so parent indices count within one chunk.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._spans = []
        self._chunks = []
        self._stack = []
        self.run_id = 0

    def wrap(self, name, fn):
        """fn with every call recorded as a span called name."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = 0
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, parent, self.run_id, raised, start, end)
        return traced

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def compact(self):
        """Move the finished spans into an array; call between runs."""
        if self._spans:
            self._chunks.append(np.array(self._spans, dtype=np.int64).reshape(-1, 6))
            self._spans.clear()

    def table(self):
        """All spans as one (n, 6) array with parent indices made global."""
        self.compact()
        if not self._chunks:
            return np.empty((0, 6), dtype=np.int64)
        offset = 0
        parts = []
        for chunk in self._chunks:
            chunk = chunk.copy()
            has_parent = chunk[:, 1] >= 0
            chunk[has_parent, 1] += offset
            parts.append(chunk)
            offset += len(chunk)
        return np.concatenate(parts)

    def write(self, path):
        """All spans as JSON: the name table and one list per field."""
        spans = self.table()
        with open(path, "w") as fh:
            fh.write('{"names":' + json.dumps(self.names))
            for i, field in enumerate(SPAN_FIELDS):
                fh.write(f',"{field}":' + json.dumps(spans[:, i].tolist()))
            fh.write("}\n")


class Wrappers:
    """The installed wrappers; restore() puts the original objects back."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.absent = set()
        self._undo = []
        self._operator_classes = {}

    def install(self):
        """Wrap the spinsemi names the per-layer metrics are measured at."""
        runner = spinsemi.runner
        self.replace(spinsemi.config, "parse_config", "config.parse_config")
        self.replace(runner, "build_model", "models.build_model", self._traced_build_model)
        self.replace(runner, "compute_curve", "runner.compute_curve")
        self.replace(runner, "write_csv", "runner.write_csv")
        self.replace(runner, "integrate_trajectory", "flow.integrate_trajectory")
        self.replace(runner, "integrate_stability", "flow.integrate_stability")
        self.replace(spinsemi.flow, "adaptive_rk", "numerics.adaptive_rk", self._traced_rk)
        self.replace(runner, "SpectralPropagator", "quantum.SpectralPropagator",
                     self._traced_propagator)
        self.replace(runner, "reduced_density", "quantum.reduced_density")
        self.replace(runner, "purity", "quantum.purity")
        self.replace(runner, "purity_sc_evaluate", "semiclassical.purity_sc_evaluate")
        # spans that only exist inside a wrapped call
        if "numerics.adaptive_rk" in self.absent:
            self.absent.add("numerics.field")
        if "quantum.SpectralPropagator" in self.absent:
            self.absent.add("quantum.apply")
        if "models.build_model" in self.absent:
            self.absent.update(("spin.htilde", "spin.grad", "spin.hess", "models.operator"))
        return self

    def replace(self, owner, attr, span, make=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(span)
            return
        wrapped = make(original) if make else self.tracer.wrap(span, original)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _traced_rk(self, adaptive_rk):
        tracer = self.tracer

        def traced(field, *args, **kwargs):
            return tracer.call("numerics.adaptive_rk", adaptive_rk,
                               tracer.wrap("numerics.field", field), *args, **kwargs)
        return traced

    def _traced_propagator(self, cls):
        tracer = self.tracer

        def construct(*args, **kwargs):
            prop = tracer.call("quantum.SpectralPropagator", cls, *args, **kwargs)
            if callable(getattr(prop, "apply", None)):
                prop.apply = tracer.wrap("quantum.apply", prop.apply)
            else:
                self.absent.add("quantum.apply")
            return prop
        return construct

    def _traced_build_model(self, build_model):
        tracer = self.tracer

        def build(*args, **kwargs):
            model = tracer.call("models.build_model", build_model, *args, **kwargs)
            self._wrap_model(model)
            return model
        return build

    def _wrap_model(self, model):
        for attr in ("htilde", "grad", "hess"):
            fn = getattr(model, attr, None)
            if callable(fn):
                setattr(model, attr, self.tracer.wrap(f"spin.{attr}", fn))
            else:
                self.absent.add(f"spin.{attr}")
        cls = type(model)
        if not isinstance(getattr(cls, "operator", None), property):
            self.absent.add("models.operator")
            return
        if cls not in self._operator_classes:
            self._operator_classes[cls] = self._first_access_class(cls)
        model.__class__ = self._operator_classes[cls]

    def _first_access_class(self, cls):
        """Subclass of cls whose first `operator` read per instance is a span."""
        tracer = self.tracer
        fget = cls.operator.fget

        def operator(model):
            if model.__dict__.get("_bench_operator_seen"):
                return fget(model)
            model.__dict__["_bench_operator_seen"] = True
            return tracer.call("models.operator", fget, model)
        return type(cls.__name__, (cls,), {"operator": property(operator)})


@dataclass
class SpanStats:
    """One span name's totals within one run."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0


def summarize(tracer):
    """run id -> span name -> SpanStats."""
    spans = tracer.table()
    n = len(spans)
    if n == 0:
        return {}
    name, parent, run, raised, start, end = spans.T
    dur = (end - start) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - child
    runs = np.unique(run)
    n_names = len(tracer.names)
    key = np.searchsorted(runs, run) * n_names + name
    size = runs.size * n_names
    calls = np.bincount(key, minlength=size)
    total = np.bincount(key, weights=dur, minlength=size)
    self_s = np.bincount(key, weights=own, minlength=size)
    n_raised = np.bincount(key, weights=raised, minlength=size)
    out = {}
    for r, run_id in enumerate(runs):
        per = {}
        for i, span in enumerate(tracer.names):
            k = r * n_names + i
            if calls[k]:
                per[span] = SpanStats(int(calls[k]), float(total[k]), float(self_s[k]),
                                      int(n_raised[k]))
        out[int(run_id)] = per
    return out


def _run_metrics(spans, absent, rows):
    """Per-layer metrics of one run_experiment call (absent ones omitted)."""
    def stat(names, field):
        if any(s in absent for s in names):
            return None
        return sum(getattr(spans.get(s, SpanStats()), field) for s in names)

    out = {}
    for metric, names, what in _SPAN_METRICS:
        value = stat(names, what)
        if value is not None:
            out[metric] = value
    calls = sum(out.get(f"spin.{a}_calls", 0) for a in ("htilde", "grad", "hess"))
    if "spin.deriv_s" in out and calls:
        out["spin.us_per_call"] = out["spin.deriv_s"] / calls * 1e6
    if "numerics.field_evals" in out:
        out["numerics.field_evals_per_row"] = out["numerics.field_evals"] / rows
    run_s = spans[ROOT_SPAN].total_s
    for module, names in MODULE_SPANS.items():
        # a missing span's time stays in its parent's self time
        present = tuple(s for s in names if s not in absent)
        if present:
            out[f"{module}.self_share"] = stat(present, "self_s") / run_s
    return out


def layer_metrics(tracer, absent, rows_per_run):
    """Median of each per-layer metric over the traced runs.

    Also returns whether every count repeated exactly across the runs.
    """
    per_run = [
        _run_metrics(spans, absent, rows_per_run)
        for spans in summarize(tracer).values() if ROOT_SPAN in spans
    ]
    if not per_run:
        return {}, True
    metrics = {}
    repeats = True
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if PER_LAYER_UNITS[name] == "count":
            repeats = repeats and len(set(values)) == 1
        metrics[name] = statistics.median(values)
    return metrics, repeats
