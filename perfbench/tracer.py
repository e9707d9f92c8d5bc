"""In-memory span tracer for the enzres benchmark.

The tracer wraps, from outside the package, every public function of each
enzres module in every enzres namespace that binds it by name (so
``perturbation.solve_dirichlet_helmholtz`` and ``design.linear_solve`` are
traced too), the ``splu``/``eigsh``/``eigs`` entry points of
``scipy.sparse.linalg`` (the modules call them as ``spla.X``), and the
``open`` that ``enzres.cli`` uses, to count file bytes.

A span is (id, name, start, end, parent, case, attrs).  Span clocks exclude
the tracer's own bookkeeping (for example reading ``L.nnz`` of a factor), so
self times describe the program; the bookkeeping still shows in the traced
case wall time and therefore in the reported tracing overhead.
"""

from __future__ import annotations

import builtins
import importlib
import inspect
import json
import time
from collections import defaultdict

import scipy.sparse.linalg as spla

#: modules whose public functions are traced; the span prefix is the layer
LAYERS = ("mesh", "fem", "perturbation", "eigensolver", "dispersion",
          "design", "cli")
SCIPY_FUNCS = ("splu", "eigsh", "eigs")


def _splu_attrs(args, lu):
    return {"dim": int(args[0].shape[0]), "lu_nnz": int(lu.L.nnz + lu.U.nnz)}


def _resonance_attrs(args, pair):
    return {"iterations": int(pair.iterations)}


def _trace_attrs(args, trace):
    return {"newton_iters": int(trace.newton_iters.sum())}


def _saddle_attrs(args, state):
    return {"iters": len(state.history)}


#: per-span attributes read from a call's arguments and result
ATTRS = {
    "scipy.splu": _splu_attrs,
    "eigensolver.resonance_near": _resonance_attrs,
    "dispersion.trace_resonance": _trace_attrs,
    "design.saddle_solve": _saddle_attrs,
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class _CountingFile:
    """File proxy that adds the bytes read or written to a counter."""

    def __init__(self, fh, tracer):
        self._fh, self._tracer = fh, tracer

    def read(self, *args):
        data = self._fh.read(*args)
        self._tracer.count("cli.bytes_read", _nbytes(data))
        return data

    def write(self, data):
        self._tracer.count("cli.bytes_written", _nbytes(data))
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _nbytes(data) -> int:
    return len(data.encode("utf-8")) if isinstance(data, str) else len(data)


class Tracer:
    """Records spans while `active`; `install` patches the call sites and
    `uninstall` restores them exactly."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))  # case -> key
        self.active = False
        self.case = None
        self._stack = []
        self._patches = []
        self._excluded = 0.0

    # -- clock and counters -------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    def count(self, key: str, amount: int = 1):
        if self.active:
            self.counters[self.case][key] += amount

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name):
        attrs_fn = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1]["id"] if tracer._stack else None
            span = {"id": len(tracer.spans), "name": name, "parent": parent,
                    "case": tracer.case, "attrs": {}}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = tracer.clock()
                tracer._stack.pop()
            if attrs_fn is not None:
                t0 = time.perf_counter()
                span["attrs"] = attrs_fn(args, out)
                tracer._excluded += time.perf_counter() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr, None), had))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"enzres.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, mods):
            for name, fn in _public_functions(mod):
                wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for name in SCIPY_FUNCS:
            self._patch(spla, name, self._wrap(getattr(spla, name),
                                               f"scipy.{name}"))
        cli = importlib.import_module("enzres.cli")
        tracer = self

        def counting_open(*args, **kwargs):
            fh = builtins.open(*args, **kwargs)
            return _CountingFile(fh, tracer) if tracer.active else fh

        self._patch(cli, "open", counting_open)

    def uninstall(self):
        for owner, attr, old, had in reversed(self._patches):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._patches = []

    # -- output -------------------------------------------------------------

    def dump(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans,
                       "counters": {str(k): dict(v)
                                    for k, v in self.counters.items()}}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics

def _span(*names):
    return lambda s: s["name"] in names


#: (metric, unit, span selector, reduction); reductions: "calls" counts
#: spans, "s" sums durations, any other string sums that span attribute
SPAN_METRICS = [
    ("scipy.splu_calls", "count", _span("scipy.splu"), "calls"),
    ("scipy.splu_s", "s", _span("scipy.splu"), "s"),
    ("scipy.splu_dim_sum", "count", _span("scipy.splu"), "dim"),
    ("scipy.lu_nnz", "count", _span("scipy.splu"), "lu_nnz"),
    ("scipy.eigsh_calls", "count", _span("scipy.eigsh"), "calls"),
    ("scipy.eigsh_s", "s", _span("scipy.eigsh"), "s"),
    ("scipy.eigs_calls", "count", _span("scipy.eigs"), "calls"),
    ("perturbation.find_lambda0_s", "s", _span("perturbation.find_lambda0"),
     "s"),
    ("perturbation.residual_evals", "count",
     _span("perturbation.consistency_residual"), "calls"),
    ("perturbation.expand_s", "s", _span("perturbation.expand_series"), "s"),
    ("fem.assemble_calls", "count",
     _span("fem.assemble_stiffness", "fem.assemble_mass", "fem.mass_vector"),
     "calls"),
    ("fem.assemble_s", "s",
     _span("fem.assemble_stiffness", "fem.assemble_mass", "fem.mass_vector"),
     "s"),
    ("fem.dirichlet_calls", "count", _span("fem.solve_dirichlet_helmholtz"),
     "calls"),
    ("fem.dirichlet_s", "s", _span("fem.solve_dirichlet_helmholtz"), "s"),
    ("fem.neumann_calls", "count", _span("fem.solve_neumann_mean_zero"),
     "calls"),
    ("fem.neumann_s", "s", _span("fem.solve_neumann_mean_zero"), "s"),
    ("fem.flux_calls", "count", _span("fem.weak_normal_flux"), "calls"),
    ("fem.flux_s", "s", _span("fem.weak_normal_flux"), "s"),
    ("fem.modes_s", "s", _span("fem.dirichlet_modes"), "s"),
    ("fem.linear_solve_calls", "count", _span("fem.linear_solve"), "calls"),
    ("fem.linear_solve_s", "s", _span("fem.linear_solve"), "s"),
    ("eigensolver.resonance_s", "s", _span("eigensolver.resonance_near"), "s"),
    ("eigensolver.iterations", "count", _span("eigensolver.resonance_near"),
     "iterations"),
    ("design.minimize_dual_s", "s", _span("design.minimize_dual"), "s"),
    ("design.recover_s", "s", _span("design.recover_design"), "s"),
    ("design.saddle_s", "s", _span("design.saddle_solve"), "s"),
    ("design.saddle_iters", "count", _span("design.saddle_solve"), "iters"),
    ("design.evaluate_calls", "count", _span("design.evaluate_design"),
     "calls"),
    ("design.bathtub_calls", "count", _span("design.bathtub_projection"),
     "calls"),
    ("dispersion.trace_s", "s", _span("dispersion.trace_resonance"), "s"),
    ("dispersion.newton_iters", "count", _span("dispersion.trace_resonance"),
     "newton_iters"),
    ("mesh.build_s", "s", _span("mesh.build_concentric_mesh"), "s"),
    ("mesh.load_s", "s", _span("mesh.load_mesh"), "s"),
    ("mesh.save_s", "s", _span("mesh.save_mesh"), "s"),
    ("cli.mesh_s", "s", _span("cli.cmd_mesh"), "s"),
    ("cli.expand_s", "s", _span("cli.cmd_expand"), "s"),
    ("cli.resonate_s", "s", _span("cli.cmd_resonate"), "s"),
]
COUNTER_METRICS = [("cli.bytes_written", "bytes"), ("cli.bytes_read", "bytes")]
SELF_LAYERS = LAYERS + ("scipy",)


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {name: unit for name, unit, _, _ in SPAN_METRICS}
    units["design.minimize_dual_splu_calls"] = "count"
    units.update(COUNTER_METRICS)
    units.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(tracer: Tracer, cases) -> dict:
    """Per-case means over the traced `cases` of every per-layer metric
    except the overhead, which needs the untraced times."""
    cases = set(cases)
    spans = [s for s in tracer.spans if s["case"] in cases]
    n = len(cases)
    out = {}
    for name, _unit, select, how in SPAN_METRICS:
        chosen = [s for s in spans if select(s)]
        if how == "calls":
            total = len(chosen)
        elif how == "s":
            total = sum(s["end"] - s["start"] for s in chosen)
        else:
            # a call that raised (and was handled) has no attributes
            total = sum(s["attrs"].get(how, 0) for s in chosen)
        out[name] = total / n

    by_id = {s["id"]: s for s in tracer.spans}

    def under(span, ancestor):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == ancestor:
                return True
        return False

    out["design.minimize_dual_splu_calls"] = sum(
        1 for s in spans
        if s["name"] == "scipy.splu" and under(s, "design.minimize_dual")) / n
    for key, _unit in COUNTER_METRICS:
        out[key] = sum(tracer.counters[c][key] for c in cases) / n

    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    for s in spans:
        self_s[s["name"].split(".", 1)[0]] += (s["end"] - s["start"]
                                              - child_time[s["id"]])
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / n
    return out
