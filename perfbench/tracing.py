"""Span tracing installed from outside the program.

A :class:`Tracer` replaces the cross-module entry points of ``capmink`` and
the sparse LU functions of ``scipy.sparse.linalg`` with wrappers that record
one span per call: name, layer, start, end, parent span and run id, plus a few
attributes (system size and fill for LU, hit or build for the operator
cache, Newton counts for ``newton_solve``).  Spans stay in memory and are
written out once the traced repetition has finished.  ``uninstall`` puts
every original object back; :func:`installed_wrappers` lets an untraced
repetition prove that nothing is left behind.

Wrapping the module attribute reaches every caller that looks the name up at
call time: ``solver`` calls ``spla.spsolve`` through the module, and each
``from .grid import extend`` binding is patched where it lives.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MARK = "_perfbench_span"

# Layers whose public functions are wrapped wherever a capmink module binds them.
PUBLIC_LAYERS = ("grid", "operators", "john", "monitors", "ellipsoid", "problem_io", "cli")
# The solver is wrapped at its entry points only; its private kernels count
# as solver self time.
SOLVER_ENTRIES = (
    "continuation_solve", "newton_solve", "pq_limit_solve", "pq_residual",
    "residual_h", "residual_u", "manufactured_f", "uniqueness_probe",
)
LU_FACTOR_FUNCS = ("spsolve", "splu", "factorized")


def _capmink_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "capmink" or name.startswith("capmink."))]


def installed_wrappers() -> list[str]:
    """Names of capmink/scipy attributes that currently hold a span wrapper."""
    import scipy.sparse.linalg as spla

    found = []
    for mod in _capmink_modules() + [spla]:
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append(f"{mod.__name__}.{name}")
    return found


class _TracedFactor:
    """Proxy for a SuperLU factor whose ``solve`` calls are LU spans."""

    def __init__(self, tracer, factor):
        self._tracer = tracer
        self._factor = factor

    def solve(self, *args, **kwargs):
        return self._tracer.call("lu", "lu.solve", self._factor.solve, args, kwargs)[0]

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, layer, name, fn, args, kwargs, attrs=None):
        sid = len(self.spans)
        span = {"id": sid, "parent": self._stack[-1] if self._stack else None,
                "name": name, "layer": layer, "run": self.run_id}
        if attrs:
            span.update(attrs)
        self.spans.append(span)
        self._stack.append(sid)
        span["t0"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["t1"] = time.perf_counter()
            self._stack.pop()
        return out, span

    def _wrap(self, layer, fn):
        base = fn.__name__
        name = f"{layer}.{base}"
        after = _AFTER.get(base)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the operator cache is keyed on the geometry; look before building
            attrs = {"hit": "u_system" in args[0]._cache} if base == "u_system" else None
            out, span = self.call(layer, name, fn, args, kwargs, attrs)
            if after is not None:
                after(span, args, out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        import scipy.sparse.linalg as spla

        if self._patches:
            raise RuntimeError("tracer already installed")
        layer_of = {}
        for layer in PUBLIC_LAYERS:
            mod = sys.modules.get(f"capmink.{layer}")
            if mod is None:  # a workload that never imports the CLI
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    layer_of[id(obj)] = layer
        solver = sys.modules["capmink.solver"]
        for name in SOLVER_ENTRIES:
            layer_of[id(getattr(solver, name))] = "solver"
        wrappers = {}
        for mod in _capmink_modules():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                # a timing shim a workload put in front of a target keeps its layer
                layer = layer_of.get(id(inspect.unwrap(obj)))
                if layer is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(layer, obj)
                self._patch(mod, name, wrappers[id(obj)])
        for name in LU_FACTOR_FUNCS:
            self._patch(spla, name, self._lu_wrapper(name, getattr(spla, name)))

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self):
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    def _lu_wrapper(self, kind, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(A, *args, **kwargs):
            shape = getattr(A, "shape", (0, 0))
            attrs = {"factor": True, "n": int(shape[0]), "nnz": int(getattr(A, "nnz", 0))}
            out, span = tracer.call("lu", f"lu.{kind}", fn, (A,) + args, kwargs, attrs)
            if kind == "splu":
                span["fill_nnz"] = int(out.L.nnz + out.U.nnz)
                return _TracedFactor(tracer, out)
            if kind == "factorized":
                solve = out

                def traced_solve(b):
                    return tracer.call("lu", "lu.solve", solve, (b,), {})[0]

                return traced_solve
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    # -- output ----------------------------------------------------------------

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _after_newton(span, args, out):
    trace = out.newton_trace[0]
    span.update(iterations=trace.iterations, halvings=trace.halvings,
                converged=bool(out.converged))


def _after_write(span, args, out):
    target = args[0]
    if os.path.isdir(target):
        paths = [os.path.join(target, n)
                 for n in ("result.json", "solution.csv", "newton_trace.csv")]
    else:
        paths = [target]
    span["bytes"] = sum(os.path.getsize(p) for p in paths if os.path.exists(p))


_AFTER = {
    "newton_solve": _after_newton,
    "write_solve_artifacts": _after_write,
    "write_json_report": _after_write,
}


def self_times(spans) -> dict:
    """Self time per layer: span duration minus the time its children cover.

    Spans are recorded on one thread, so children are nested and disjoint
    and the covered time is the sum of their durations.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["t1"] - s["t0"]
    out = defaultdict(float)
    for s in spans:
        out[s["layer"]] += (s["t1"] - s["t0"]) - child[s["id"]]
    return dict(out)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repetition (see perfbench/README.md)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def dur(s):
        return s["t1"] - s["t0"]

    lu = [s for s in spans if s["layer"] == "lu"]
    factors = [s for s in lu if s.get("factor")]
    fills = [s["fill_nnz"] for s in factors if "fill_nnz" in s]
    newton = [s for s in spans if s["name"] == "solver.newton_solve"]
    steps = [s for s in newton if s["parent"] is not None
             and by_id[s["parent"]]["name"] == "solver.continuation_solve"]
    usys = [s for s in spans if s["name"] == "operators.u_system"]
    builds = sum(1 for s in usys if not s["hit"])
    lu_s = sum(dur(s) for s in lu)
    return {
        "lu.calls": len(factors),
        "lu.s": lu_s,
        "lu.s_per_call": lu_s / len(factors) if factors else 0.0,
        "lu.n": _mean([s["n"] for s in factors]),
        "lu.nnz": _mean([s["nnz"] for s in factors]),
        "lu.fill_nnz": _mean(fills),
        "solver.self_s": selfs.get("solver", 0.0),
        "solver.newton_solve.calls": len(newton),
        "solver.newton_iters": sum(s.get("iterations", 0) for s in newton),
        "solver.halvings": sum(s.get("halvings", 0) for s in newton),
        "solver.step_accept_ratio": (
            sum(1 for s in steps if s.get("converged")) / len(steps) if steps else 0.0
        ),
        "solver.nonconverged": sum(1 for s in newton if not s.get("converged", True)),
        "operators.u_system.builds": builds,
        "operators.u_system.hit_ratio": (len(usys) - builds) / len(usys) if usys else 0.0,
        "operators.u_system.s": sum(dur(s) for s in usys),
        "operators.self_s": selfs.get("operators", 0.0),
        "grid.s": selfs.get("grid", 0.0),
        "problem_io.s": selfs.get("problem_io", 0.0),
        "problem_io.bytes_written": sum(s.get("bytes", 0) for s in spans
                                        if s["layer"] == "problem_io"),
        "john.s": selfs.get("john", 0.0),
        "monitors.s": selfs.get("monitors", 0.0),
        "ellipsoid.s": selfs.get("ellipsoid", 0.0),
        "cli.self_s": selfs.get("cli", 0.0),
        "bench.self_s": selfs.get("bench", 0.0),
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0
