"""The benchmark workloads: seeded inputs, set-up, timed phase and gates.

Seed 0 gives the canonical parameters; any other seed jitters them inside
the stated ranges, on which every solve converges.  The program sees only
the generated inputs.  Why each workload exists is recorded in
BENCHMARK.json.

Each workload provides

* ``inputs(seed, grid)`` -> plain parameters (``grid`` overrides the size),
* ``setup(inp, ctx)`` -> state, the untimed part: imports, grid, density
  and, for single-grid workloads, the first ``u_system`` build,
* ``run(state, ctx)`` -> ``(outcome, solve_seconds)``, the timed phase,
* ``check(state, outcome, ctx, gates)`` -> the accuracy figure ``err_sup``,
  setting one gate per checked operation.

``capmink`` is imported inside ``setup`` so that set-up time covers it.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import random
import time
from types import SimpleNamespace


class Gates:
    """Pass/fail of every operation one repetition attempts."""

    def __init__(self, names):
        self.results = {name: False for name in names}

    def set(self, name, ok):
        if name not in self.results:
            raise KeyError(f"unknown gate {name!r}")
        self.results[name] = bool(ok)

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return [name for name, ok in self.results.items() if not ok]


def _jitter(seed):
    rng = random.Random(seed)

    def draw(centre, low, high):
        return centre if seed == 0 else centre + rng.uniform(low, high)

    return draw


def _import_program():
    """Import the package and what its solver imports on first use.

    ``solver`` imports ``scipy.optimize`` inside its first Newton step; doing
    it here keeps that one-off cost in set-up, not in the first repetition.
    """
    import scipy.optimize  # noqa: F401

    import capmink  # noqa: F401


def _solver_config(ctx):
    import capmink.solver as S

    if ctx.get("max_newton") is None:
        return S.SolverConfig()
    return S.SolverConfig(max_newton=ctx["max_newton"])


def _same_as_first(ctx, kind, path):
    """Byte-identity of an artifact with the first one written for these inputs.

    The reference digest is keyed on the inputs, the solver setting and the
    program's source digest, so a later run of the same commit on the same seed is compared
    with this one, and a changed program starts a fresh reference.
    """
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    key = hashlib.sha256(
        json.dumps([ctx["inputs"], ctx["max_newton"], ctx["src_digest"]],
                   sort_keys=True).encode()
    ).hexdigest()[:20]
    ref = os.path.join(ctx["out_root"], "ref", f"{kind}-{key}.sha256")
    if not os.path.exists(ref):
        os.makedirs(os.path.dirname(ref), exist_ok=True)
        with open(ref, "w") as fh:
            fh.write(digest + "\n")
        return True
    with open(ref) as fh:
        return fh.read().strip() == digest


class SolveClock:
    """Times each call through one binding the program looks up.

    Used where the program itself makes the solve calls (``capmink sweep``),
    in traced and untraced repetitions alike; it records durations only.
    """

    def __init__(self, owner, name):
        self.owner, self.name = owner, name
        self.fn = getattr(owner, name)
        self.samples = []

        @functools.wraps(self.fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.fn(*args, **kwargs)
            finally:
                self.samples.append(time.perf_counter() - t0)

        setattr(owner, name, timed)

    def take(self):
        out, self.samples = self.samples, []
        return out

    def close(self):
        setattr(self.owner, self.name, self.fn)


class Manufactured:
    """Even ell-bump with a continuum density on 128x256, plus certificates."""

    name = "manufactured-128"
    gate_names = ("converged", "err_sup", "sandwich", "c0_lower", "c0_upper",
                  "deterministic")
    # sup|h - h*| / (eps * grid_eps) is 0.137-0.140 from 8x16 to 128x256
    ERR_FACTOR = 0.2

    def inputs(self, seed, grid):
        j = _jitter(seed)
        Nphi, Npsi = grid or (128, 256)
        return {"p": j(2.0, -0.02, 0.02), "q": j(1.5, -0.02, 0.02),
                "theta": j(math.pi / 3, -0.005, 0.005), "eps": j(0.05, -0.001, 0.001),
                "Nphi": Nphi, "Npsi": Npsi}

    def setup(self, inp, ctx):
        _import_program()
        import capmink.grid as G
        import capmink.operators as O
        import capmink.solver as S

        geom = G.build_grid(inp["theta"], inp["Nphi"], inp["Npsi"])
        f = S.ell_bump_f_exact(geom, inp["p"], inp["q"], inp["eps"])
        spec = S.ProblemSpec(p=inp["p"], q=inp["q"], theta=inp["theta"], f=f, even=True)
        O.u_system(geom)
        doc = {"theta": inp["theta"], "p": inp["p"], "q": inp["q"], "even": True,
               "f": {"kind": "ell_bump", "eps": inp["eps"], "k": 2}}
        return SimpleNamespace(geom=geom, spec=spec, cfg=_solver_config(ctx), doc=doc,
                               h_star=S.ell_bump_field(geom, inp["eps"]), eps=inp["eps"])

    def run(self, st, ctx):
        import capmink.grid as G
        import capmink.john as J
        import capmink.monitors as M
        import capmink.problem_io as P
        import capmink.solver as S

        geom, spec = st.geom, st.spec
        t0 = time.perf_counter()
        result = S.continuation_solve(spec, geom, st.cfg)
        solve_s = time.perf_counter() - t0
        out = {"result": result}
        if result.converged:
            h = result.h
            body = G.embed_body(geom, h)
            cap, factor = J.john_construct(body.extents, geom.theta)
            out["sandwich"] = J.verify_sandwich(geom, h, cap, factor)
            gq = M.gradient_quotient(geom, h, 1.0)
            M.noncollapse_check(geom, h, 1.0, max(gq.N_observed, 1e-12), factor)
            M.phi_monitor(geom, result.u, 1.0)
            M.q_monitor(geom, h, spec.q)
            out["c0"] = M.c0_bound_check(geom, h, spec)
        P.write_solve_artifacts(ctx["rep_dir"], result, P.resolved_config(st.doc, geom, st.cfg))
        return out, [solve_s]

    def check(self, st, out, ctx, gates):
        import numpy as np

        result = out["result"]
        gates.set("converged", result.converged)
        err = float(np.max(np.abs(result.h.values - st.h_star.values)))
        gates.set("err_sup", err <= self.ERR_FACTOR * st.eps * st.geom.grid_eps())
        if result.converged:
            gates.set("sandwich", out["sandwich"].passed)
            lower, upper, _ = out["c0"]
            gates.set("c0_lower", lower)
            gates.set("c0_upper", upper)
        gates.set("deterministic", _same_as_first(
            ctx, "solution", os.path.join(ctx["rep_dir"], "solution.csv")))
        return err


class SweepBranchI:
    """`capmink sweep` over the 27 branch-I cells on 16x32, in process, --jobs 1."""

    name = "sweep-branch-i"
    CELLS = 27
    # the middle cell (p, q, theta indices 1, 1, 1) carries the accuracy figure
    REF_CELL = 13
    gate_names = ("exit_code",) + tuple(f"cell.{k:02d}" for k in range(CELLS)) + (
        "reference", "deterministic")

    def inputs(self, seed, grid):
        j = _jitter(seed)
        Nphi, Npsi = grid or (16, 32)
        return {
            "p_values": [j(p, -0.01, 0.01) for p in (1.2, 1.5, 1.8)],
            # q stays <= 3, the edge of the supported branch
            "q_values": [j(q, -0.02, 0.0) for q in (2.0, 2.5, 3.0)],
            "theta_values": [j(t, -0.005, 0.005) for t in (math.pi / 4, math.pi / 3, 1.3)],
            "f": {"kind": "ell_power", "c": j(0.8, -0.008, 0.008), "alpha": -0.8,
                  "beta": -0.3},
            "grid": {"Nphi": Nphi, "Npsi": Npsi},
        }

    def setup(self, inp, ctx):
        _import_program()
        import capmink.cli as C

        doc = dict(inp)
        if ctx.get("max_newton") is not None:
            doc["solver"] = {"max_newton": ctx["max_newton"]}
        path = os.path.join(ctx["work_dir"], "sweep.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        return SimpleNamespace(config=path, doc=doc, clock=SolveClock(C, "continuation_solve"),
                               err=None)

    def run(self, st, ctx):
        import capmink.cli as C

        code = C.main(["sweep", "--config", st.config, "--out", ctx["rep_dir"],
                       "--jobs", "1"])
        rows = []
        path = os.path.join(ctx["rep_dir"], "sweep.csv")
        if os.path.exists(path):
            with open(path) as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        return {"code": code, "rows": rows}, st.clock.take()

    def check(self, st, out, ctx, gates):
        gates.set("exit_code", out["code"] == 0)
        rows = out["rows"]
        for k, row in enumerate(rows[: self.CELLS]):
            gates.set(f"cell.{k:02d}", row["converged"] == "1")
        if len(rows) == self.CELLS:
            gates.set("deterministic", _same_as_first(
                ctx, "sweep", os.path.join(ctx["rep_dir"], "sweep.csv")))
        if st.err is None and len(rows) == self.CELLS:
            st.err = self._richardson(st, ctx, rows[self.REF_CELL])
        gates.set("reference", st.err is not None and math.isfinite(st.err))
        return st.err if st.err is not None else math.nan

    def _richardson(self, st, ctx, row):
        """Error of the reported max/min ratio of one cell, from a 2x finer solve.

        The scheme is second order, so err(N) ~ (4/3) |ratio(N) - ratio(2N)|.
        """
        import numpy as np
        import capmink.grid as G
        import capmink.problem_io as P
        import capmink.solver as S

        p, q, theta = float(row["p"]), float(row["q"]), float(row["theta"])
        g = st.doc["grid"]
        geom = G.build_grid(theta, 2 * g["Nphi"], 2 * g["Npsi"])
        f = P.density_from_config(geom, st.doc["f"], p, q)
        spec = S.ProblemSpec(p=p, q=q, theta=theta, f=f, even=True)
        fine = S.continuation_solve(spec, geom, _solver_config(ctx))
        if not fine.converged:
            return None
        ratio = float(np.max(fine.h.values) / np.min(fine.h.values))
        return 4.0 / 3.0 * abs(float(row["ratio"]) - ratio)

    def close(self, st):
        st.clock.close()


WORKLOADS = {w.name: w for w in (Manufactured(), SweepBranchI())}
