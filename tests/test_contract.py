"""Names and behaviour the benchmark in perfbench/ relies on.

The benchmark times `capmink sweep` by patching ``capmink.cli.continuation_solve``
and traces the solver entry points by name, so these must not move.
"""

import dataclasses
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np

import capmink.cli as cli
import capmink.solver as solver
from capmink import ProblemSpec, build_grid, ell_bump_f_exact
from capmink.operators import JACOBIAN_TERMS, u_system
from capmink.problem_io import density_from_config


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _solver_entries():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOLVER_ENTRIES


def test_sweep_solves_through_cli_binding(tmp_path, monkeypatch):
    calls = []
    real = cli.continuation_solve

    def counted(*args, **kwargs):
        calls.append(args[0].q)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "continuation_solve", counted)
    cfg = write_config(
        tmp_path / "sweep.json",
        {"p_values": [2.5], "q_values": [1.5, 2.0], "theta_values": [math.pi / 3],
         "f": {"kind": "ell_power", "c": 1.0, "alpha": -1.2}, "grid": {"Nphi": 8, "Npsi": 16}},
    )
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == [1.5, 2.0]


def test_benchmark_command_line_and_solver_config(tmp_path):
    """perfbench/workloads.py runs `sweep --config C --out D --jobs 1` and builds
    SolverConfig() or SolverConfig(max_newton=n)."""
    cfg = write_config(
        tmp_path / "sweep.json",
        {"p_values": [2.5], "q_values": [1.5], "theta_values": [math.pi / 3],
         "f": {"kind": "ell_power", "c": 1.0, "alpha": -1.2}, "grid": {"Nphi": 8, "Npsi": 16}},
    )
    out = tmp_path / "o"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
    assert (out / "sweep.csv").exists()
    assert [f.name for f in dataclasses.fields(solver.SolverConfig)] == ["newton_tol",
                                                                         "max_newton"]
    assert solver.SolverConfig() == solver.SolverConfig(newton_tol=1e-10, max_newton=50)
    assert solver.SolverConfig(max_newton=3).max_newton == 3


def test_solver_entries_resolve():
    """Every name the tracer wraps is a plain function of capmink.solver."""
    for name in _solver_entries():
        fn = getattr(solver, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == solver.__name__, name


def test_solve_results_live_on_the_callers_grid():
    """Whatever psi ring a solve runs on, SolveResult.h and .u come back on the
    caller's grid, and the solver calls of perfbench/workloads.py keep their
    signatures."""
    g = build_grid(math.pi / 3, 8, 16)
    for k, even in [(2, True), (1, False), (0, True)]:  # the half ring, the grid, one cell
        f = ell_bump_f_exact(g, 2.5, 1.5, 0.05, k)
        result = solver.continuation_solve(
            ProblemSpec(p=2.5, q=1.5, theta=g.theta, f=f, even=even), g)
        assert result.converged
        assert result.h.geometry is g and result.u.geometry is g
        assert result.h.values.shape == result.u.values.shape == g.shape

    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(solver.continuation_solve) == ["spec", "geom", "cfg"]
    # the tracer wraps newton_solve by name with *args, **kwargs and reads its result
    assert names(solver.newton_solve) == ["spec", "geom", "s", "u0", "cfg"]
    assert names(solver.ell_bump_f_exact) == ["geom", "p", "q", "eps", "k"]
    assert names(solver.ell_bump_field) == ["geom", "eps", "k"]
    assert names(u_system) == ["geom"]
    assert [f.name for f in dataclasses.fields(ProblemSpec)][:5] == ["p", "q", "theta", "f",
                                                                    "even"]


def test_u_system_caches_nothing():
    """u_system leaves neither its operators nor their layout on the grid, and two
    calls return the same operators bit for bit."""
    g = build_grid(1.0, 8, 16)
    first, second = u_system(g), u_system(g)
    assert not {"u_system", "ring_layout"} & set(g._cache)
    for k in JACOBIAN_TERMS:
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(first[k], name), getattr(second[k], name)), (k, name)


def test_pq_result_reports_polish(tmp_path):
    cfg = write_config(
        tmp_path / "pq.json",
        {"theta": 1.0, "p": 2.0, "q": 2.0, "even": True,
         "f": {"kind": "ell_power", "alpha": -0.5}, "grid": {"Nphi": 8, "Npsi": 16}},
    )
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    polish = json.loads((out / "pq_limit.json").read_text())
    assert result["converged"] is True
    assert result["residual_sup"] == polish["residual_sup"]
    assert result["residual_sup"] <= 1e-9


def test_factorizations_are_one_splu_per_solve_or_per_direction(monkeypatch):
    """The benchmark's lu layer sees every exact factorization.

    Every direction of even or unsymmetric data factors the psi-averaged
    Jacobian in Fourier modes, all m/2 + 1 modes of its ring in one zgttrf
    call of (m/2 + 1) Nphi rows, and runs GMRES on it; it makes no splu
    call.  A miss whose true residual also misses ETA_MAX runs GMRES on
    toward ETA_MAX, and a second such miss ends the Newton solve.
    psi-independent data takes one exact factor per direction, by one splu
    call.
    """
    factorizations, tridiagonals, far_misses = [], [], []
    real_splu, real_gmres, real_zgttrf = solver.spla.splu, solver.spla.gmres, solver.lapack.zgttrf

    def counted(*args, **kwargs):
        factorizations.append(args[0].shape)
        return real_splu(*args, **kwargs)

    def zgttrf(dl, d, du, **kwargs):
        tridiagonals.append(d.shape)
        return real_zgttrf(dl, d, du, **kwargs)

    def gmres(op, b, **kwargs):
        out = real_gmres(op, b, **kwargs)  # a miss, and its true residual misses ETA_MAX
        far_misses.append(out[1] != 0 and bool(np.linalg.norm(op.matvec(out[0]) - b)
                                               > solver.ETA_MAX * np.linalg.norm(b)))
        return out

    monkeypatch.setattr(solver.spla, "splu", counted)
    monkeypatch.setattr(solver.spla, "gmres", gmres)
    monkeypatch.setattr(solver.lapack, "zgttrf", zgttrf)
    # a Newton direction for each accepted iteration, plus the last direction of
    # a solve given up before max_newton (a line search that ran out of halvings,
    # a rejected continuation trial step, or a GMRES miss beyond ETA_MAX)
    max_newton = solver.SolverConfig().max_newton

    def directions(t):
        return t.iterations + (not t.converged and t.iterations < max_newton)

    g = build_grid(math.pi / 3, 16, 32)
    bump = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                       f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.05))
    traces = solver.continuation_solve(bump, g).newton_trace
    assert len(far_misses) == sum(directions(t) for t in traces) > 0
    modes = g.Npsi // 2 // 2 + 1  # the even data's half ring, rfft modes 0 .. m / 2
    assert len(factorizations) == sum(t.factorizations for t in traces)
    assert tridiagonals == [(modes * g.Nphi,)] * sum(t.mode_factorizations for t in traces)
    assert sum(t.factorizations for t in traces) == sum(far_misses) == 0
    assert 0 < sum(t.mode_factorizations for t in traces) == len(far_misses)

    factorizations.clear()
    tridiagonals.clear()
    g1 = build_grid(1.0, 8, 16)
    f = density_from_config(g1, {"kind": "ell_power", "alpha": -0.5}, 2.0, 2.0)
    pq = ProblemSpec(p=2.0, q=2.0, theta=1.0, f=f, even=True)
    traces = solver.pq_limit_solve(pq, g1).solution.newton_trace
    assert sum(t.iterations for t in traces) > 0
    assert len(factorizations) == sum(directions(t) for t in traces)
    assert [t.factorizations for t in traces] == [directions(t) for t in traces]
    assert all(t.mode_factorizations == t.krylov_iterations == 0 for t in traces)
    assert not tridiagonals
