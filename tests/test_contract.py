"""Names and behaviour the benchmark in perfbench/ relies on.

The benchmark times `capmink sweep` by patching ``capmink.cli.continuation_solve``
and traces the solver entry points by name, so these must not move.
"""

import importlib.util
import json
import math
from pathlib import Path

import capmink.cli as cli
import capmink.solver as solver
from capmink import build_grid
from capmink.operators import u_system


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


def test_solver_entries_resolve():
    for name in _solver_entries():
        assert callable(getattr(solver, name)), name


def test_u_system_cache_key():
    g = build_grid(1.0, 8, 16)
    ops = u_system(g)
    assert g._cache["u_system"] is ops
    assert u_system(g) is ops


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
