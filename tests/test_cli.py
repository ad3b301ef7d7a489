import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import capmink.cli as cli
from capmink import (GradientQuotientReport, NewtonTrace, NonCollapseReport, PqLimitResult,
                     ProblemSpec, SandwichReport, SolveResult, build_grid,
                     ell_bump_field, ell_field, pq_limit_solve)
from capmink.cli import main
from capmink.grid import field_from_csv, field_to_csv
from capmink.problem_io import density_from_config


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def strict_json(path):
    """The JSON document at path; a bare NaN or Infinity raises."""
    def reject(token):
        raise ValueError(f"bare {token} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture()
def base_problem(tmp_path):
    doc = {
        "theta": math.pi / 3,
        "p": 2.0,
        "q": 1.5,
        "even": True,
        "f": {"kind": "ell_power", "c": 1.0, "alpha": -1.2, "beta": -0.1},
        "grid": {"Nphi": 16, "Npsi": 32},
    }
    return write_config(tmp_path / "problem.json", doc), tmp_path


class TestSolve:
    def test_solve_writes_artifacts(self, base_problem):
        cfg, tmp = base_problem
        out = tmp / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["converged"] is True
        assert doc["config"]["grid"] == {"Nphi": 16, "Npsi": 32}
        assert (out / "solution.csv").exists()
        assert all("contraction" in t for t in doc["newton_trace"])
        header = (out / "newton_trace.csv").read_text().splitlines()[1]
        assert header == "s,iter,residual"

    def test_provenance_header_embedded(self, base_problem):
        cfg, tmp = base_problem
        out = tmp / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        first = (out / "solution.csv").read_text().splitlines()[0]
        assert first.startswith("# config=")
        assert '"theta"' in first

    def test_grid_override(self, base_problem):
        cfg, tmp = base_problem
        out = tmp / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--grid", "8x16"]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"]["grid"] == {"Nphi": 8, "Npsi": 16}

    def test_deterministic_output(self, base_problem):
        cfg, tmp = base_problem
        main(["solve", "--config", cfg, "--out", str(tmp / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp / "b")])
        assert (tmp / "a" / "solution.csv").read_bytes() == (
            tmp / "b" / "solution.csv"
        ).read_bytes()

    def test_telemetry_stays_out_of_the_csvs(self, tmp_path):
        """Even psi-dependent data takes GMRES steps on mode factors; the counts
        reach result.json only, and both CSVs are byte-identical across runs."""
        g = build_grid(math.pi / 3, 16, 32)
        cfg = write_config(tmp_path / "bump.json", {
            "theta": g.theta, "p": 2.0, "q": 1.5, "even": True, "grid": {"Nphi": 16, "Npsi": 32},
            "f": {"kind": "manufactured",
                  "h_star": ell_bump_field(g, eps=0.05).values.ravel().tolist()}})
        for run in ("a", "b"):
            assert main(["solve", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        for name in ("solution.csv", "newton_trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        traces = json.loads((tmp_path / "a" / "result.json").read_text())["newton_trace"]
        assert sum(t["factorizations"] for t in traces) == 0
        assert sum(t["mode_factorizations"] for t in traces) >= 1
        assert sum(t["krylov_iterations"] for t in traces) >= 1
        header = (tmp_path / "a" / "newton_trace.csv").read_text().splitlines()[1]
        assert header == "s,iter,residual"

    def test_nonconverged_result_is_strict_json(self, base_problem):
        """An infinite residual is written as null, never as a bare Infinity."""
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        doc.update(grid={"Nphi": 8, "Npsi": 16}, solver={"max_newton": 1})
        out = tmp / "out"
        cfg = write_config(tmp / "one_step.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        result = strict_json(out / "result.json")
        assert result["converged"] is False
        assert result["residual_sup"] is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta,p", [(0.3, 300.0), (1e-6, 2.0), (1e-8, 2.0)])
    def test_base_density_that_cannot_be_formed_names_itself(self, tmp_path, capsys,
                                                              theta, p):
        """f0's weight h^(p-1) underflows (p = 300), or ell fails the Robin test or
        is not positive (theta near 0): exit 2, naming f0, theta, p and q."""
        cfg = write_config(tmp_path / "f0.json", {"theta": theta, "p": p, "q": 1.5,
                                                  "grid": {"Nphi": 8, "Npsi": 16}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "base density f0" in err and f"theta = {theta}, p = {p}, q = 1.5" in err

    def test_pq_problem_writes_limit_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "pq.json",
            {
                "theta": math.pi / 2,
                "p": 2.0,
                "q": 2.0,
                "even": True,
                "f": {"kind": "constant", "value": 1.0},
                "grid": {"Nphi": 16, "Npsi": 32},
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        pq = json.loads((out / "pq_limit.json").read_text())
        assert pq["C_star"] == pytest.approx(1.0, abs=1e-8)
        assert len(pq["C_eps"]) == len(pq["eps_schedule"])

    def test_unsupported_pq_problem_solves_its_eps_problems(self, tmp_path):
        """allow_unsupported reaches the (p + eps, q) problems of the limit scheme,
        which lie outside the supported branches when p = q > 3."""
        cfg = write_config(tmp_path / "pq.json", {
            "theta": 1.0, "p": 3.5, "q": 3.5, "allow_unsupported": True,
            "grid": {"Nphi": 8, "Npsi": 16}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert len(strict_json(out / "pq_limit.json")["C_eps"]) == 4

    def test_missing_config_is_config_error(self):
        assert main(["solve", "--config", "/nonexistent.json"]) == 3

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad)]) == 3

    @pytest.mark.parametrize(
        "extra",
        [
            {"solver": {"bogus": 1}},
            {"solver": {"max_newton": "abc"}},
            {"grid": {"Nphi": "x"}},
            {"f": {"kind": "grid", "values": [1.0] * 5}},
            {"solver": {"newton_tol": math.nan}},
            {"solver": {"newton_tol": math.inf}},
            {"p": 0.5, "q": 2.0, "allow_unsupported": "no"},
            {"even": "false"},
            {"even": 1},
            {"theta": True},
            {"p": "2.5"},
            {"theta": math.nan},
            {"theta": 2.0},
            {"grid": {"Nphi": 8.9, "Npsi": 16}},
            {"solver": {"max_newton": 2.7}},
            {"solver": {"newton_tol": True}},
            {"f": {"kind": "constant", "value": True}},
            {"grid": {"Nphi": 8, "Npsi": 16},
             "f": {"kind": "grid", "values": [1.0] * 127 + ["1.0"]}},
            {"grid": {"Nphi": 8, "Npsi": 16}, "f": {"kind": "grid", "values": [True] * 128}},
            {"solver": {"ds_init": 0.5}},
            {"grid": {"nphi": 8, "npsi": 16}},
            {"grid": {"Nphi": 8, "Npsi": 16, "Nr": 4}},
            {"grid": [8, 16]},
            {"f": {"kind": "constant", "valeu": 5}},
            {"f": {"kind": "ell_power", "alpha": -1.0, "gamma": 0.5}},
            {"f": {"kind": ["constant"]}},
        ],
        ids=["unknown_solver_option", "non_numeric_solver_option",
             "non_numeric_grid", "wrong_length_grid_density",
             "nan_solver_option", "inf_solver_option",
             "string_allow_unsupported", "string_even", "integer_even",
             "bool_theta", "string_p", "nan_theta", "theta_above_half_pi",
             "fractional_grid", "fractional_max_newton", "bool_newton_tol",
             "bool_constant_density", "string_in_grid_density", "bool_grid_density",
             "deleted_solver_option", "misspelled_grid_keys", "unknown_grid_key",
             "grid_list", "misspelled_constant_key", "unknown_ell_power_key",
             "list_density_kind"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, extra):
        cfg = write_config(
            tmp_path / "p.json",
            {"theta": 1.0, "p": 2.0, "q": 1.5, "even": True, **extra},
        )
        assert main(["solve", "--config", cfg]) == 3

    @pytest.mark.parametrize("command,key", [
        ("solve", "solvr"), ("solve", "gamma"), ("solve", "h_csv"), ("monitors", "gama"),
        ("sandwich", "gamma"), ("sweep", "solvr"), ("sweep", "theta"),
    ])
    def test_unknown_top_level_key_is_config_error(self, tmp_path, command, key):
        """A top-level key the subcommand does not read exits 3 before any solve,
        even a key another subcommand reads."""
        if command == "sweep":
            doc = {"p_values": [2.5], "q_values": [1.5], "theta_values": [1.0]}
        else:
            doc = {"theta": 1.0, "p": 2.0, "q": 1.5, "even": True}
        doc.update(grid={"Nphi": 8, "Npsi": 16}, solver={"max_newton": 1})
        doc[key] = {"max_newton": 50} if key == "solvr" else 0.5
        cfg = write_config(tmp_path / "p.json", doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "density",
        ['{"kind": "constant", "value": 1e400}',
         '{"kind": "ell_power", "c": 1.0, "alpha": -1e400}',
         '{"kind": "ell_power", "beta": NaN}'],
        ids=["constant_overflow", "ell_power_overflow", "ell_power_nan"],
    )
    def test_non_finite_density_is_config_error(self, tmp_path, density):
        path = tmp_path / "p.json"
        path.write_text('{"theta": 1.0, "p": 2.0, "q": 1.5, "even": true, '
                        '"grid": {"Nphi": 8, "Npsi": 16}, "f": ' + density + "}")
        assert main(["solve", "--config", str(path)]) == 3

    def test_grid_density_table_is_read_row_major(self, tmp_path):
        g = build_grid(1.0, 8, 16)
        values = 1.0 + np.arange(g.size) / g.size
        f = density_from_config(g, {"kind": "grid", "values": values.tolist()}, 2.0, 1.5)
        assert np.array_equal(f.values.ravel(), values)

    def test_tiny_even_density_solves(self, tmp_path):
        """A psi-dependent density of scale 1e-15 is not psi-independent data."""
        g = build_grid(1.0, 8, 16)
        f = 1e-15 * (1.0 + 0.3 * np.cos(2 * g.psi_nodes) * g.sin_phi[:, None] ** 2)
        cfg = write_config(tmp_path / "p.json", {
            "theta": 1.0, "p": 2.0, "q": 1.5, "even": True, "grid": {"Nphi": 8, "Npsi": 16},
            "f": {"kind": "grid", "values": f.ravel().tolist()}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert strict_json(out / "result.json")["converged"] is True

    @pytest.mark.parametrize("argv,grid", [
        (["--grid", f"8x{10**13}"], None),
        (["--grid", f"8x{10**30}"], None),
        ([], {"Nphi": 10**13}),
    ], ids=["grid_1e13", "grid_1e30", "config_1e13"])
    def test_grid_too_large_for_memory_exits_3(self, tmp_path, capsys, argv, grid):
        """numpy refuses each of these grids without allocating it: 1e30 cells
        are refused by the grid itself, 1e13 by the allocator (MemoryError)."""
        doc = {"theta": 1.0, "p": 2.0, "q": 1.5, "even": True}
        if grid is not None:
            doc["grid"] = grid
        cfg = write_config(tmp_path / "p.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), *argv]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["solve", "monitors", "sandwich", "sweep"])
    @pytest.mark.parametrize("grid", [{"nphi": 8}, "junk"], ids=["unknown_key", "string"])
    def test_grid_override_still_checks_the_grid_object(self, tmp_path, capsys, command,
                                                        grid):
        """--grid replaces the grid object's sizes, not its validation: a
        malformed object exits 3 with the override as without it."""
        doc = ({"p_values": [2.0], "q_values": [1.5], "theta_values": [1.0]}
               if command == "sweep" else {"theta": 1.0, "p": 2.0, "q": 1.5})
        cfg = write_config(tmp_path / "p.json", {**doc, "grid": grid})
        for override in ([], ["--grid", "8x16"]):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                         *override]) == 3
            assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_unsupported_exponents_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json",
            {"theta": 1.0, "p": 0.5, "q": 2.0, "even": True},
        )
        assert main(["solve", "--config", cfg]) == 3


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "CFG", "--jobs", "2"],
        ["solve", "--config", "CFG", "--seed", "1"],
        ["solve", "--config", "CFG", "--grid", "8.5x16"],
        ["solve"],
        ["sweep", "--config", "CFG", "--jobs", "two"],
        ["selftest", "--config", "CFG"],
        ["plotdata", "--artifacts", "OUT", "--grid", "8x16"],
        ["plotdata"],
        ["bogus"],
        [],
    ], ids=["solve_jobs", "solve_seed", "fractional_grid", "solve_no_config",
            "non_integer_jobs", "selftest_config", "plotdata_grid", "plotdata_no_artifacts",
            "unknown_subcommand", "no_subcommand"])
    def test_usage_error_exits_3(self, base_problem, argv):
        cfg, tmp = base_problem
        argv = [{"CFG": cfg, "OUT": str(tmp)}.get(a, a) for a in argv]
        assert main(argv) == 3

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: capmink" in capsys.readouterr().out


# config bytes the JSON reader cannot decode: not UTF-8, and nested past its recursion limit
UNREADABLE_JSON = {"not_utf8": b"\xff\xfe\x00bad", "too_deep": b"[" * 100_000}


@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_unreadable_config_exits_3(tmp_path, capsys, name):
    cfg = tmp_path / "problem.json"
    cfg.write_bytes(UNREADABLE_JSON[name])
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: config file")


NEAR_PQ = {"theta": 1.0, "q": 2.0, "even": True, "f": {"kind": "ell_power", "alpha": -0.5},
           "grid": {"Nphi": 32, "Npsi": 64}}
NEAR_PQ_EPS = (0.01, 0.001)


@pytest.fixture(scope="module")
def pq_log_min_h():
    """log min h_eps = log(C*_eps) / eps of the p = q = 2 data, one per NEAR_PQ_EPS."""
    g = build_grid(1.0, 32, 64)
    f = density_from_config(g, NEAR_PQ["f"], 2.0, 2.0)
    out = pq_limit_solve(ProblemSpec(p=2.0, q=2.0, theta=1.0, f=f, even=True), g,
                         eps_schedule=NEAR_PQ_EPS)
    return [math.log(c) / e for e, c in zip(out.eps_schedule, out.C_eps)]


class TestNearPq:
    """p near q = 2: min h ranges from 1e-295 to 1e295, yet the solve is routine."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,k", [(1.99, None), (1.999, None), (2.001, 1), (2.01, 0)])
    def test_solve_converges_to_the_eps_limit_scale(self, tmp_path, pq_log_min_h, p, k):
        cfg = write_config(tmp_path / "p.json", {**NEAR_PQ, "p": p})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        result = strict_json(out / "result.json")
        assert result["converged"] is True
        assert sum(t["iterations"] for t in result["newton_trace"]) <= 10
        if k is not None:
            h = field_from_csv(str(out / "solution.csv"), 1.0)
            assert math.log(float(np.min(h.values))) == pytest.approx(pq_log_min_h[k],
                                                                    rel=1e-9)

    @pytest.mark.parametrize("p", [1.9999, 2.0001])
    def test_unrepresentable_scale_is_never_written(self, tmp_path, p):
        """min h near 1e-2947 (p = 1.9999) or 1e2947 (p = 2.0001) leaves double range."""
        cfg = write_config(tmp_path / "p.json",
                           {**NEAR_PQ, "p": p, "grid": {"Nphi": 16, "Npsi": 32}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "solution.csv").exists()


class TestSandwich:
    def test_sandwich_passes_for_solution(self, base_problem):
        cfg, tmp = base_problem
        out = tmp / "out"
        assert main(["sandwich", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "sandwich.json").read_text())
        assert doc["pass"] is True
        assert doc["min_ratio"] >= 1.0 - doc["tol"]
        assert (out / "sandwich_ratio.csv").exists()

    def test_sandwich_from_h_csv(self, base_problem, tmp_path):
        cfg, tmp = base_problem
        out1 = tmp / "solve_out"
        main(["solve", "--config", cfg, "--out", str(out1)])
        doc = json.loads((tmp / "problem.json").read_text())
        doc["h_csv"] = str(out1 / "solution.csv")
        cfg2 = write_config(tmp / "with_h.json", doc)
        out2 = tmp / "sw_out"
        assert main(["sandwich", "--config", cfg2, "--out", str(out2)]) == 0

    def test_sandwich_h_csv_must_be_a_path_string(self, base_problem):
        """An integer h_csv is refused, not opened as a file descriptor (and closed)."""
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b"i,j,phi,psi,value\n")
        os.close(write_fd)
        try:
            for h_csv in (read_fd, "", None, True, ["h.csv"]):
                doc["h_csv"] = h_csv
                path = write_config(tmp / "with_h.json", doc)
                assert main(["sandwich", "--config", path, "--out", str(tmp / "o")]) == 3
            os.fstat(read_fd)  # raises if the descriptor was closed
        finally:
            os.close(read_fd)

    @pytest.mark.parametrize("column,value", [("value", "nan"), ("value", "inf"),
                                              ("phi", "nan")])
    def test_sandwich_rejects_non_finite_h_csv(self, base_problem, column, value):
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        path = tmp / "h.csv"
        field_to_csv(ell_field(build_grid(doc["theta"], 16, 32)), path)
        with open(path) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        rows[40][column] = value
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        doc["h_csv"] = str(path)
        cfg2 = write_config(tmp / "with_h.json", doc)
        assert main(["sandwich", "--config", cfg2, "--out", str(tmp / "o")]) == 3

    def test_sandwich_rejects_truncated_h_csv(self, base_problem):
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        path = tmp / "h.csv"
        field_to_csv(ell_field(build_grid(doc["theta"], 16, 32)), path)
        path.write_text("\n".join(path.read_text().splitlines()[:-20]) + "\n")
        doc["h_csv"] = str(path)
        cfg2 = write_config(tmp / "with_h.json", doc)
        assert main(["sandwich", "--config", cfg2, "--out", str(tmp / "o")]) == 3


    @pytest.mark.parametrize("i", [10**13, 10**30], ids=["1e13", "1e30"])
    def test_sandwich_rejects_h_csv_of_a_huge_grid(self, base_problem, i):
        """One row whose index names a huge grid is refused before the grid is built."""
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        doc["h_csv"] = str(_huge_grid_csv(tmp / "h.csv", i))
        cfg2 = write_config(tmp / "with_h.json", doc)
        assert main(["sandwich", "--config", cfg2, "--out", str(tmp / "o")]) == 3


def _huge_grid_csv(path, i):
    """A one-row field CSV whose cell index i names an i x 4 grid."""
    path.write_text(f"i,j,phi,psi,value\n{i},3,0.1,0.0,1.0\n")
    return path


class TestMonitors:
    def test_monitors_report(self, base_problem):
        cfg, tmp = base_problem
        out = tmp / "out"
        assert main(["monitors", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "monitors.json").read_text())
        assert doc["gradient_quotient"]["N_observed"] > 0.0
        assert doc["noncollapse"]["pass"] is True
        assert doc["c0_bound"]["lower_pass"] and doc["c0_bound"]["upper_pass"]
        assert doc["q_monitor"]["B"] >= 1.0

    def test_c0_judges_at_the_run_tolerance(self, base_problem):
        """A solve to newton_tol = 1e-8 is judged at 1e-8, not at the default: at
        theta = 0.5 this solve stops above the default 1e-10."""
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        doc["theta"], doc["solver"] = 0.5, {"newton_tol": 1e-8}
        path = write_config(tmp / "loose.json", doc)
        out = tmp / "out"
        assert main(["monitors", "--config", path, "--out", str(out)]) == 0
        c0 = json.loads((out / "monitors.json").read_text())["c0_bound"]
        assert c0["lower_pass"] and c0["upper_pass"]

    @pytest.mark.parametrize("gamma", [1e-6, 1.999])
    def test_gamma_near_the_ends_writes_an_infinite_bound_as_null(self, base_problem,
                                                                 gamma):
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        doc["theta"], doc["gamma"] = 1.0, gamma
        out = tmp / "out"
        assert main(["monitors", "--config", write_config(tmp / "g.json", doc),
                     "--out", str(out)]) == 0
        noncollapse = strict_json(out / "monitors.json")["noncollapse"]
        assert noncollapse["bound_case1"] is None
        assert noncollapse["pass"] is True

    @pytest.mark.parametrize("gamma", ["abc", math.nan, 0.0, 2.0, None, "1", True],
                             ids=["non_numeric", "nan", "zero", "two", "null",
                                  "numeric_string", "true"])
    def test_bad_gamma_is_config_error_before_solving(self, base_problem, monkeypatch,
                                                      gamma):
        import capmink.cli as cli

        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        doc["gamma"] = gamma
        solves = []
        monkeypatch.setattr(cli, "continuation_solve", lambda *a: solves.append(a))
        path = write_config(tmp / "gamma.json", doc)
        assert main(["monitors", "--config", path, "--out", str(tmp / "o")]) == 3
        assert solves == []


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        cfg = write_config(
            tmp_path / "sweep.json",
            {
                "p_values": [2.5],
                "q_values": [1.5, 2.0],
                "theta_values": [math.pi / 3],
                "f": {"kind": "ell_power", "c": 1.0, "alpha": -1.2, "beta": 0.0},
                "grid": {"Nphi": 12, "Npsi": 24},
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 2
        assert all(r["converged"] == "1" for r in rows)
        assert all(float(r["lambda_min"]) > 0.0 for r in rows)

    def test_sweep_malformed_solver_option(self, tmp_path):
        cfg = write_config(
            tmp_path / "sweep.json",
            {"p_values": [2.5], "q_values": [1.5], "theta_values": [1.0],
             "solver": {"max_newton": "abc"}},
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_cell_config_error_exits_3(self, tmp_path, jobs):
        cfg = write_config(
            tmp_path / "sweep.json",
            {"p_values": [2.5], "q_values": [1.5, 2.0], "theta_values": [1.0],
             "f": {"kind": "bogus"}, "grid": {"Nphi": 8, "Npsi": 16}},
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 3
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 2
        assert all("bogus" in r["error"] for r in rows)

    def test_sweep_builds_one_grid_per_theta(self, tmp_path, monkeypatch):
        """Cells share the grid of their theta, for one sweep and no longer."""
        builds = []
        real = cli.build_grid

        def counted(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "build_grid", counted)
        cfg = write_config(
            tmp_path / "sweep.json",
            {"p_values": [1.2, 1.5], "q_values": [2.0, 2.5],
             "theta_values": [math.pi / 4, math.pi / 3, 1.3],
             "f": {"kind": "ell_power", "c": 0.8, "alpha": -0.8, "beta": -0.3},
             "grid": {"Nphi": 8, "Npsi": 16}},
        )
        for run in ("a", "b"):
            builds.clear()
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / run)]) == 0
            assert sorted(builds) == sorted((th, 8, 16) for th in (math.pi / 4, math.pi / 3, 1.3))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "j2"),
                     "--jobs", "2"]) == 0
        sweep = (tmp_path / "a" / "sweep.csv").read_bytes()
        assert len(sweep.splitlines()) == 14
        assert (tmp_path / "b" / "sweep.csv").read_bytes() == sweep
        assert (tmp_path / "j2" / "sweep.csv").read_bytes() == sweep

    @pytest.mark.parametrize("extra", [{"p_values": [0.5]}, {"theta_values": [2.0]}],
                             ids=["p_below_one", "theta_above_half_pi"])
    def test_sweep_cell_that_cannot_be_built_exits_3(self, tmp_path, extra):
        cfg = write_config(
            tmp_path / "sweep.json",
            {"p_values": [1.5], "q_values": [2.0], "theta_values": [1.0],
             "f": {"kind": "ell_power", "alpha": -0.5}, "grid": {"Nphi": 8, "Npsi": 16},
             **extra},
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:]))
        assert len(rows) == 1 and rows[0]["error"]

    @pytest.mark.parametrize(
        "extra",
        [{"even": False}, {"allow_unsupported": True}, {"even": "no"}, {"allow_unsupported": 1}],
        ids=["odd_data", "allow_unsupported", "string_even", "integer_allow_unsupported"])
    def test_sweep_solves_even_supported_data_only(self, tmp_path, monkeypatch, extra):
        """Every cell is even and supported; a sweep file asking otherwise exits 3."""
        cells = []
        monkeypatch.setattr(cli, "_sweep_entry", lambda task: cells.append(task))
        cfg = write_config(tmp_path / "sweep.json",
                           {"p_values": [1.5], "q_values": [2.0], "theta_values": [1.0],
                            "grid": {"Nphi": 8, "Npsi": 16}, **extra})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert cells == []

    @pytest.mark.parametrize("jobs,workers", [("8", [2]), ("2", [2]), ("1", [])])
    def test_sweep_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch,
                                                       jobs, workers):
        """A fork pool starts all of its workers up front: ask for at most one per cell."""
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = write_config(tmp_path / "sweep.json",
                           {"p_values": [2.5], "q_values": [1.5, 2.0], "theta_values": [1.0],
                            "f": {"kind": "ell_power", "alpha": -1.2},
                            "grid": {"Nphi": 8, "Npsi": 16}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--jobs", jobs]) == 0
        assert pools == workers

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_exits_3(self, tmp_path, monkeypatch, jobs):
        cells = []
        monkeypatch.setattr(cli, "_sweep_entry", lambda task: cells.append(task))
        cfg = write_config(tmp_path / "sweep.json",
                           {"p_values": [2.5], "q_values": [1.5], "theta_values": [1.0]})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--jobs", jobs]) == 3
        assert cells == []

    def test_sweep_missing_keys(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", {"p_values": [2.0]})
        assert main(["sweep", "--config", cfg]) == 3

    @pytest.mark.parametrize("values", ["12", [True], [1.5, False], [1.5, "2.0"],
                                        [1.5, None], [[1.5]], [math.nan], [math.inf],
                                        10**400, {"p": 1.5}, 1.5],
                             ids=["string", "true", "false", "string_item", "null_item",
                                  "nested", "nan", "inf", "huge_int", "object", "scalar"])
    @pytest.mark.parametrize("key", ["p_values", "q_values", "theta_values"])
    def test_sweep_values_must_be_lists_of_finite_numbers(self, tmp_path, monkeypatch,
                                                          key, values):
        """A malformed value list exits 3 before any cell runs."""
        cells = []
        monkeypatch.setattr(cli, "_sweep_entry", lambda task: cells.append(task))
        doc = {"p_values": [2.5], "q_values": [1.5], "theta_values": [1.0],
               "grid": {"Nphi": 8, "Npsi": 16}, key: values}
        path = write_config(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert cells == []
        assert not (tmp_path / "o").exists()


# sweep-config pieces: mostly plausible values, mixed with every JSON kind
_number = st.floats(1.05, 1.6)
_value = st.one_of(_number, st.sampled_from(
    [math.nan, math.inf, -math.inf, -1.0, 0.0, "2.0", "abc", None, True, [], {}]))
_values = st.one_of(st.lists(_number, min_size=1, max_size=2), st.lists(_value, max_size=2),
                    st.sampled_from([None, 1.5, "1.5", "12", [True], {"p": 2.0}]))
_density = st.one_of(
    st.fixed_dictionaries({"kind": st.just("ell_power"), "alpha": st.floats(-1.0, 0.0)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["constant", "ell_power"])},
                          optional={"value": _value, "c": _value, "alpha": _value,
                                    "beta": _value, "valeu": _value, "alpah": _value}),
    st.sampled_from([{"kind": "bogus"}, {"kind": "grid", "values": [1.0]}, {},
                     {"kind": None}, "ell_power", [], None]),
)


# the numbers each well-formed density kind reads
_DENSITY_NUMBERS = {"constant": ("value",), "ell_power": ("c", "alpha", "beta")}


def _not_a_number(value):
    """What no numeric key may hold: a non-number (bools included) or a non-finite one."""
    return (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value))


def _malformed_density(f):
    """A density refused for its form alone: no known kind, a key its kind does
    not read, or a non-number it reads."""
    if not isinstance(f, dict) or f.get("kind") not in _DENSITY_NUMBERS:
        return True
    keys = _DENSITY_NUMBERS[f["kind"]]
    return (bool(set(f) - {"kind", *keys})
            or any(_not_a_number(f[k]) for k in keys if k in f))


# an 8x16 grid object, or one with a misspelled or unknown key
_grid = st.sampled_from([{"Nphi": 8, "Npsi": 16}, {"nphi": 8, "Npsi": 16},
                         {"Nphi": 8, "npsi": 16, "Npsi": 16}])


def _malformed_grid(grid):
    return bool(set(grid) - {"Nphi", "Npsi"})


# top-level keys no subcommand reads, or a key of another subcommand
_stray_keys = st.dictionaries(st.sampled_from(["solvr", "gama", "p_value", "theta", "h_csv"]),
                              _value, max_size=1)
_SWEEP_KEYS = {"p_values", "q_values", "theta_values", "even", "allow_unsupported", "f",
               "grid", "solver"}


def assert_documented_exit(code, malformed):
    """A malformed config exits 3, never 0 or 2; any other ends in 0, 2 or 3."""
    if malformed:
        assert code == 3
    else:
        assert code in (0, 2, 3)


@given(ps=_values, qs=_values, thetas=_values, f=_density, grid=_grid,
       max_newton=st.integers(1, 5), stray=_stray_keys)
def test_sweep_config_fuzz_exits_with_a_documented_code(ps, qs, thetas, f, grid, max_newton,
                                                        stray):
    """A sweep config with a malformed value list, density or grid, or a top-level
    key the sweep does not read, exits 3; any other ends in 0, 2 or 3; nothing
    escapes main."""
    doc = {"p_values": ps, "q_values": qs, "theta_values": thetas, "f": f,
           "grid": grid, "solver": {"max_newton": max_newton}, **stray}
    malformed = (bool(set(doc) - _SWEEP_KEYS) or _malformed_density(f) or _malformed_grid(grid)
                 or any(not isinstance(v, list) or not v or any(map(_not_a_number, v))
                        for v in (ps, qs, thetas)))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp) / "sweep.json", doc)
        assert_documented_exit(
            main(["sweep", "--config", path, "--out", str(Path(tmp) / "o")]), malformed)


# solve and monitors configs: a plausible problem with up to two keys overwritten
# by any JSON kind
_problem = st.fixed_dictionaries(
    {"theta": st.floats(0.3, 1.5), "p": st.floats(1.05, 3.0), "q": st.floats(1.05, 3.0),
     "even": st.just(True),
     "f": st.fixed_dictionaries({"kind": st.just("ell_power"), "alpha": st.floats(-1.0, 0.0)}),
     "grid": st.just({"Nphi": 8, "Npsi": 16}),
     "solver": st.fixed_dictionaries({"max_newton": st.integers(1, 5)})})
_overwrite = st.one_of(
    st.dictionaries(
        st.sampled_from(["theta", "p", "q", "even", "gamma", "f", "allow_unsupported"]),
        st.one_of(_value, _density), max_size=2),
    st.fixed_dictionaries({"grid": _grid}),
    _stray_keys)


_PLAIN_PROBLEM = {"theta": 1.0, "p": 2.0, "q": 1.5, "even": True,
                  "f": {"kind": "ell_power", "alpha": -0.5},
                  "grid": {"Nphi": 8, "Npsi": 16}, "solver": {"max_newton": 5}}
_PROBLEM_KEYS = {"theta", "p", "q", "even", "allow_unsupported", "f", "grid", "solver"}


@pytest.mark.parametrize("command", ["solve", "monitors"])
@given(doc=_problem, overwrite=_overwrite)
@example(doc=_PLAIN_PROBLEM, overwrite={"theta": True, "p": "2.5"})
@example(doc=_PLAIN_PROBLEM, overwrite={"q": None})
@example(doc=_PLAIN_PROBLEM, overwrite={"solvr": {"max_newton": 1}})
@example(doc=_PLAIN_PROBLEM, overwrite={"gama": 0.5})
def test_problem_config_fuzz_exits_with_a_documented_code(command, doc, overwrite):
    """A solve or monitors config with a malformed number, flag, density or grid,
    or a top-level key the subcommand does not read, exits 3; any other ends in
    0, 2 or 3; nothing escapes main."""
    doc = {**doc, **overwrite}
    numbers = ("theta", "p", "q") + (("gamma",) if command == "monitors" else ())
    keys = _PROBLEM_KEYS | ({"gamma"} if command == "monitors" else set())
    malformed = (bool(set(doc) - keys)
                 or any(_not_a_number(doc[k]) for k in numbers if k in doc)
                 or any(not isinstance(doc.get(k, False), bool)
                        for k in ("even", "allow_unsupported"))
                 or _malformed_density(doc["f"]) or _malformed_grid(doc["grid"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp) / "problem.json", doc)
        assert_documented_exit(
            main([command, "--config", path, "--out", str(Path(tmp) / "o")]), malformed)


class TestPlotdata:
    def test_plotdata_from_solve(self, base_problem):
        cfg, tmp = base_problem
        solve_out = tmp / "solve_out"
        main(["solve", "--config", cfg, "--out", str(solve_out)])
        plot_out = tmp / "plot_out"
        assert main(["plotdata", "--artifacts", str(solve_out),
                     "--out", str(plot_out)]) == 0
        lines = (plot_out / "h_profile.csv").read_text().splitlines()
        assert lines[0] == "phi,h"
        assert len(lines) == 17
        assert (plot_out / "trace.csv").exists()

    @pytest.mark.parametrize("result", [{"config": 5}, [1], {"config": {"theta": "1"}}, {}],
                             ids=["config_not_object", "not_object", "string_theta",
                                  "no_config"])
    def test_plotdata_malformed_result_is_config_error(self, base_problem, result):
        cfg, tmp = base_problem
        src = tmp / "solve_out"
        assert main(["solve", "--config", cfg, "--out", str(src), "--grid", "8x16"]) == 0
        (src / "result.json").write_text(json.dumps(result))
        assert main(["plotdata", "--artifacts", str(src), "--out", str(tmp / "p")]) == 3

    @pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
    def test_plotdata_unreadable_result_exits_3(self, base_problem, capsys, name):
        cfg, tmp = base_problem
        src = tmp / "solve_out"
        assert main(["solve", "--config", cfg, "--out", str(src), "--grid", "8x16"]) == 0
        (src / "result.json").write_bytes(UNREADABLE_JSON[name])
        capsys.readouterr()
        assert main(["plotdata", "--artifacts", str(src), "--out", str(tmp / "p")]) == 3
        assert capsys.readouterr().err.startswith("error: config file")

    @pytest.mark.parametrize("theta", [0.0, -0.5, 2.0])
    def test_plotdata_theta_outside_the_range_exits_3(self, base_problem, capsys, theta):
        """A result.json whose theta no cap grid has is a config error, as a
        CSV on another grid is."""
        cfg, tmp = base_problem
        src = tmp / "solve_out"
        assert main(["solve", "--config", cfg, "--out", str(src), "--grid", "8x16"]) == 0
        doc = json.loads((src / "result.json").read_text())
        doc["config"]["theta"] = theta
        (src / "result.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["plotdata", "--artifacts", str(src), "--out", str(tmp / "p")]) == 3
        assert "theta must lie in (0, pi/2]" in capsys.readouterr().err

    @pytest.mark.parametrize("i", [10**13, 10**30], ids=["1e13", "1e30"])
    def test_plotdata_solution_of_a_huge_grid_exits_3(self, tmp_path, i):
        src = tmp_path / "solve_out"
        src.mkdir()
        (src / "result.json").write_text(json.dumps({"config": {"theta": 1.0}}))
        _huge_grid_csv(src / "solution.csv", i)
        assert main(["plotdata", "--artifacts", str(src), "--out", str(tmp_path / "p")]) == 3

    def test_plotdata_missing_dir(self, tmp_path):
        assert main(["plotdata", "--artifacts", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--grid", "24x48"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["4x4", "8x4", "32x4"])
    def test_four_azimuths_are_refused_before_any_suite(self, capsys, grid):
        """cos(2 psi) of the boundary identity field has no tangential gradient
        on 4 azimuths, so that suite has no node to test."""
        assert main(["selftest", "--grid", grid]) == 3
        out = capsys.readouterr()
        assert out.err.startswith("error: selftest needs Npsi >= 6") and out.out == ""

    def test_smallest_grid_passes(self, capsys):
        assert main(["selftest", "--grid", "4x6"]) == 0
        assert "PASS" in capsys.readouterr().out


def _fields(record, drop=(), add=()):
    """The field names of a record class, less drop, plus add."""
    return {f.name for f in dataclasses.fields(record)} - set(drop) | set(add)


@pytest.fixture(scope="module")
def record_artifacts(tmp_path_factory):
    """The artifacts of solve, sandwich and monitors on a p != q problem, of solve
    on a p = q problem and of a one-cell sweep, all at 8x16."""
    tmp = tmp_path_factory.mktemp("records")
    grid = {"Nphi": 8, "Npsi": 16}
    f = {"kind": "ell_power", "alpha": -1.2}
    problem = write_config(tmp / "problem.json", {"theta": math.pi / 3, "p": 2.0, "q": 1.5,
                                                  "even": True, "f": f, "grid": grid})
    pq = write_config(tmp / "pq.json", {"theta": 1.0, "p": 2.5, "q": 2.5, "grid": grid,
                                        "f": {"kind": "ell_power", "alpha": -0.5}})
    sweep = write_config(tmp / "sweep.json", {"p_values": [2.0], "q_values": [1.5],
                                              "theta_values": [math.pi / 3], "f": f,
                                              "grid": grid})
    for command, cfg in (("solve", problem), ("sandwich", problem), ("monitors", problem),
                         ("solve", pq), ("sweep", sweep)):
        out = tmp / f"{command}-{Path(cfg).stem}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    return tmp


def _json_keys(path, *block):
    doc = strict_json(path)
    for key in block:
        doc = doc[key]
    return [set(doc) - {"config"}]


def _sweep_header(tmp):
    lines = (tmp / "sweep-sweep" / "sweep.csv").read_text().splitlines()
    return [set(next(csv.reader(lines[1:2])))]


# the row of a sweep cell whose grid cannot be built, which is written at once
_CELL_ROW, _ = cli._sweep_entry((2.0, 1.5, -1.0, None, 8, 16, None))

# each artifact's keys: its record's fields less the stated exclusions
RECORDS = {
    "result.json": (lambda t: _json_keys(t / "solve-problem" / "result.json"),
                    _fields(SolveResult, drop=("h", "u"))),
    "newton_trace": (lambda t: [set(e) for e in
                                strict_json(t / "solve-problem" / "result.json")["newton_trace"]],
                     _fields(NewtonTrace)),
    "sandwich.json": (lambda t: _json_keys(t / "sandwich-problem" / "sandwich.json"),
                      _fields(SandwichReport, drop=("passed",), add=("pass",))),
    "gradient_quotient": (lambda t: _json_keys(t / "monitors-problem" / "monitors.json",
                                               "gradient_quotient"),
                          _fields(GradientQuotientReport)),
    "noncollapse": (lambda t: _json_keys(t / "monitors-problem" / "monitors.json",
                                         "noncollapse"),
                    _fields(NonCollapseReport, drop=("passed",), add=("pass",))),
    "pq_limit.json": (lambda t: _json_keys(t / "solve-pq" / "pq_limit.json"),
                      _fields(PqLimitResult, drop=("solution",), add=("residual_sup",))),
    "sweep.csv": (_sweep_header, set(_CELL_ROW)),
}


@pytest.mark.parametrize("artifact", sorted(RECORDS))
def test_artifact_keys_are_its_record_fields(record_artifacts, artifact):
    """Every field of a record reaches its artifact, and nothing else does: a field
    is declared once, in its dataclass (or, for sweep.csv, in the cell's row)."""
    keys, fields = RECORDS[artifact]
    found = keys(record_artifacts)
    assert found and all(names == fields for names in found)
