import csv
import json
import math

import pytest

from capmink import build_grid, ell_field
from capmink.cli import main
from capmink.grid import field_to_csv


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_nonconverged_result_is_strict_json(self, base_problem):
        """An infinite residual is written as null, never as a bare Infinity."""
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        doc.update(grid={"Nphi": 8, "Npsi": 16}, solver={"max_newton": 1})
        out = tmp / "out"
        cfg = write_config(tmp / "one_step.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2

        def reject(token):
            raise ValueError(f"bare {token} in result.json")

        result = json.loads((out / "result.json").read_text(), parse_constant=reject)
        assert result["converged"] is False
        assert result["residual_sup"] is None

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
        ],
        ids=["unknown_solver_option", "non_numeric_solver_option",
             "non_numeric_grid", "wrong_length_grid_density",
             "nan_solver_option", "inf_solver_option",
             "string_allow_unsupported", "string_even", "integer_even"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, extra):
        cfg = write_config(
            tmp_path / "p.json",
            {"theta": 1.0, "p": 2.0, "q": 1.5, "even": True, **extra},
        )
        assert main(["solve", "--config", cfg]) == 3

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

    def test_unsupported_exponents_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json",
            {"theta": 1.0, "p": 0.5, "q": 2.0, "even": True},
        )
        assert main(["solve", "--config", cfg]) == 3


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

    def test_sandwich_rejects_truncated_h_csv(self, base_problem):
        cfg, tmp = base_problem
        doc = json.loads((tmp / "problem.json").read_text())
        path = tmp / "h.csv"
        field_to_csv(ell_field(build_grid(doc["theta"], 16, 32)), path)
        path.write_text("\n".join(path.read_text().splitlines()[:-20]) + "\n")
        doc["h_csv"] = str(path)
        cfg2 = write_config(tmp / "with_h.json", doc)
        assert main(["sandwich", "--config", cfg2, "--out", str(tmp / "o")]) == 3


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

    @pytest.mark.parametrize("gamma", ["abc", math.nan, 0.0, 2.0, None],
                             ids=["non_numeric", "nan", "zero", "two", "null"])
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

    def test_sweep_missing_keys(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", {"p_values": [2.0]})
        assert main(["sweep", "--config", cfg]) == 3


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

    def test_plotdata_missing_dir(self, tmp_path):
        assert main(["plotdata", "--artifacts", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--grid", "24x48"]) == 0
        assert "PASS" in capsys.readouterr().out
