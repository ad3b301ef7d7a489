"""Acceptance gate: the quantitative properties the package promises.

Each test pins one advertised numerical property with explicit tolerances;
shared expensive solves are computed once in module-scope fixtures.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from capmink import (
    ProblemSpec,
    ScalarField,
    WedgeError,
    build_grid,
    c0_bound_check,
    cap_from_RH,
    continuation_solve,
    curvature_tensor,
    ell_bump_f_exact,
    ell_bump_field,
    ell_field,
    ell_grad_sq,
    embed_body,
    gradient_quotient,
    john_construct,
    make_cap,
    newton_solve,
    noncollapse_check,
    phi_monitor,
    pq_limit_solve,
    pq_residual,
    uniqueness_probe,
    verify_sandwich,
)
from capmink.cli import main
from capmink.grid import bump_profile


def ell_power(geom, c=1.0, alpha=0.0, beta=0.0):
    ell = ell_field(geom).values
    w0 = ell**2 + ell_grad_sq(geom)
    return ScalarField(geom, c * ell**alpha * w0**beta)


@pytest.fixture(scope="module")
def branch_i_solutions():
    """3 x 3 x 3 sweep of the even existence branch 1 < p < q <= 3."""
    out = []
    for p in (1.2, 1.5, 1.8):
        for q in (2.0, 2.5, 3.0):
            for theta in (math.pi / 4, math.pi / 3, 1.3):
                geom = build_grid(theta, 16, 32)
                f = ell_power(geom, c=0.8, alpha=-0.8, beta=-0.3)
                spec = ProblemSpec(p=p, q=q, theta=theta, f=f, even=True)
                out.append((geom, spec, continuation_solve(spec, geom)))
    return out


class TestCriterion1LIdentity:
    def test_ell_identity_second_order(self):
        start = time.time()
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
            defects = []
            for N in (16, 32, 64):
                geom = build_grid(theta, N, 2 * N)
                cd = curvature_tensor(geom, ell_field(geom))
                defects.append(
                    max(
                        float(np.max(np.abs(cd.b11 - 1.0))),
                        float(np.max(np.abs(cd.b22 - 1.0))),
                        float(np.max(np.abs(cd.b12))),
                    )
                )
            for d, geom_N in zip(defects, (16, 32, 64)):
                g = build_grid(theta, geom_N, 2 * geom_N)
                assert d <= 5.0 * g.grid_eps()
            order = math.log2(defects[0] / defects[2]) / 2.0
            assert 1.8 <= order <= 2.2
        assert time.time() - start < 5.0


class TestCriterion2BasePoint:
    def test_newton_base_point(self):
        theta = math.pi / 3
        geom = build_grid(theta, 64, 128)
        f = ell_power(geom, alpha=-1.0)
        spec = ProblemSpec(p=2.0, q=3.0, theta=theta, f=f, even=True)
        phi = geom.phi_nodes[:, None]
        psi = geom.psi_nodes[None, :]
        rho = bump_profile(phi, theta)
        starts = [
             1.0 + 0.05 * rho + 0.1 * np.cos(2 * psi) * rho,
            (1.0 - 0.08 * rho) * (1.0 + 0.05 * np.cos(4 * psi) * rho),
        ]
        for vals in starts:
            u0 = ScalarField(geom, np.broadcast_to(vals, geom.shape).copy())
            result = newton_solve(spec, geom, 0.0, u0)
            assert result.converged
            assert result.newton_trace[0].iterations <= 10
            assert result.newton_trace[0].residuals[-1] <= 1e-10
            assert np.max(np.abs(result.u.values - 1.0)) <= 1e-8


class TestCriterion3Manufactured:
    def test_recovery_second_order_and_runtime(self):
        theta = math.pi / 3
        p, q = 2.0, 1.5
        errs = {}
        for N in (32, 64, 128):
            geom = build_grid(theta, N, 2 * N)
            h_star = ell_bump_field(geom, eps=0.05, k=2)
            f = ell_bump_f_exact(geom, p=p, q=q, eps=0.05, k=2)
            spec = ProblemSpec(p=p, q=q, theta=theta, f=f, even=True)
            start = time.time()
            result = continuation_solve(spec, geom)
            elapsed = time.time() - start
            assert result.converged
            if N == 128:
                assert elapsed < 120.0
            errs[N] = float(np.max(np.abs(result.h.values - h_star.values)))
        assert 3.0 <= errs[32] / errs[64] <= 5.0
        assert 3.0 <= errs[64] / errs[128] <= 5.0


class TestCriterion4Hemisphere:
    def test_hemisphere_reduces_to_unit_body(self):
        geom = build_grid(math.pi / 2, 32, 64)
        f = ScalarField(geom, np.ones(geom.shape))
        spec = ProblemSpec(p=3.0, q=1.0, theta=math.pi / 2, f=f, even=True)
        result = continuation_solve(spec, geom)
        assert result.converged
        assert np.max(np.abs(result.h.values - 1.0)) <= 1e-8


class TestCriterion5ExistenceBranchI:
    def test_sweep_converges_via_cli(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "p_values": [1.2, 1.5, 1.8],
            "q_values": [2.0, 2.5, 3.0],
            "theta_values": [math.pi / 4, math.pi / 3, 1.3],
            "f": {"kind": "ell_power", "c": 0.8, "alpha": -0.8, "beta": -0.3},
            "grid": {"Nphi": 16, "Npsi": 32},
        }))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 27
        assert all(r["converged"] == "1" for r in rows)

    def test_solutions_pass_c0_and_gradient_bounds(self, branch_i_solutions):
        n_values = []
        for geom, spec, result in branch_i_solutions:
            assert result.converged
            lower, upper, _ = c0_bound_check(geom, result.h, spec)
            assert lower and upper
            rep = gradient_quotient(geom, result.h, 1.0)
            n_values.append(rep.N_observed)
        # gradient-quotient boundedness across the sweep
        assert max(n_values) < 10.0


class TestCriterion6Uniqueness:
    @pytest.mark.parametrize(
        "p,q,alpha,beta,c",
        [
            (2.3, 1.6, -1.3, -0.2, 1.3),
            (3.0, 2.0, -2.0, -0.5, 1.0),
            (2.6, 1.2, -1.6, 0.0, 0.7),
        ],
    )
    def test_probe_three_configs(self, p, q, alpha, beta, c):
        theta = math.pi / 3
        geom = build_grid(theta, 32, 64)
        f = ell_power(geom, c=c, alpha=alpha, beta=beta)
        spec = ProblemSpec(p=p, q=q, theta=theta, f=f, even=True)
        starts = [
            ScalarField(geom, s * np.ones(geom.shape)) for s in (0.5, 1.0, 2.0)
        ]
        max_log_ratio, passed = uniqueness_probe(spec, geom, starts=starts)
        assert passed
        assert max_log_ratio <= 1e-8


class TestCriterion7PqLimit:
    def test_hemisphere_exact(self):
        geom = build_grid(math.pi / 2, 32, 64)
        f = ScalarField(geom, np.ones(geom.shape))
        spec = ProblemSpec(p=2.0, q=2.0, theta=math.pi / 2, f=f, even=True)
        out = pq_limit_solve(spec, geom)
        assert out.solution.residual_sup <= 1e-6
        assert all(d <= 1e-3 for d in out.diffs)
        assert out.C_star == pytest.approx(1.0, abs=1e-8)

    def test_near_hemispherical_data(self):
        geom = build_grid(1.5, 32, 64)
        f = ell_power(geom, alpha=-1.0, beta=-0.25)
        spec = ProblemSpec(p=2.0, q=2.0, theta=1.5, f=f, even=True)
        out = pq_limit_solve(spec, geom)
        assert out.solution.residual_sup <= 1e-6
        # successive C*_eps differences decrease and reach 1e-3 by eps = 0.0125
        assert out.diffs == sorted(out.diffs, reverse=True)
        assert out.diffs[-1] <= 1e-3
        res = pq_residual(geom, spec.f, spec.p, out.solution.h, out.C_star)
        # h-form cross-check at truncation level
        assert np.max(np.abs(res.values)) <= 100.0 * geom.grid_eps()

    def test_generic_angle_diffs_decrease(self):
        geom = build_grid(math.pi / 3, 32, 64)
        f = ell_power(geom, alpha=-1.0, beta=-0.25)
        spec = ProblemSpec(p=2.0, q=2.0, theta=math.pi / 3, f=f, even=True)
        out = pq_limit_solve(spec, geom)
        assert out.solution.residual_sup <= 1e-6
        assert out.diffs == sorted(out.diffs, reverse=True)


class TestCriterion8RoundTrip:
    def test_ten_thousand_round_trips(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            a = float(rng.uniform(0.4, 2.5))
            b = float(rng.uniform(0.4, 2.5))
            theta = float(rng.uniform(0.35, math.pi / 2))
            cap = make_cap(a, b, theta)
            back = cap_from_RH(cap.R, cap.H, theta)
            assert abs(back.a - a) <= 1e-12 * a
            assert abs(back.b - b) <= 1e-12 * b

    def test_wedge_boundary_rejected(self):
        theta = 0.9
        R = 1.0
        H = R * math.tan(theta) / 2.0  # R/H == 2 cot(theta) exactly
        with pytest.raises(WedgeError):
            cap_from_RH(R, H, theta)


class TestCriterion9JohnSandwich:
    def test_every_converged_solution_sandwiched(self, branch_i_solutions):
        for geom, spec, result in branch_i_solutions:
            body = embed_body(geom, result.h)
            cap, factor = john_construct(body.extents, geom.theta)
            report = verify_sandwich(geom, result.h, cap, factor)
            assert report.passed

    def test_ell_sandwiched_with_factor_nine_halves(self):
        for theta in (math.pi / 4, math.pi / 3):
            geom = build_grid(theta, 48, 96)
            h = ell_field(geom)
            body = embed_body(geom, h)
            cap, factor = john_construct(body.extents, geom.theta)
            # rotationally symmetric: R_out = R_in, factor = 3/2 + 3 = 9/2
            assert factor == pytest.approx(4.5, abs=1e-6)
            assert verify_sandwich(geom, h, cap, factor).passed


class TestCriterion10BoundaryIdentity:
    def test_log_gradient_boundary_slope(self):
        for theta in (math.pi / 4, math.pi / 3):
            worsts = []
            for N in (32, 64):
                geom = build_grid(theta, N, 2 * N)
                phi = geom.phi_nodes[:, None]
                psi = geom.psi_nodes[None, :]
                rho = bump_profile(phi, theta)
                fields = [1.0 + 0.1 * np.cos(k * psi) * rho for k in (1, 2, 3, 4)]
                fields.append(
                    1.0 + 0.05 * np.cos(2 * psi) * rho
                    + 0.05 * np.sin(3 * psi) * rho
                )
                worst = 0.0
                for vals in fields:
                    u = ScalarField(geom, np.broadcast_to(vals, geom.shape).copy())
                    for gamma in (0.5, 1.0):
                        rep = phi_monitor(geom, u, gamma)
                        target = -gamma * geom.cot_theta
                        # the identity holds where the tangential gradient is
                        # bounded away from zero; mask the degenerate azimuths
                        mask = rep.boundary_gradient > 0.5 * np.max(
                            rep.boundary_gradient
                        )
                        err = float(
                            np.nanmax(np.abs(rep.boundary_derivative[mask] - target))
                        )
                        worst = max(worst, err)
                assert worst <= 15.0 * math.sqrt(geom.grid_eps())
                worsts.append(worst)


class TestCriterion11NonCollapse:
    def test_ratio_below_case2_bound(self, branch_i_solutions):
        for geom, spec, result in branch_i_solutions:
            body = embed_body(geom, result.h)
            _, factor = john_construct(body.extents, geom.theta)
            n = gradient_quotient(geom, result.h, 1.0).N_observed
            rep = noncollapse_check(geom, result.h, 1.0, n, factor)
            assert rep.ratio <= rep.bound_case2
            assert rep.passed


class TestCriterion12RobinPlaneDuality:
    def test_boundary_plane_defect_second_order(self, branch_i_solutions):
        for geom, spec, result in branch_i_solutions:
            body = embed_body(geom, result.h)
            scale = float(np.max(result.h.values))
            assert body.extents.boundary_plane_defect <= (
                20.0 * geom.grid_eps() * scale
            )

    def test_defect_decays_quadratically(self):
        theta = math.pi / 3
        defects = []
        for N in (16, 32, 64):
            geom = build_grid(theta, N, 2 * N)
            f = ell_power(geom, alpha=-1.2, beta=-0.1)
            spec = ProblemSpec(p=2.0, q=1.5, theta=theta, f=f, even=True)
            result = continuation_solve(spec, geom)
            assert result.converged
            body = embed_body(geom, result.h)
            defects.append(body.extents.boundary_plane_defect)
        assert defects[0] / defects[1] > 3.0
        assert defects[1] / defects[2] > 3.0
