import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from capmink import (
    ApplicabilityError,
    ConfigError,
    ConvexityError,
    DomainError,
    ProblemSpec,
    ScalarField,
    SolverConfig,
    build_grid,
    continuation_solve,
    ell_bump_f_exact,
    ell_bump_field,
    ell_field,
    ell_grad_sq,
    manufactured_f,
    newton_solve,
    pq_limit_solve,
    pq_residual,
    residual_h,
    residual_u,
    uniqueness_probe,
)
from capmink.grid import bump_profile, evenness_defect, symmetrize_even
from capmink.operators import _fold, u_system
from capmink.solver import (
    _bordered_direction,
    _jacobian,
    _lu_factor,
    _residual_u_vec,
    _within_floor,
)

from conftest import neumann_bump, robin_bump


def ell_power_density(geom, c=1.0, alpha=0.0, beta=0.0):
    ell = ell_field(geom).values
    w0 = ell**2 + ell_grad_sq(geom)
    return ScalarField(geom, c * ell**alpha * w0**beta)


def full_bordered_direction(g, J, res, rhs, pin):
    """(du, d log C) of the full-grid bordered system, by spsolve."""
    mean_row = sp.csr_matrix(np.full((1, g.size), 1.0 / g.size))
    B = sp.bmat([[J, sp.csc_matrix(-rhs[:, None])], [mean_row, None]], format="csc")
    return spla.spsolve(B, -np.append(res, pin))


def bordered_gap(g, fvals, p, q, uvec, symmetry):
    """Relative gap between the folded bordered direction and the full one."""
    res, parts = _residual_u_vec(g, fvals, p, q, uvec)
    pin = float(np.mean(uvec) - 1.0)
    full = full_bordered_direction(g, _jacobian(g, fvals, p, q, uvec, parts), res,
                                   parts[7], pin)
    A = _jacobian(g, fvals, p, q, uvec, parts, symmetry)
    reduced = _bordered_direction(A, res, parts[7], pin, _fold(g, symmetry))
    return np.max(np.abs(reduced - full)) / np.max(np.abs(full))


class TestProblemSpec:
    def test_supported_branches(self, geom_pi3):
        f = ell_power_density(geom_pi3)
        for p, q in [(1.5, 2.5), (2.5, 1.5), (2.0, 2.0), (4.0, 3.0)]:
            ProblemSpec(p=p, q=q, theta=geom_pi3.theta, f=f, even=True)

    @pytest.mark.parametrize("p,q", [(2.0, 3.5), (0.5, 2.0), (1.0, 1.0)])
    def test_unsupported_branches_rejected(self, geom_pi3, p, q):
        f = ell_power_density(geom_pi3)
        with pytest.raises(ConfigError):
            ProblemSpec(p=p, q=q, theta=geom_pi3.theta, f=f, even=True)

    def test_unsupported_allowed_with_flag(self, geom_pi3):
        f = ell_power_density(geom_pi3)
        ProblemSpec(p=2.0, q=3.5, theta=geom_pi3.theta, f=f, even=True,
                    allow_unsupported=True)

    def test_p_less_q_requires_even(self, geom_pi3):
        f = ell_power_density(geom_pi3)
        with pytest.raises(ConfigError):
            ProblemSpec(p=1.5, q=2.5, theta=geom_pi3.theta, f=f, even=False)

    def test_odd_f_with_even_flag_rejected(self, geom_pi3):
        g = geom_pi3
        f = ScalarField.from_function(
            g, lambda phi, psi: 1.0 + 0.3 * np.cos(psi) * np.sin(phi)
        )
        with pytest.raises(ConfigError):
            ProblemSpec(p=2.0, q=1.5, theta=g.theta, f=f, even=True)

    def test_nonpositive_f_rejected(self, geom_pi3):
        with pytest.raises(DomainError):
            ProblemSpec(
                p=2.0, q=1.5, theta=geom_pi3.theta,
                f=ScalarField(geom_pi3, np.zeros(geom_pi3.shape)),
            )


class TestResiduals:
    def test_ell_solves_base_problem(self, geom_pi3):
        """h = ell satisfies the equation with the base density exactly to O(grid^2)."""
        g = geom_pi3
        p, q = 2.0, 1.5
        f = ell_power_density(g, alpha=1.0 - p, beta=(q - 3.0) / 2.0)
        spec = ProblemSpec(p=p, q=q, theta=g.theta, f=f, even=True)
        res = residual_h(spec, g, ell_field(g))
        assert np.max(np.abs(res.values)) < 20.0 * g.grid_eps()

    def test_u_and_h_residuals_agree_at_truncation(self, geom_pi3):
        g = geom_pi3
        p, q = 2.0, 1.5
        f = ell_power_density(g, alpha=1.0 - p, beta=(q - 3.0) / 2.0)
        spec = ProblemSpec(p=p, q=q, theta=g.theta, f=f, even=True)
        u = neumann_bump(g, eps=0.02)
        h = ScalarField(g, ell_field(g).values * u.values)
        ru = residual_u(spec, g, u)
        rh = residual_h(spec, g, h)
        assert np.max(np.abs(ru.values - rh.values)) < 50.0 * g.grid_eps()

    def test_u_one_is_exact_base_solution(self, geom_pi3):
        """At s = 0 the homotopy base density makes u = 1 exact: 0 iterations."""
        g = geom_pi3
        f = ell_power_density(g, alpha=-1.0)
        spec = ProblemSpec(p=2.0, q=3.0, theta=g.theta, f=f, even=True)
        result = newton_solve(spec, g, 0.0, ScalarField(g, np.ones(g.shape)))
        assert result.converged
        assert result.newton_trace[0].iterations == 0
        assert result.newton_trace[0].residuals[0] < 1e-13

    def test_jacobian_matches_finite_differences(self):
        g = build_grid(1.0, 8, 8)
        p, q = 2.2, 1.7
        fvals = ell_power_density(g, alpha=-0.5).values
        rng = np.random.default_rng(3)
        uvec = 1.0 + 0.05 * rng.standard_normal(g.size)
        res0, parts = _residual_u_vec(g, fvals, p, q, uvec)
        J = _jacobian(g, fvals, p, q, uvec, parts)
        eps = 1e-7
        cols = rng.choice(g.size, size=12, replace=False)
        for k in cols:
            du = np.zeros(g.size)
            du[k] = eps
            res1, _ = _residual_u_vec(g, fvals, p, q, uvec + du)
            fd = (res1 - res0) / eps
            exact = np.asarray(J[:, k].todense()).ravel()
            assert np.max(np.abs(fd - exact)) < 1e-5 * max(
                1.0, np.max(np.abs(exact))
            )


class TestNewton:
    def test_base_point_converges_fast(self, geom_pi3):
        g = geom_pi3
        f = ell_power_density(g, alpha=-1.0)
        spec = ProblemSpec(p=2.0, q=3.0, theta=g.theta, f=f, even=True)
        u0 = neumann_bump(g, eps=0.1)
        result = newton_solve(spec, g, 0.0, u0)
        assert result.converged
        assert result.newton_trace[0].iterations <= 10
        assert np.max(np.abs(result.u.values - 1.0)) < 1e-8

    def test_quadratic_contraction(self, geom_pi3):
        g = geom_pi3
        f = ell_power_density(g, alpha=-1.0)
        spec = ProblemSpec(p=2.0, q=3.0, theta=g.theta, f=f, even=True)
        result = newton_solve(spec, g, 0.0, neumann_bump(g, eps=0.1))
        res = result.newton_trace[0].residuals
        # each Newton step at least squares the residual (up to a constant)
        for a, b in zip(res[:-1], res[1:]):
            assert b < 10.0 * a**2 + 1e-10

    def test_nonpositive_start_rejected(self, geom_pi3):
        f = ell_power_density(geom_pi3, alpha=-1.0)
        spec = ProblemSpec(p=2.0, q=3.0, theta=geom_pi3.theta, f=f, even=True)
        bad = ScalarField(geom_pi3, np.full(geom_pi3.shape, -1.0) + 1.0 + 1e-30)
        with pytest.raises((DomainError, ConvexityError)):
            newton_solve(spec, geom_pi3, 0.0, ScalarField(
                geom_pi3, np.where(np.arange(geom_pi3.size).reshape(geom_pi3.shape) == 0,
                                   -1.0, 1.0)))

    def test_p_equals_q_solved_normalized(self, geom_pi3):
        """p = q is one more case of the normalized equation, not a refusal."""
        f = ell_power_density(geom_pi3)
        spec = ProblemSpec(p=2.0, q=2.0, theta=geom_pi3.theta, f=f, even=True)
        result = newton_solve(spec, geom_pi3, 0.0,
                              ScalarField(geom_pi3, np.ones(geom_pi3.shape)))
        assert result.converged
        assert result.newton_trace[0].iterations == 0
        assert result.log_C == 0.0

    # C* of the TestCriterion7PqLimit inputs, as found by the solver this one
    # replaced (continuation at p + 0.1, then a bordered Newton continued in eps)
    @pytest.mark.parametrize("theta,alpha,beta,C_star", [
        (math.pi / 2, 0.0, 0.0, 1.0),
        (1.5, -1.0, -0.25, 1.0186825726717244),
        (math.pi / 3, -1.0, -0.25, 1.203559131526921),
    ])
    def test_p_equals_q_continuation_gives_C_star(self, theta, alpha, beta, C_star):
        g = build_grid(theta, 32, 64)
        f = ell_power_density(g, alpha=alpha, beta=beta)
        result = continuation_solve(ProblemSpec(p=2.0, q=2.0, theta=theta, f=f, even=True), g)
        assert result.converged
        assert math.exp(result.log_C) == pytest.approx(C_star, rel=1e-9)

    def test_solver_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(newton_tol=-1.0)


class TestEvenFold:
    @pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (8, 16), (16, 32)])
    def test_reduced_direction_matches_full_solve(self, Nphi, Npsi):
        """The half-domain bordered step equals the full-grid bordered step."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        f = manufactured_f(g, robin_bump(g, eps=0.1), 2.0, 1.5)
        uvec = symmetrize_even(g, neumann_bump(g, eps=0.05)).values.ravel()
        assert bordered_gap(g, f.values, 2.0, 1.5, uvec, "even") <= 1e-10

    def test_direction_near_p_equals_q_solution(self):
        """1e-6 off a p = q solution S J E is nearly singular; the refinement step
        keeps the bordered step accurate (without it the gap is about 5e-10)."""
        g = build_grid(1.0, 16, 32)
        f = ell_power_density(g, alpha=-0.5)
        limit = continuation_solve(ProblemSpec(p=2.0, q=2.0, theta=1.0, f=f, even=True), g)
        assert limit.converged
        uvec = limit.u.values.ravel() * (1.0 + 1e-6 * neumann_bump(g, eps=1.0).values.ravel())
        fC = f.values * math.exp(limit.log_C)
        assert bordered_gap(g, fC, 2.0, 2.0, uvec, "even") <= 1e-10

    def test_singular_system_is_applicability_error(self):
        with pytest.raises(ApplicabilityError, match="singular"):
            _lu_factor(sp.csc_matrix((3, 3)))

    def test_identity_fold_on_data_that_is_not_even(self):
        g = build_grid(math.pi / 3, 16, 32)
        f = ScalarField.from_function(
            g, lambda phi, psi: 1.0 + 0.2 * np.cos(psi) * np.sin(phi) ** 2
        )
        spec = ProblemSpec(p=2.5, q=1.5, theta=g.theta, f=f, even=False)
        S, E = _fold(g, "none")
        assert S.shape == E.shape == (g.size, g.size)
        result = continuation_solve(spec, g)
        assert result.converged
        assert evenness_defect(g, result.h.values) > 1e-4
        assert np.max(np.abs(residual_u(spec, g, result.u).values)) < 1e-8


def reference_jacobian(g, fvals, p, q, parts):
    """The Jacobian as a sum of sparse products, and the same sum over |terms|."""
    ops = u_system(g)
    b11, b12, b22, g1, g2, h, w, _rhs = parts
    e = (3.0 - q) / 2.0
    c_h = fvals * ((p - 1.0) * h ** (p - 2.0) * w**e
                   + h ** (p - 1.0) * e * w ** (e - 1.0) * 2.0 * h)
    c_g = fvals * h ** (p - 1.0) * e * w ** (e - 1.0) * 2.0
    terms = [(b22, ops["b11"]), (b11, ops["b22"]), (-2.0 * b12, ops["b12"]),
             (-c_g * g1, ops["g1"]), (-c_g * g2, ops["g2"]),
             (-c_h * ops["ell"], sp.identity(g.size))]
    J = sum(sp.diags(c) @ op for c, op in terms)
    J_abs = sum(sp.diags(np.abs(c)) @ abs(op) for c, op in terms)
    return J, J_abs


class TestFoldedJacobian:
    @pytest.mark.parametrize("symmetry", ["none", "even", "rot"])
    @pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (8, 16), (16, 32)])
    def test_assembly_matches_sparse_products(self, Nphi, Npsi, symmetry):
        """The fixed-pattern assembly equals S J E of the product-built Jacobian."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        rng = np.random.default_rng(Nphi + Npsi)
        fvals = ell_power_density(g, alpha=-0.5).values.ravel()
        uvec = 1.0 + 0.05 * rng.standard_normal(g.size)
        _, parts = _residual_u_vec(g, fvals, 2.2, 1.7, uvec)
        J, J_abs = reference_jacobian(g, fvals, 2.2, 1.7, parts)
        S, E = _fold(g, symmetry)
        A = _jacobian(g, fvals, 2.2, 1.7, uvec, parts, symmetry)
        assert A.shape == (S.shape[0], S.shape[0])
        gap = abs(A - S @ J @ E).toarray()
        bound = 16.0 * np.finfo(float).eps * (S @ J_abs @ E).toarray()
        assert np.all(gap <= bound)

    @pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (8, 16), (16, 32)])
    def test_rot_direction_matches_full_solve(self, Nphi, Npsi):
        """The Nphi-unknown bordered step equals the full-grid bordered step."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        f = ell_power_density(g, alpha=-1.2, beta=-0.1).values
        profile = 1.0 + 0.05 * bump_profile(g.phi_nodes, g.theta)
        uvec = np.repeat(profile, Npsi)
        _, parts = _residual_u_vec(g, f, 2.0, 1.5, uvec)
        assert _jacobian(g, f, 2.0, 1.5, uvec, parts, "rot").shape == (Nphi, Nphi)
        assert bordered_gap(g, f, 2.0, 1.5, uvec, "rot") <= 1e-10


def _even_problem(g, scale=1.0, roll=0, reflect=False):
    """p > q data, even in psi but not invariant under a one-cell roll or psi -> -psi."""
    phi = g.phi_nodes[:, None]
    psi = g.psi_nodes[None, :]
    vals = scale * ell_power_density(g, alpha=-1.2).values * (
        1.0 + 0.1 * bump_profile(phi, g.theta) * (np.cos(2 * psi) + 0.5 * np.sin(2 * psi)))
    if reflect:  # psi_j -> psi_{-j}
        vals = np.roll(vals[:, ::-1], 1, axis=1)
    vals = np.roll(vals, roll, axis=1)
    return ProblemSpec(p=2.5, q=1.5, theta=g.theta, f=ScalarField(g, vals), even=True)


def _rot_problem(g, scale=1.0):
    f = ell_power_density(g, c=scale, alpha=-0.8, beta=-0.3)
    return ProblemSpec(p=2.2, q=1.6, theta=g.theta, f=f, even=True)


def _solved(spec, g):
    result = continuation_solve(spec, g)
    assert result.converged
    return result


def _solved_h(spec, g):
    return _solved(spec, g).h.values


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestMetamorphic:
    """Exact discrete symmetries of the equation commute with solving."""

    def test_psi_roll_commutes_with_solving(self):
        g = build_grid(math.pi / 3, 16, 32)
        base = _solved_h(_even_problem(g), g)
        for k in (1, 5):
            rolled = _solved_h(_even_problem(g, roll=k), g)
            assert _rel_gap(rolled, np.roll(base, k, axis=1)) <= 1e-9

    def test_reflection_commutes_with_solving(self):
        g = build_grid(math.pi / 3, 16, 32)
        base = _solved_h(_even_problem(g), g)
        reflected = _solved_h(_even_problem(g, reflect=True), g)
        assert _rel_gap(reflected, np.roll(base[:, ::-1], 1, axis=1)) <= 1e-9

    @pytest.mark.parametrize("problem", [_even_problem, _rot_problem], ids=["even", "rot"])
    @given(c=st.floats(0.2, 5.0))
    def test_density_scaling_dilates_solution(self, problem, c):
        g = build_grid(math.pi / 3, 16, 32)
        spec = problem(g)
        base = _solved(spec, g)
        scaled = _solved(problem(g, scale=c), g)
        dilated = c ** (1.0 / (spec.q - spec.p)) * base.h.values
        assert _rel_gap(scaled.h.values, dilated) <= 1e-9
        assert scaled.log_C - base.log_C == pytest.approx(-math.log(c), abs=1e-9)


class TestContinuation:
    def test_hemisphere_constant_density(self, geom_pi2):
        g = geom_pi2
        f = ScalarField(g, np.ones(g.shape))
        spec = ProblemSpec(p=3.0, q=1.0, theta=g.theta, f=f, even=True)
        result = continuation_solve(spec, g)
        assert result.converged
        assert result.s_reached == 1.0
        assert np.max(np.abs(result.h.values - 1.0)) < 1e-8

    def test_result_fields_consistent(self, geom_pi3):
        g = geom_pi3
        f = ell_power_density(g, alpha=-1.2, beta=-0.1)
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, f=f, even=True)
        result = continuation_solve(spec, g)
        assert result.converged
        assert result.b_eigen_range[0] > 0.0
        assert result.robin_defect_sup < 50.0 * g.grid_eps()
        assert result.residual_floor > 0.0
        # the solver reports the residual of the normalized equation, res(h) / m^2
        res = residual_u(spec, g, result.u).values * math.exp(
            -2.0 * result.log_C / (spec.p - spec.q))
        assert np.max(np.abs(res)) == pytest.approx(result.residual_sup, rel=1e-6)

    def test_solution_is_even(self, geom_pi3):
        from capmink import evenness_defect

        g = geom_pi3
        f = ell_power_density(g, alpha=-1.2)
        spec = ProblemSpec(p=1.8, q=2.4, theta=g.theta, f=f, even=True)
        result = continuation_solve(spec, g)
        assert result.converged
        assert evenness_defect(g, result.h.values) < 1e-12

    def test_to_json_dict_round_trips(self, geom_pi3):
        import json

        g = geom_pi3
        f = ell_power_density(g, alpha=-1.0)
        spec = ProblemSpec(p=2.0, q=3.0, theta=g.theta, f=f, even=True)
        result = continuation_solve(spec, g)
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert doc["converged"] is True
        assert doc["s_reached"] == 1.0
        assert doc["newton_trace"][0]["s"] == 0.0


class TestStepControl:
    """Continuation steered by the observed Newton contraction."""

    def test_easy_problem_takes_one_step(self):
        g = build_grid(math.pi / 3, 16, 32)
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.05))
        result = continuation_solve(spec, g)
        assert result.converged
        assert [t.s for t in result.newton_trace] == [0.0, 1.0]
        direct = newton_solve(spec, g, 1.0, ScalarField(g, np.ones(g.shape)))
        assert _rel_gap(result.h.values, direct.h.values) <= 1e-9

    def test_hard_problem_rejects_early(self):
        """p = 2.1, q = 2, f = ell^-0.5: a plain s = 1 attempt spends 21 halvings."""
        g = build_grid(1.0, 16, 32)
        f = ell_power_density(g, alpha=-0.5)
        result = continuation_solve(ProblemSpec(p=2.1, q=2.0, theta=1.0, f=f, even=True), g)
        assert result.converged
        assert sum(t.halvings for t in result.newton_trace) < 21
        assert sum(t.iterations for t in result.newton_trace) <= 25
        assert all(t.contraction <= 0.5 for t in result.newton_trace if t.converged)

    def test_non_finite_floor_never_converges(self):
        parts = (None,) * 7 + (np.ones(3),)
        zero = np.zeros(3)
        assert _within_floor(zero, zero, 1e-10, parts)
        assert not _within_floor(zero, np.full(3, math.inf), 1e-10, parts)
        assert not _within_floor(np.array([0.0, math.nan, 0.0]), zero, 1e-10, parts)


class TestManufactured:
    def test_density_of_ell_is_base_density(self, geom_pi3):
        g = geom_pi3
        p, q = 2.0, 1.5
        f = manufactured_f(g, ell_field(g), p, q)
        base = ell_power_density(g, alpha=1.0 - p, beta=(q - 3.0) / 2.0)
        assert np.max(np.abs(f.values - base.values)) < 30.0 * g.grid_eps()

    def test_exact_bump_density_matches_discrete(self):
        g = build_grid(math.pi / 3, 64, 128)
        h = ell_bump_field(g, eps=0.05, k=2)
        fd = manufactured_f(g, h, 2.0, 1.5)
        fx = ell_bump_f_exact(g, 2.0, 1.5, eps=0.05, k=2)
        assert np.max(np.abs(fd.values - fx.values)) < 100.0 * g.grid_eps()

    def test_recovery_is_second_order(self):
        theta = math.pi / 3
        errs = []
        for N in (16, 32):
            g = build_grid(theta, N, 2 * N)
            hstar = ell_bump_field(g, eps=0.05, k=2)
            f = ell_bump_f_exact(g, p=2.0, q=1.5, eps=0.05, k=2)
            spec = ProblemSpec(p=2.0, q=1.5, theta=theta, f=f, even=True)
            result = continuation_solve(spec, g)
            assert result.converged
            errs.append(float(np.max(np.abs(result.h.values - hstar.values))))
        assert errs[0] / errs[1] > 3.5

    def test_non_robin_h_star_rejected(self, geom_pi3):
        g = geom_pi3
        bad = ScalarField(g, np.broadcast_to(
            1.0 + g.phi_nodes[:, None] ** 2, g.shape).copy())
        with pytest.raises(ApplicabilityError):
            manufactured_f(g, bad, 2.0, 1.5)


class TestPqLimit:
    def test_hemisphere_constant(self, geom_pi2):
        g = geom_pi2
        f = ScalarField(g, np.ones(g.shape))
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=f, even=True)
        out = pq_limit_solve(spec, g)
        assert out.C_star == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(out.h_bar.values - 1.0)) < 1e-8
        assert out.residual_sup < 1e-10

    def test_normalization_min_h_is_one(self):
        g = build_grid(1.5, 24, 48)
        f = ell_power_density(g, alpha=-1.0, beta=-0.25)
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=f, even=True)
        out = pq_limit_solve(spec, g)
        assert float(np.min(out.h_bar.values)) == pytest.approx(1.0, abs=1e-8)

    def test_dilation_family_shares_C(self):
        """C* is invariant under scaling f, h adjusting accordingly."""
        g = build_grid(1.5, 24, 48)
        f = ell_power_density(g, alpha=-1.0, beta=-0.25)
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=f, even=True)
        out = pq_limit_solve(spec, g)
        res = pq_residual(g, f, 2.0, out.h_bar, out.C_star)
        assert np.max(np.abs(res.values)) < 100.0 * g.grid_eps()

    @pytest.mark.parametrize("c", [1e-4, 1e4])
    def test_scaled_density_scales_C(self, c):
        """f -> c f gives C -> C / c, although h_eps ~ c^(-1/eps) of the eps problems
        leaves the double range at eps = 0.0125."""
        g = build_grid(math.pi / 2, 16, 32)
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=ScalarField(g, np.full(g.shape, c)),
                           even=True)
        out = pq_limit_solve(spec, g)
        assert out.C_star == pytest.approx(1.0 / c, rel=1e-9)
        assert out.C_eps == pytest.approx([1.0 / c] * len(out.eps_schedule), rel=1e-9)

    def test_p_not_equal_q_rejected(self, geom_pi3):
        f = ell_power_density(geom_pi3)
        spec = ProblemSpec(p=2.5, q=2.0, theta=geom_pi3.theta, f=f, even=True)
        with pytest.raises(ApplicabilityError):
            pq_limit_solve(spec, geom_pi3)

    @pytest.mark.parametrize(
        "schedule",
        [(0.05, 0.1), (), (math.inf, 0.1), (math.nan,), (0.1, math.nan), (0.1, 0.0),
         (0.1, 0.1), ("0.1",)],
        ids=["increasing", "empty", "infinite", "nan", "trailing_nan", "zero",
             "repeated", "non_numeric"],
    )
    def test_bad_schedule_rejected(self, geom_pi2, schedule):
        f = ScalarField(geom_pi2, np.ones(geom_pi2.shape))
        spec = ProblemSpec(p=2.0, q=2.0, theta=geom_pi2.theta, f=f, even=True)
        with pytest.raises(ConfigError):
            pq_limit_solve(spec, geom_pi2, eps_schedule=schedule)

    def test_solution_carries_newton_trace(self):
        g = build_grid(1.0, 16, 32)
        f = ell_power_density(g, alpha=-0.5)
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=f, even=True)
        out = pq_limit_solve(spec, g)
        trace = out.solution.newton_trace
        assert trace and trace[-1].converged
        # the p = q continuation, then one warm-started solve per eps
        steps = trace[-len(out.eps_schedule):]
        assert all(t.s == 1.0 and t.converged and t.halvings == 0 for t in steps)

    def test_eps_continuation_matches_independent_solves(self):
        g = build_grid(1.5, 16, 32)
        f = ell_power_density(g, alpha=-1.0, beta=-0.25)
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=f, even=True)
        out = pq_limit_solve(spec, g)
        for e, c in zip(out.eps_schedule, out.C_eps):
            sub = ProblemSpec(p=2.0 + e, q=2.0, theta=g.theta, f=f, even=True)
            r = continuation_solve(sub, g)
            assert r.converged
            assert c == pytest.approx(float(np.min(r.h.values)) ** e, rel=1e-8)


class TestUniqueness:
    def test_probe_requires_p_greater_q(self, geom_pi3):
        f = ell_power_density(geom_pi3)
        spec = ProblemSpec(p=1.5, q=2.5, theta=geom_pi3.theta, f=f, even=True)
        with pytest.raises(ApplicabilityError):
            uniqueness_probe(spec, geom_pi3, starts=[
                ScalarField(geom_pi3, np.ones(geom_pi3.shape)),
                ScalarField(geom_pi3, 2.0 * np.ones(geom_pi3.shape)),
            ])

    def test_probe_requires_two_starts(self, geom_pi3):
        f = ell_power_density(geom_pi3)
        spec = ProblemSpec(p=2.5, q=1.5, theta=geom_pi3.theta, f=f, even=True)
        with pytest.raises(ConfigError):
            uniqueness_probe(spec, geom_pi3, starts=[
                ScalarField(geom_pi3, np.ones(geom_pi3.shape))
            ])

    def test_probe_passes_on_benign_data(self, geom_pi3):
        g = geom_pi3
        f = ell_power_density(g, c=1.3, alpha=-1.3, beta=-0.2)
        spec = ProblemSpec(p=2.3, q=1.6, theta=g.theta, f=f, even=True)
        starts = [ScalarField(g, c * np.ones(g.shape)) for c in (0.5, 1.0, 2.0)]
        spread, ok = uniqueness_probe(spec, g, starts=starts)
        assert ok
        assert spread <= 1e-8
