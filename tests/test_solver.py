import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import capmink.grid as grid_module
import capmink.solver as solver
from capmink import (
    ApplicabilityError,
    ConfigError,
    ConvexityError,
    DomainError,
    ProblemSpec,
    ScalarField,
    SolverConfig,
    UsageError,
    build_grid,
    continuation_solve,
    curvature_tensor,
    ell_bump_f_exact,
    ell_bump_field,
    ell_field,
    ell_grad_sq,
    embed_body,
    manufactured_f,
    newton_solve,
    pq_limit_solve,
    pq_residual,
    residual_h,
    residual_u,
    uniqueness_probe,
)
from capmink.cli import main as cli_main
from capmink.grid import _ring, bump_profile, evenness_defect
from capmink.operators import JACOBIAN_TERMS, _stencil_table, u_system
from capmink.problem_io import density_from_config
from capmink.solver import (
    NewtonTrace,
    _assemble,
    _base_density,
    _bordered_directions,
    _jacobian_coeffs,
    _ModeFactor,
    _lu_factor,
    _residual_floor,
    _residual_u_vec,
    _symmetry,
    _within_floor,
)

from conftest import fold_pair, neumann_bump, on_ring, ring_of, robin_bump


def ell_power_density(geom, c=1.0, alpha=0.0, beta=0.0):
    ell = ell_field(geom).values
    w0 = ell**2 + ell_grad_sq(geom)
    return ScalarField(geom, c * ell**alpha * w0**beta)


def ring_jacobian(g, fvals, p, q, parts):
    """The Jacobian on the ring (or full grid) g at the frame parts."""
    return _assemble(g, _jacobian_coeffs(g, fvals, p, q, parts))


def full_bordered_direction(g, J, res, rhs, pin):
    """(du, d log C) of the bordered system on the grid or ring g, by spsolve."""
    mean_row = sp.csr_matrix(np.full((1, g.size), 1.0 / g.size))
    B = sp.bmat([[J, sp.csc_matrix(-rhs[:, None])], [mean_row, None]], format="csc")
    return spla.spsolve(B, -np.append(res, pin))


def gmres_miss(op, b, **kwargs):
    """A GMRES that returns the zero iterate as a miss: its true residual misses ETA_MAX."""
    return np.zeros_like(b), 1


def bordered_gap(g, fvals, p, q, uvec, symmetry, spsolve_ring=False):
    """Relative gap between the bordered direction on the ring, tiled onto the
    grid, and the full-grid one.  The ring's direction is the solver's, or with
    ``spsolve_ring`` spsolve of the ring's bordered system."""
    res, parts = _residual_u_vec(g, fvals, p, q, uvec)
    pin = float(np.mean(uvec) - 1.0)
    full = full_bordered_direction(g, ring_jacobian(g, fvals, p, q, parts), res,
                                   parts[7], pin)
    ring = ring_of(g, symmetry)
    fr, ur = on_ring(ring, fvals), on_ring(ring, uvec)
    res, parts = _residual_u_vec(ring, fr, p, q, ur)
    C = _jacobian_coeffs(ring, fr, p, q, parts)
    A, pin = _assemble(ring, C), float(np.mean(ur) - 1.0)
    if spsolve_ring:
        d = full_bordered_direction(ring, A, res, parts[7], pin)
    else:
        d = _bordered_directions(ring, NewtonTrace(s=1.0, iterations=0))(A, C, res, parts[7],
                                                                          pin)
    reduced = np.append(fold_pair(g, ring)[1] @ d[:-1], d[-1])
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
        """residual_h(ell u) is residual_u(u) up to the rounding of h / ell."""
        g = geom_pi3
        p, q = 2.0, 1.5
        f = ell_power_density(g, alpha=1.0 - p, beta=(q - 3.0) / 2.0)
        spec = ProblemSpec(p=p, q=q, theta=g.theta, f=f, even=True)
        u = neumann_bump(g, eps=0.02)
        h = ScalarField(g, ell_field(g).values * u.values)
        ru = residual_u(spec, g, u)
        rh = residual_h(spec, g, h)
        _, parts = _residual_u_vec(g, f.values, p, q, u.values.ravel())
        floor = _residual_floor(g, u.values.ravel(), parts).reshape(g.shape)
        assert np.all(np.abs(ru.values - rh.values) <= floor)

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
        J = ring_jacobian(g, fvals, p, q, parts)
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
        """A fractional max_newton would crash the solve in range(); a bool is
        no count and no tolerance."""
        for kwargs in ({"newton_tol": -1.0}, {"max_newton": 2.5}, {"max_newton": 3.0},
                       {"max_newton": True}, {"newton_tol": True}):
            with pytest.raises(ConfigError):
                SolverConfig(**kwargs)
        assert SolverConfig(max_newton=np.int64(3), newton_tol=1).max_newton == 3


class TestEvenFold:
    @pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (8, 16), (16, 32)])
    def test_reduced_direction_matches_full_solve(self, Nphi, Npsi):
        """The half ring's bordered system has the full-grid bordered step as its
        solution, and the solver's GMRES direction on it is that step to the
        accuracy its forcing term allows."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        f = manufactured_f(g, robin_bump(g, eps=0.1), 2.0, 1.5)
        u = neumann_bump(g, eps=0.05).values
        uvec = (0.5 * (u + np.roll(u, Npsi // 2, axis=1))).ravel()  # the even part
        assert bordered_gap(g, f.values, 2.0, 1.5, uvec, "even", spsolve_ring=True) <= 1e-10
        assert bordered_gap(g, f.values, 2.0, 1.5, uvec, "even") <= 1e-3

    def test_direction_near_p_equals_q_solution(self):
        """1e-5 off a p = q solution the one-cell ring's Jacobian is nearly
        singular; the refinement step keeps the exact bordered step accurate
        (without it the gap is about 3e-11, four orders wider).  Closer to the
        solution the rounding of the full grid's own residual, amplified by
        the same near-singular system, would dominate the reference."""
        g = build_grid(1.0, 16, 32)
        f = ell_power_density(g, alpha=-0.5)
        limit = continuation_solve(ProblemSpec(p=2.0, q=2.0, theta=1.0, f=f, even=True), g)
        assert limit.converged
        profile = 1.0 + 1e-5 * bump_profile(g.phi_nodes, g.theta)
        uvec = (limit.u.values * profile[:, None]).ravel()
        fC = f.values * math.exp(limit.log_C)
        assert bordered_gap(g, fC, 2.0, 2.0, uvec, "rot") <= 1e-10

    def test_singular_system_is_applicability_error(self):
        with pytest.raises(ApplicabilityError, match="singular"):
            _lu_factor(sp.csc_matrix((3, 3)))

    def test_identity_fold_on_data_that_is_not_even(self):
        g = build_grid(math.pi / 3, 16, 32)
        f = ScalarField.from_function(
            g, lambda phi, psi: 1.0 + 0.2 * np.cos(psi) * np.sin(phi) ** 2
        )
        spec = ProblemSpec(p=2.5, q=1.5, theta=g.theta, f=f, even=False)
        assert _symmetry(f.values) == g.Npsi and _ring(g, g.Npsi) is g
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
        """The fixed-pattern assembly on the ring, from the full grid's coefficients
        at the ring's cells, equals S J E of the product-built full Jacobian."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        rng = np.random.default_rng(Nphi + Npsi)
        fvals = ell_power_density(g, alpha=-0.5).values.ravel()
        uvec = 1.0 + 0.05 * rng.standard_normal(g.size)
        _, parts = _residual_u_vec(g, fvals, 2.2, 1.7, uvec)
        J, J_abs = reference_jacobian(g, fvals, 2.2, 1.7, parts)
        ring = ring_of(g, symmetry)
        S, E = fold_pair(g, ring)
        A = _assemble(ring, S @ _jacobian_coeffs(g, fvals, 2.2, 1.7, parts))
        assert A.shape == (ring.size, ring.size)
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
        ring = ring_of(g, "rot")
        _, parts = _residual_u_vec(ring, f[:, :1], 2.0, 1.5, profile)
        assert ring_jacobian(ring, f[:, :1], 2.0, 1.5, parts).shape == (Nphi, Nphi)
        assert bordered_gap(g, f, 2.0, 1.5, uvec, "rot") <= 1e-10


def _even_problem(g, scale=1.0, roll=0, reflect=False, harmonics=(1.0, 0.5, 0.0, 0.0)):
    """p > q data, even in psi but not invariant under a one-cell roll or psi -> -psi.

    The psi profile is a2 cos(2 psi) + b2 sin(2 psi) + a4 cos(4 psi) + b4 sin(4 psi)
    with (a2, b2, a4, b4) = ``harmonics``.
    """
    phi = g.phi_nodes[:, None]
    psi = g.psi_nodes[None, :]
    a2, b2, a4, b4 = harmonics
    profile = (a2 * np.cos(2 * psi) + b2 * np.sin(2 * psi)
               + a4 * np.cos(4 * psi) + b4 * np.sin(4 * psi))
    vals = scale * ell_power_density(g, alpha=-1.2).values * (
        1.0 + 0.1 * bump_profile(phi, g.theta) * profile)
    if reflect:  # psi_j -> psi_{-j}
        vals = np.roll(vals[:, ::-1], 1, axis=1)
    vals = np.roll(vals, roll, axis=1)
    return ProblemSpec(p=2.5, q=1.5, theta=g.theta, f=ScalarField(g, vals), even=True)


def _unflagged_even_problem(g):
    spec = _even_problem(g)
    return ProblemSpec(p=spec.p, q=spec.q, theta=g.theta, f=spec.f)


def _rot_problem(g, scale=1.0):
    f = ell_power_density(g, c=scale, alpha=-0.8, beta=-0.3)
    return ProblemSpec(p=2.2, q=1.6, theta=g.theta, f=f, even=True)


def _bump_problem(g, scale=1.0):
    f = ell_bump_f_exact(g, 2.0, 1.5, eps=0.45, k=1)
    return ProblemSpec(p=2.0, q=1.5, theta=g.theta, f=ScalarField(g, scale * f.values))


def _solved(spec, g):
    result = continuation_solve(spec, g)
    assert result.converged
    return result


def _solved_h(spec, g):
    return _solved(spec, g).h.values


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# (a2, b2, a4, b4) of random even psi profiles; |0.1 profile| <= 0.4 keeps f > 0
_harmonics = st.tuples(*[st.floats(-1.0, 1.0)] * 4)


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

    @given(harmonics=_harmonics, k=st.integers(1, 31))
    def test_psi_roll_commutes_with_solving_on_random_even_data(self, harmonics, k):
        g = build_grid(math.pi / 3, 16, 32)
        base = _solved_h(_even_problem(g, harmonics=harmonics), g)
        rolled = _solved_h(_even_problem(g, roll=k, harmonics=harmonics), g)
        assert _rel_gap(rolled, np.roll(base, k, axis=1)) <= 1e-9

    @given(harmonics=_harmonics)
    def test_reflection_commutes_with_solving_on_random_even_data(self, harmonics):
        g = build_grid(math.pi / 3, 16, 32)
        base = _solved_h(_even_problem(g, harmonics=harmonics), g)
        reflected = _solved_h(_even_problem(g, reflect=True, harmonics=harmonics), g)
        assert _rel_gap(reflected, np.roll(base[:, ::-1], 1, axis=1)) <= 1e-9

    @pytest.mark.parametrize("problem", [_even_problem, _rot_problem, _bump_problem],
                             ids=["even", "rot", "bump045"])
    @given(c=st.floats(0.2, 5.0))
    def test_density_scaling_dilates_solution(self, problem, c):
        """f -> c f takes the same continuation steps with the same counts and
        dilates h by c^(1/(q-p)).  The eps = 0.45 ell-bump takes several steps,
        along which log C drifts by -log kappa per unit s."""
        g = build_grid(math.pi / 3, 16, 32)
        spec = problem(g)
        base = _solved(spec, g)
        scaled = _solved(problem(g, scale=c), g)
        dilated = c ** (1.0 / (spec.q - spec.p)) * base.h.values
        assert _rel_gap(scaled.h.values, dilated) <= 1e-9
        assert scaled.log_C - base.log_C == pytest.approx(-math.log(c), abs=1e-9)
        path, scaled_path = ([(t.s, t.iterations, t.krylov_iterations, t.factorizations,
                               t.mode_factorizations) for t in r.newton_trace]
                             for r in (base, scaled))
        assert problem is not _bump_problem or len(path) > 2
        assert [t[0] for t in scaled_path] == pytest.approx([t[0] for t in path], rel=1e-12)
        assert [t[1:] for t in scaled_path] == [t[1:] for t in path]

    def test_even_flag_does_not_change_the_solve(self, monkeypatch):
        """Even data is solved on the half ring whether or not it is flagged even,
        and the half ring gives the solve forced onto the full grid."""
        g = build_grid(math.pi / 3, 16, 32)
        spec = _unflagged_even_problem(g)
        assert _symmetry(spec.f.values) == g.Npsi // 2
        half = _solved(spec, g)
        assert np.array_equal(half.h.values, _solved(_even_problem(g), g).h.values)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_symmetry", lambda fvals: fvals.shape[1])
            full = _solved(spec, g)
        assert ([(t.s, t.iterations, t.krylov_iterations) for t in full.newton_trace]
                == [(t.s, t.iterations, t.krylov_iterations) for t in half.newton_trace])
        assert _rel_gap(full.h.values, half.h.values) <= 1e-12


class TestRing:
    """Each solve runs on the psi ring of the data's symmetry."""

    def test_symmetry_is_relative_to_the_data_scale(self):
        g = build_grid(1.0, 8, 16)
        sin2 = g.sin_phi[:, None] ** 2
        flat = ell_field(g).values
        even = flat * (1.0 + 0.3 * np.cos(2 * g.psi_nodes) * sin2)
        odd = flat * (1.0 + 0.3 * np.cos(g.psi_nodes) * sin2)
        for scale in (1e-15, 1.0, 1e15):
            assert _symmetry(scale * flat) == 1
            assert _symmetry(scale * even) == g.Npsi // 2
            assert _symmetry(scale * odd) == g.Npsi
            # a psi variation at the rounding level of the data is no variation
            assert _symmetry(scale * flat * (1.0 + 1e-15 * (even - flat))) == 1

    @pytest.mark.parametrize("problem", [_even_problem, _rot_problem], ids=["even", "rot"])
    def test_ring_floor_is_the_full_grid_floor(self, monkeypatch, problem):
        """The ring's floor is the full grid's on the ring cells, although the
        ring's own stencils merge the pole ghost or the psi stencil with the cell,
        also where the pole offsets antipode -1 and +1 meet the psi stencil mod
        Npsi (Npsi = 4) or mod the ring (Npsi = 8).  The reference |A| is S |A| E
        of the full grid's operators."""
        for Nphi, Npsi in [(8, 4), (8, 8), (16, 32)]:
            g = build_grid(math.pi / 3, Nphi, Npsi)
            spec = problem(g)
            ring = ring_of(g, "even" if problem is _even_problem else "rot")
            m = ring.Npsi
            assert _symmetry(spec.f.values) == m
            u = np.tile(np.random.default_rng(Npsi).uniform(0.5, 1.5, (Nphi, m)),
                        (1, Npsi // m))
            f, ur = spec.f.values, on_ring(ring, u)
            _, parts = _residual_u_vec(g, f, spec.p, spec.q, u.ravel())
            full = on_ring(ring, _residual_floor(g, u.ravel(), parts))
            _, parts = _residual_u_vec(ring, on_ring(ring, f), spec.p, spec.q, ur)
            floor = _residual_floor(ring, ur, parts)
            assert np.max(np.abs(floor - full) / full) <= 1e-14
            row, psi = np.divmod(np.arange(g.size), Npsi)
            ring_cell = row * m + psi % m
            reference = {}
            for k in ("b11", "b12", "b22"):
                a = abs(u_system(g)[k][psi < m]).tocoo()
                reference[k] = sp.csr_matrix((a.data, (a.row, ring_cell[a.col])),
                                             shape=(ring.size, ring.size))
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_floor_system", lambda geom: reference)
                expected = _residual_floor(ring, ur, parts)
            assert np.max(np.abs(floor - expected) / expected) <= 1e-14

    @pytest.mark.parametrize("problem", [_even_problem, _unflagged_even_problem, _rot_problem],
                             ids=["even", "unflagged_even", "rot"])
    def test_solve_builds_no_full_grid_operators(self, problem):
        """Operators, floor and symbols all come from the ring's own table, also
        for even data that is not flagged even."""
        g = build_grid(math.pi / 3, 16, 32)
        _solved(problem(g), g)
        assert not {"u_system", "jacobian_pattern", "floor_system"} & set(g._cache)

    def test_even_flag_with_a_defect_above_rounding_solves_the_grid(self):
        """Data within EVEN_TOL of even but not even to rounding is solved on all
        Npsi cells, so residual_sup is the residual of the given density."""
        g = build_grid(math.pi / 3, 16, 32)
        f = ell_bump_f_exact(g, 2.0, 1.5, eps=0.05).values.copy()
        f[:, g.Npsi // 2:] *= 1.0 + 5e-11
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, f=ScalarField(g, f), even=True)
        assert _symmetry(f) == g.Npsi
        result = _solved(spec, g)
        u_bar = result.u.values / np.mean(result.u.values)
        res, _ = _residual_u_vec(g, f * math.exp(result.log_C), spec.p, spec.q, u_bar.ravel())
        # the recomputed u_bar differs from the solver's iterate by rounding
        assert result.residual_sup == pytest.approx(np.max(np.abs(res)), rel=1e-2)

    @pytest.mark.parametrize("problem", [_even_problem, _rot_problem], ids=["even", "rot"])
    def test_solve_leaves_no_reference_cycle(self, problem):
        """Rings and operators cached on the grid hold no reference back to it,
        so the grid dies with the caller's last reference, without the collector."""
        gc.collect()
        gc.disable()
        try:
            g = build_grid(math.pi / 3, 16, 32)
            spec = problem(g)
            assert continuation_solve(spec, g).converged
            grid = weakref.ref(g)
            del g, spec
            assert grid() is None
        finally:
            gc.enable()


class TestOneRing:
    """A continuation decides its ring once and touches the grid once."""

    @staticmethod
    def _multi_step_even(g):
        """The even eps = 0.3, k = 2 ell-bump: two trial steps rejected, then
        four accepted, the last three tried from the secant predictor."""
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.3, k=2))
        _base_density(g, spec.p, spec.q)  # cached, as after any earlier solve on g
        return spec

    def _counted(self, monkeypatch, name):
        g = build_grid(math.pi / 3, 16, 32)
        spec = self._multi_step_even(g)
        firsts, real = [], getattr(solver, name)

        def counted(first, *args, **kwargs):
            firsts.append(first)
            return real(first, *args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
        traces = _solved(spec, g).newton_trace
        assert len(traces) > 4 and not all(t.converged for t in traces)
        return g, firsts

    def test_continuation_decides_its_ring_once(self, monkeypatch):
        _, calls = self._counted(monkeypatch, "_symmetry")
        assert len(calls) == 1

    def test_continuation_evaluates_no_grid_frame(self, monkeypatch):
        """Every residual, every predictor check and the solution's b run on the
        half ring (the base density is cached before the solve)."""
        g, geoms = self._counted(monkeypatch, "_u_frame")
        assert geoms and all(geom is _ring(g, g.Npsi // 2) for geom in geoms)
        assert not any(geom is g for geom in geoms)

    def test_every_step_tests_on_the_same_ring(self, monkeypatch):
        """The s = 0 step included, every floor test gets the one half ring."""
        g, geoms = self._counted(monkeypatch, "_floor_test")
        assert geoms and all(geom is _ring(g, g.Npsi // 2) for geom in geoms)


class TestOneFrame:
    """A solution carries one frame: the convexity check's range for b_eigen_range,
    and for the certificates one frame of h, evaluated on its psi period."""

    @staticmethod
    def _bump(g):
        return ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.05))

    @staticmethod
    def _power(g):
        return ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_power_density(g, 0.8, -0.8, -0.3))

    @pytest.mark.parametrize("solve", [
        lambda spec, g: newton_solve(spec, g, 0.5, ScalarField(g, np.ones(g.shape))),
        lambda spec, g: continuation_solve(spec, g),
        lambda spec, g: pq_limit_solve(ProblemSpec(p=2.5, q=2.5, theta=g.theta, f=spec.f),
                                       g).solution,
    ], ids=["newton", "continuation", "pq_limit"])
    def test_finalize_evaluates_no_frame(self, monkeypatch, solve):
        g = build_grid(1.0, 16, 32)
        spec = self._bump(g)
        inside, calls = [], []
        real_frame, real_finalize = solver._u_frame, solver._finalize

        def frame(*args):
            if inside:
                calls.append(args[0])
            return real_frame(*args)

        def finalize(*args, **kwargs):
            inside.append(True)
            try:
                return real_finalize(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(solver, "_u_frame", frame)
        monkeypatch.setattr(solver, "_finalize", finalize)
        assert solve(spec, g).converged
        assert calls == []

    @pytest.mark.parametrize("density,m", [("_bump", 16), ("_power", 1)],
                             ids=["even_bump", "ell_power"])
    def test_certificates_evaluate_one_frame_on_the_psi_period(self, monkeypatch, density, m):
        """Half the grid for the even ell-bump, one cell for a psi-independent
        density; the tiled frame is the full grid's, bit for bit."""
        g = build_grid(1.0, 16, 32)
        h = continuation_solve(getattr(self, density)(g), g).h
        u = h.values / ell_field(g).values
        assert grid_module._psi_period(u) == m
        calls, real = [], grid_module._u_frame
        monkeypatch.setattr(grid_module, "_u_frame",
                            lambda geom, v: calls.append((geom, np.shape(v))) or real(geom, v))
        cd = curvature_tensor(g, h)
        assert curvature_tensor(g, h) is cd
        embed_body(g, h)
        assert calls == [(_ring(g, m), (g.Nphi, m))]
        b11, b12, b22, g1, g2, _ = real(g, u)
        for name, full in zip(("b11", "b12", "b22", "g1", "g2"), (b11, b12, b22, g1, g2)):
            assert np.array_equal(getattr(cd, name), full), name

    @pytest.mark.parametrize("density", ["_bump", "_power"])
    def test_b_eigen_range_is_the_range_newton_read(self, monkeypatch, density):
        """The last frame of the last Newton solve is the returned iterate's: its
        range, scaled by m = C^(1/(p-q)), is b_eigen_range bit for bit."""
        g = build_grid(1.0, 16, 32)
        spec = getattr(self, density)(g)
        outs, frames = [], []
        real_newton, real_test = solver._newton, solver._floor_test
        monkeypatch.setattr(solver, "_newton",
                            lambda *a, **k: outs.append(real_newton(*a, **k)) or outs[-1])
        monkeypatch.setattr(solver, "_floor_test",
                            lambda *a: frames.append(real_test(*a)) or frames[-1])
        result = continuation_solve(spec, g)
        assert result.converged
        x, trace, _, _, b_range = outs[-1]
        assert trace.converged
        parts = frames[-1][1]
        assert b_range == solver.eigen_range(*parts[:3])
        ring = _ring(g, solver._symmetry(spec.f.values))
        assert np.array_equal(parts[0], solver._u_frame(ring, x[:-1])[0])
        m = float(np.exp(result.log_C / (spec.p - spec.q)))
        assert result.b_eigen_range == (m * b_range[0], m * b_range[1])


class TestGridMismatch:
    """Data sampled on another grid is refused, never broadcast or reshaped."""

    @staticmethod
    def _bump(g):
        return ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.05))

    @staticmethod
    def _entries(spec, g):
        one = ScalarField(g, np.ones(g.shape))
        return [lambda: continuation_solve(spec, g),
                lambda: newton_solve(spec, g, 1.0, one),
                lambda: solver.is_solution(spec, g, ell_field(g))]

    def test_density_of_another_shape_is_refused(self):
        spec = self._bump(build_grid(math.pi / 3, 16, 32))
        for call in self._entries(spec, build_grid(math.pi / 3, 32, 64)):
            with pytest.raises(UsageError, match="grid"):
                call()

    def test_density_of_another_theta_is_refused(self):
        spec = self._bump(build_grid(math.pi / 3, 16, 32))
        for call in self._entries(spec, build_grid(1.0, 16, 32)):
            with pytest.raises(UsageError, match="theta"):
                call()

    def test_start_of_another_shape_is_refused(self):
        g = build_grid(math.pi / 3, 16, 32)
        u0 = ScalarField(build_grid(math.pi / 3, 32, 16), np.ones((32, 16)))
        with pytest.raises(UsageError, match="shape"):
            newton_solve(self._bump(g), g, 1.0, u0)

    def test_h_of_another_shape_is_refused(self):
        g = build_grid(math.pi / 3, 16, 32)
        with pytest.raises(UsageError, match="shape"):
            solver.is_solution(self._bump(g), g, ell_field(build_grid(math.pi / 3, 32, 16)))

    @staticmethod
    def _residuals(spec, g, h):
        return [lambda: residual_h(spec, g, h),
                lambda: residual_u(spec, g, ScalarField(h.geometry, np.ones(h.values.shape))),
                lambda: pq_residual(g, spec.f, 2.0, h, 1.0)]

    def test_residuals_refuse_a_density_of_another_theta(self):
        """Unchecked, residual_h of f from theta = pi/3 on a theta = 1.0 grid
        returns a residual of sup 0.32."""
        spec = self._bump(build_grid(math.pi / 3, 16, 32))
        g = build_grid(1.0, 16, 32)
        for call in self._residuals(spec, g, ell_field(g)):
            with pytest.raises(UsageError, match="theta"):
                call()

    def test_residuals_refuse_a_grid_of_another_shape(self):
        """Unchecked, a 32x64 grid gives a raw broadcasting ValueError."""
        spec = self._bump(build_grid(math.pi / 3, 16, 32))
        g = build_grid(math.pi / 3, 32, 64)
        for call in self._residuals(spec, g, ell_field(g)):
            with pytest.raises(UsageError, match="shape"):
                call()

    def test_residuals_refuse_h_of_another_grid(self):
        g = build_grid(math.pi / 3, 16, 32)
        spec = self._bump(g)
        for other in (build_grid(1.0, 16, 32), build_grid(math.pi / 3, 32, 16)):
            for call in self._residuals(spec, g, ell_field(other)):
                with pytest.raises(UsageError, match="grid"):
                    call()


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


def _strongly_psi_dependent(g):
    """p = 4, q = 3 and the even f = exp(3 cos(2 psi) sin(phi) / sin(theta)),
    tiled from its first half: data the psi-average fits poorly."""
    phi, psi = g.phi_nodes[:, None], g.psi_nodes[None, :g.Npsi // 2]
    half = np.exp(3.0 * np.cos(2.0 * psi) * np.sin(phi) / g.sin_theta)
    return ProblemSpec(p=4.0, q=3.0, theta=g.theta, even=True,
                       f=ScalarField(g, np.tile(half, (1, 2))))


class TestLaggedFactor:
    """Directions of psi-dependent data run GMRES on psi-Fourier mode factors."""

    @pytest.mark.parametrize("symmetry", ["even", "none"])
    @pytest.mark.parametrize("Nphi,Npsi", [(8, 16), (16, 32)])
    def test_mode_factor_solves_the_psi_averaged_jacobian(self, Nphi, Npsi, symmetry):
        """The mode factor's solve is spsolve of the ring Jacobian whose
        coefficients are replaced by their phi-row means, the pole antipode of
        the full grid (a shift by half the ring) included."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        rng = np.random.default_rng(Nphi + Npsi)
        ring = ring_of(g, symmetry)
        fvals = on_ring(ring, 1.0 + 0.1 * rng.random(g.size))
        uvec = on_ring(ring, 1.0 + 0.05 * rng.standard_normal(g.size))
        _, parts = _residual_u_vec(ring, fvals, 2.2, 1.7, uvec)
        C = _jacobian_coeffs(ring, fvals, 2.2, 1.7, parts)
        m = ring.Npsi
        mean = np.repeat(C.reshape(Nphi, m, -1).mean(axis=1), m, axis=0)
        b = rng.standard_normal(C.shape[0])
        expected = spla.spsolve(_assemble(ring, mean), b)
        assert _rel_gap(_ModeFactor(ring, C).solve(b), expected) <= 1e-12

    @pytest.mark.parametrize("symmetry", ["even", "none"])
    @pytest.mark.parametrize("Nphi,Npsi", [(4, 8), (16, 32), (128, 256)])
    def test_only_the_ghost_pair_leaves_the_tridiagonal(self, Nphi, Npsi, symmetry):
        """The mode factor's tridiagonal form rests on the stencil table: its
        only phi-row pair (i, i') with |i - i'| > 1 is the Neumann ghost's
        (N-1, N-3), and rows N-2 and N-1 read only columns N-3 .. N-1."""
        rows, cols = _stencil_table(ring_of(build_grid(math.pi / 3, Nphi, Npsi), symmetry))[:2]
        far = np.abs(rows - cols) > 1
        assert list(zip(rows[far], cols[far])) == [(Nphi - 1, Nphi - 3)]
        assert set(cols[rows >= Nphi - 2]) == {Nphi - 3, Nphi - 2, Nphi - 1}

    @pytest.mark.parametrize("symmetry", ["even", "none"])
    @pytest.mark.parametrize("Nphi,Npsi", [(8, 16), (16, 32)])
    def test_ghost_pivot_swaps_where_the_ghost_entry_is_larger(self, Nphi, Npsi, symmetry):
        """The b11 weight is scaled so that the psi-averaged (N-2, N-3) entry of
        mode 0 cancels, and a constant b12 weight keeps it away from 0 where
        the psi-difference symbol, sin(2 pi k / m), is not 0.  The ghost's
        (N-1, N-3) entry is then the larger in modes 0 and m / 2 only, where
        the pivot step swaps rows N-2 and N-1, and the solve is still spsolve
        of the psi-averaged Jacobian."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        rng = np.random.default_rng(Nphi + Npsi)
        ring = ring_of(g, symmetry)
        fvals = on_ring(ring, 1.0 + 0.1 * rng.random(g.size))
        uvec = on_ring(ring, 1.0 + 0.05 * rng.standard_normal(g.size))
        _, parts = _residual_u_vec(ring, fvals, 2.2, 1.7, uvec)
        C = _jacobian_coeffs(ring, fvals, 2.2, 1.7, parts)
        C[:, JACOBIAN_TERMS.index("b12")] = 1.0
        m, t = ring.Npsi, JACOBIAN_TERMS.index("b11")
        rows, cols, _, R = _stencil_table(ring)
        pair = np.flatnonzero((rows == Nphi - 2) & (cols == Nphi - 3))[0]
        terms = R[pair].sum(axis=0) * C.reshape(Nphi, m, -1).mean(axis=1)[Nphi - 2]
        C[:, t] *= (terms[t] - terms.sum()) / terms[t]
        factor = _ModeFactor(ring, C)
        assert np.flatnonzero(factor.swap).tolist() == [0, m // 2]
        mean = np.repeat(C.reshape(Nphi, m, -1).mean(axis=1), m, axis=0)
        b = rng.standard_normal(C.shape[0])
        expected = spla.spsolve(_assemble(ring, mean), b)
        assert _rel_gap(factor.solve(b), expected) <= 1e-12

    def test_singular_mode_is_refused(self):
        """With only the g2 term, the psi derivative, mode 0 of the even ring of
        9 cells is exactly zero, and modes 1 .. 4 are diagonal and nonzero."""
        ring = ring_of(build_grid(math.pi / 3, 8, 18), "even")
        C = np.zeros((ring.size, len(JACOBIAN_TERMS) + 1))
        C[:, JACOBIAN_TERMS.index("g2")] = 1.0
        with pytest.raises(ApplicabilityError, match="psi-averaged Newton system is singular"):
            _ModeFactor(ring, C)
        C[:, -1] = 1.0  # the diagonal term makes every mode regular
        _ModeFactor(ring, C)

    @pytest.mark.parametrize("run_on", [False, True])
    def test_each_matvec_makes_one_mode_solve(self, monkeypatch, run_on):
        """Each direction of the 16x32 even ell-bump makes one mode solve for
        its border column z and one per GMRES matvec: the ETA_MAX check and
        the step read GMRES's last matvec, at the iterate it returns.  With
        ``run_on``, each first GMRES run stops after one iteration as a miss
        (as :func:`gmres_miss` does, but from a nonzero iterate) that also
        misses ETA_MAX, and the run on from it starts with a matvec at x0
        that reuses the kept one instead of solving again."""
        events, real_gmres = [], solver.spla.gmres
        real_mode, real_solve = solver._ModeFactor, solver._ModeFactor.solve

        def mode(ring, C):
            events.append("factor")
            return real_mode(ring, C)

        def solve(self, v):
            events.append("solve")
            return real_solve(self, v)

        def gmres(op, b, **kwargs):
            events.append("gmres")

            def matvec(v):
                events.append("matvec")
                return op.matvec(v)

            counted = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            if run_on and kwargs["x0"] is None:
                x, _ = real_gmres(counted, b, **{**kwargs, "restart": 1, "maxiter": 1})
                assert np.linalg.norm(op.matvec(x) - b) > solver.ETA_MAX * np.linalg.norm(b)
                return x, 1
            return real_gmres(counted, b, **kwargs)

        monkeypatch.setattr(solver, "_ModeFactor", mode)
        monkeypatch.setattr(real_mode, "solve", solve)
        monkeypatch.setattr(solver.spla, "gmres", gmres)
        g = build_grid(math.pi / 3, 16, 32)
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.05))
        _solved(spec, g)
        text = " ".join(events)
        directions = [d.split() for d in text.split("factor")[1:]]
        assert directions
        for d in directions:
            assert d[:2] == ["solve", "gmres"]
            assert d.count("gmres") == 1 + run_on
            assert d.count("solve") == 1 + d.count("matvec") - run_on
        if run_on:
            assert text.count("gmres matvec matvec") == len(directions)

    def test_rounding_level_miss_takes_no_exact_factor(self, monkeypatch):
        """On the eps = 0.45, k = 1 ell-bump GMRES misses its forcing term, but
        each missed iterate meets ETA_MAX, so the solve takes no exact factor."""
        missed, real_gmres = [], solver.spla.gmres

        def gmres(*args, **kwargs):
            out = real_gmres(*args, **kwargs)
            missed.append(out[1] != 0)
            return out

        monkeypatch.setattr(solver.spla, "gmres", gmres)
        g = build_grid(math.pi / 3, 64, 128)
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.45, k=1))
        traces = _solved(spec, g).newton_trace
        assert any(missed)
        assert sum(t.factorizations for t in traces) == 0

    @pytest.mark.parametrize("case,counts", [
        ("bump-k1-32x64", [(0.0, 0, 0, 0, 0), (1.0, 3, 11, 0, 3)]),
        ("sweep-middle-16x32", [(0.0, 0, 0, 0, 0), (1.0, 3, 0, 3, 0)]),
        ("bump-eps045-k1-16x32", [(0.0, 0, 0, 0, 0), (1.0, 2, 25, 0, 3), (0.5, 5, 47, 0, 5),
                                  (0.9915902679446201, 5, 65, 0, 5), (1.0, 3, 53, 0, 3)]),
    ])
    def test_counts_are_pinned(self, case, counts):
        """(s, Newton iterations, GMRES iterations, exact factors, mode factors)
        of each continuation step: the not-even ell-bump, which runs GMRES on
        the full grid; the middle cell of the 16x32 branch-I sweep,
        psi-independent data whose directions are all exact steps; and the
        eps = 0.45 ell-bump, whose first trial step to s = 1 is rejected and
        whose later steps start from the secant predictor."""
        if case == "sweep-middle-16x32":
            g = build_grid(math.pi / 3, 16, 32)
            f = density_from_config(g, {"kind": "ell_power", "c": 0.8, "alpha": -0.8,
                                        "beta": -0.3}, 1.5, 2.5)
            spec = ProblemSpec(p=1.5, q=2.5, theta=g.theta, f=f, even=True)
        else:
            g = build_grid(math.pi / 3, *((32, 64) if case == "bump-k1-32x64" else (16, 32)))
            eps = 0.05 if case == "bump-k1-32x64" else 0.45
            spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta,
                               f=ell_bump_f_exact(g, 2.0, 1.5, eps=eps, k=1))
        traces = _solved(spec, g).newton_trace
        assert [t.s for t in traces] == pytest.approx([c[0] for c in counts], rel=1e-12)
        assert [(t.iterations, t.krylov_iterations, t.factorizations, t.mode_factorizations)
                for t in traces] == [c[1:] for c in counts]

    @pytest.mark.parametrize("budget", [1, solver.GMRES_RESTART])
    def test_lagged_solve_matches_exact_newton(self, monkeypatch, budget):
        """Exact Newton on the even ell-bump at 32x64, each direction a dense
        solve of its preconditioned bordered system, against GMRES restarted
        every ``budget`` iterations.  The full budget takes the same Newton
        iterations; a budget of 1 runs on toward ETA_MAX and takes more.  Both
        reach h within newton_tol of exact Newton with one mode factor per
        direction and no exact factor."""
        g = build_grid(math.pi / 3, 32, 64)
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.05))
        real_gmres = solver.spla.gmres

        def dense(op, b, **kwargs):
            return np.linalg.solve(op.matmat(np.eye(b.size)), b), 0

        with monkeypatch.context() as mp:
            mp.setattr(solver.spla, "gmres", dense)
            exact = _solved(spec, g)
        factors, runs = [], []  # "mode" or "exact", in the order the solves build them
        real_mode, real_lu = solver._ModeFactor, solver._lu_factor

        def mode(*args):
            factors.append("mode")
            return real_mode(*args)

        def lu(A):
            factors.append("exact")
            return real_lu(A)

        def gmres(op, b, **kwargs):
            runs.append(kwargs["x0"] is not None)
            return real_gmres(op, b, **kwargs)

        monkeypatch.setattr(solver, "_ModeFactor", mode)
        monkeypatch.setattr(solver, "_lu_factor", lu)
        monkeypatch.setattr(solver.spla, "gmres", gmres)
        monkeypatch.setattr(solver, "GMRES_RESTART", budget)
        lagged = _solved(spec, g)
        iterations = [t.iterations for t in exact.newton_trace]
        assert _rel_gap(lagged.h.values, exact.h.values) <= SolverConfig().newton_tol
        # every trace converged, so each iteration took one direction
        assert all(t.factorizations == t.krylov_iterations == 0
                   and t.mode_factorizations == t.iterations for t in exact.newton_trace)
        assert sum(t.krylov_iterations for t in lagged.newton_trace) > 0
        directions = sum(t.iterations for t in lagged.newton_trace)
        assert factors == ["mode"] * directions
        assert [t.mode_factorizations for t in lagged.newton_trace] == \
            [t.iterations for t in lagged.newton_trace]
        if budget == 1:
            # one continuation step (the s = 0 solve takes no direction), whose
            # inexact directions cost Newton iterations and some run on
            assert [t.iterations > 0 for t in lagged.newton_trace] == [False, True]
            assert directions > sum(iterations)
            assert any(runs)
            return
        assert [t.iterations for t in lagged.newton_trace] == iterations
        assert not any(runs)

    def test_far_miss_ends_the_newton_solve(self, monkeypatch, tmp_path):
        """A GMRES iterate that misses ETA_MAX, also after its run on toward
        ETA_MAX, gives no direction: each Newton solve of the even ell-bump
        stops at its first direction, after one mode factor of the half ring,
        two GMRES runs and no exact factor, so every continuation trial is
        halved until ds falls below DS_MIN, and ``capmink solve`` exits 2.
        psi-independent data runs no GMRES and still converges."""
        runs = []

        def gmres(op, b, **kwargs):
            runs.append(kwargs["x0"] is not None)
            return gmres_miss(op, b)

        monkeypatch.setattr(solver.spla, "gmres", gmres)
        rings, real_mode = [], solver._ModeFactor

        def mode(ring, C):
            rings.append(ring.Npsi)
            return real_mode(ring, C)

        monkeypatch.setattr(solver, "_ModeFactor", mode)
        g = build_grid(math.pi / 3, 16, 32)
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, eps=0.05))
        result = continuation_solve(spec, g)
        traces = result.newton_trace
        assert not result.converged and result.s_reached == 0.0
        trials = math.ceil(math.log2(solver.DS_INIT / solver.DS_MIN))
        assert [t.s for t in traces] == [0.0] + [2.0**-k for k in range(trials)]
        assert all(t.iterations == 0 and not t.converged for t in traces[1:])
        assert [t.mode_factorizations for t in traces] == [0] + [1] * trials
        assert sum(t.factorizations for t in traces) == 0
        assert rings == [g.Npsi // 2] * trials
        assert runs == [False, True] * trials

        sweep = ProblemSpec(p=1.5, q=2.5, theta=g.theta, even=True,
                            f=ell_power_density(g, c=0.8, alpha=-0.8, beta=-0.3))
        flat = continuation_solve(sweep, g)
        assert flat.converged and len(rings) == trials
        assert sum(t.krylov_iterations for t in flat.newton_trace) == 0

        cfg = tmp_path / "bump.json"
        cfg.write_text(json.dumps({
            "theta": g.theta, "p": 2.0, "q": 1.5, "even": True,
            "grid": {"Nphi": 16, "Npsi": 32},
            "f": {"kind": "manufactured",
                  "h_star": ell_bump_field(g, eps=0.05).values.ravel().tolist()}}))
        assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_far_miss_runs_on_toward_eta_max(self, monkeypatch):
        """f = exp(3 cos(2 psi) sin(phi) / sin(theta)) at theta = 0.3, p = 4, q = 3:
        the psi-average fits this data poorly, and some directions miss
        ETA_MAX within the two cycles given to eta_k.  GMRES runs on from those
        iterates toward ETA_MAX, and the continuation converges without an
        exact factor; stopped at the first such miss, it does not converge."""
        runs, real_gmres = [], solver.spla.gmres

        def gmres(op, b, **kwargs):
            runs.append(kwargs["x0"] is not None)
            return real_gmres(op, b, **kwargs)

        monkeypatch.setattr(solver.spla, "gmres", gmres)
        g = build_grid(0.3, 16, 32)
        spec = _strongly_psi_dependent(g)
        traces = _solved(spec, g).newton_trace
        assert any(runs)
        assert sum(t.factorizations for t in traces) == 0

        def no_run_on(op, b, **kwargs):
            if kwargs["x0"] is not None:
                return kwargs["x0"], 1
            return real_gmres(op, b, **kwargs)

        monkeypatch.setattr(solver.spla, "gmres", no_run_on)
        assert not continuation_solve(spec, g).converged

    def test_exact_factors_are_one_cell_rings_only(self, monkeypatch):
        """Every SuperLU factor the solver makes is of a one-cell ring's Jacobian:
        psi-independent data, at p != q and at p = q; even and unsymmetric
        psi-dependent data, rounding-level GMRES misses and GMRES runs on
        toward ETA_MAX included, make none."""
        shapes, real_lu = [], solver._lu_factor

        def lu(A):
            shapes.append(A.shape)
            return real_lu(A)

        monkeypatch.setattr(solver, "_lu_factor", lu)
        g = build_grid(math.pi / 3, 16, 32)
        for even, eps, k in [(True, 0.05, 2), (False, 0.05, 1), (False, 0.45, 1)]:
            spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=even,
                               f=ell_bump_f_exact(g, 2.0, 1.5, eps=eps, k=k))
            _solved(spec, g)
        g3 = build_grid(0.3, 16, 32)
        _solved(_strongly_psi_dependent(g3), g3)
        assert shapes == []
        for p, q in [(1.5, 2.5), (2.0, 2.0)]:
            f = ell_power_density(g, c=0.8, alpha=-0.8, beta=-0.3)
            _solved(ProblemSpec(p=p, q=q, theta=g.theta, f=f, even=True), g)
        assert shapes and set(shapes) == {(g.Nphi, g.Nphi)}


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

    def test_a_failed_trial_is_not_repeated(self, monkeypatch):
        """A failed trial to s = 1 is retried at half the step it tried, not
        at half of a ds that overshoots 1: p = 1.5, q = 2.5, theta = 0.6 and
        f = exp(2 cos(psi) sin(phi) / sin(theta)) at 16x32 used to try the
        same s = 1 trial from the same start twice.  No two consecutive failed
        trials share their s and start, and the continuation converges."""
        trials, real_newton = [], solver._newton

        def newton(ring, fvals, p, q, uvec, log_C, s, cfg, trial=False):
            out = real_newton(ring, fvals, p, q, uvec, log_C, s, cfg, trial)
            trials.append((s, np.append(uvec, log_C), out[1].converged))
            return out

        monkeypatch.setattr(solver, "_newton", newton)
        g = build_grid(0.6, 16, 32)
        phi, psi = g.phi_nodes[:, None], g.psi_nodes[None, :]
        f = ScalarField(g, np.exp(2.0 * np.cos(psi) * np.sin(phi) / g.sin_theta))
        spec = ProblemSpec(p=1.5, q=2.5, theta=g.theta, f=f, allow_unsupported=True)
        assert continuation_solve(spec, g).converged
        assert not all(ok for *_, ok in trials)
        for (s, start, ok), (s_next, start_next, ok_next) in zip(trials, trials[1:]):
            assert ok or ok_next or s != s_next or not np.array_equal(start, start_next)

    def test_non_finite_floor_never_converges(self):
        parts = (None,) * 7 + (np.ones(3),)
        zero = np.zeros(3)
        assert _within_floor(zero, zero, 1e-10, parts)
        assert not _within_floor(zero, np.full(3, math.inf), 1e-10, parts)
        assert not _within_floor(np.array([0.0, math.nan, 0.0]), zero, 1e-10, parts)


def _psi_wave(g, k):
    """f = exp(0.9 cos(k psi) sin(phi)^2 / sin(theta)^2), even in psi for even k."""
    phi, psi = g.phi_nodes[:, None], g.psi_nodes[None, :]
    return ScalarField(g, np.exp(0.9 * np.cos(k * psi) * np.sin(phi) ** 2 / g.sin_theta**2))


class TestHomotopy:
    """Every solve follows the log-linear blend f_s = f0^(1-s) f^s."""

    def test_density_is_exact_at_the_ends_and_log_linear_between(self):
        """Bit for bit at s = 0 and 1, which keeps two-step solves unchanged."""
        g = build_grid(math.pi / 3, 16, 32)
        f0 = _base_density(g, 2.0, 1.5)
        f = 1e3 * ell_bump_f_exact(g, 2.0, 1.5, eps=0.45, k=1).values
        assert np.array_equal(solver._density(f0, f, 0.0), f0)
        assert np.array_equal(solver._density(f0, f, 1.0), f)
        for s in (0.3, 0.9915902679446201):
            blend = (1.0 - s) * np.log(f0) + s * np.log(f)
            assert np.max(np.abs(np.log(solver._density(f0, f, s)) - blend)) <= 1e-14

    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("theta", [0.3, math.pi / 3, math.pi / 2])
    @pytest.mark.parametrize("p,q", [(2.0, 1.5), (3.0, 1.0), (4.0, 3.0), (1.5, 2.5),
                                     (1.2, 3.0), (2.0, 2.0)])
    def test_psi_dependent_even_inputs_converge(self, p, q, theta, k):
        """54 supported even psi-dependent inputs of every branch at 16x32,
        each converging to s = 1."""
        g = build_grid(theta, 16, 32)
        result = continuation_solve(ProblemSpec(p=p, q=q, theta=theta, f=_psi_wave(g, k),
                                                even=True), g)
        assert result.converged and result.s_reached == 1.0


def sympy_bump_density(geom, p, q, eps, k):
    """The ell-bump density derived symbolically: the reference for the closed form."""
    sy = pytest.importorskip("sympy")
    phi, psi = sy.symbols("phi psi")
    th = geom.theta
    s2 = sy.sin(phi) ** 2
    rho = s2 * (2 - s2 / sy.sin(th) ** 2)
    ell = 1 - sy.cos(th) * sy.cos(phi)
    h = ell * (1 + eps * sy.cos(k * psi) * rho)
    h_phi = sy.diff(h, phi)
    h_psi = sy.diff(h, psi)
    b11 = sy.diff(h, phi, 2) + h
    b12 = sy.diff(h_phi, psi) / sy.sin(phi) - sy.cos(phi) / sy.sin(phi) ** 2 * h_psi
    b22 = sy.diff(h, psi, 2) / sy.sin(phi) ** 2 + sy.cos(phi) / sy.sin(phi) * h_phi + h
    w = h**2 + h_phi**2 + h_psi**2 / sy.sin(phi) ** 2
    f = (b11 * b22 - b12**2) / (h ** (p - 1) * w ** ((3 - q) / 2))
    fn = sy.lambdify((phi, psi), f, modules="numpy")
    vals = fn(geom.phi_nodes[:, None], geom.psi_nodes[None, :])
    return np.broadcast_to(np.asarray(vals, dtype=float), geom.shape)


class TestManufactured:
    def test_density_of_ell_is_base_density(self, geom_pi3):
        g = geom_pi3
        p, q = 2.0, 1.5
        f = manufactured_f(g, ell_field(g), p, q)
        base = ell_power_density(g, alpha=1.0 - p, beta=(q - 3.0) / 2.0)
        assert np.max(np.abs(f.values - base.values)) < 30.0 * g.grid_eps()
        assert np.array_equal(f.values, _base_density(g, p, q))

    @pytest.mark.parametrize("theta", [math.pi / 3, 1.3], ids=["pi3", "1.3"])
    @pytest.mark.parametrize("Nphi, Npsi", [(16, 32), (128, 256)])
    def test_base_density_on_the_one_cell_ring_is_the_grids(self, theta, Nphi, Npsi):
        """ell does not depend on psi: f_0 evaluated on the one-cell ring and
        tiled is manufactured_f of ell on the grid, bit for bit."""
        g = build_grid(theta, Nphi, Npsi)
        f0 = _base_density(g, 2.0, 1.5)
        assert np.array_equal(f0, manufactured_f(g, ell_field(g), 2.0, 1.5).values)

    def test_manufactured_solution_is_recovered_to_rounding(self):
        """The density of h* has h* as its discrete solution, boundary row included."""
        g = build_grid(math.pi / 3, 16, 32)
        hstar = robin_bump(g, eps=0.1)
        f = manufactured_f(g, hstar, 2.0, 1.5)
        result = continuation_solve(ProblemSpec(p=2.0, q=1.5, theta=g.theta, f=f, even=True), g)
        assert result.converged
        assert _rel_gap(result.h.values, hstar.values) <= 1e-12

    def test_exact_bump_density_matches_discrete(self):
        g = build_grid(math.pi / 3, 64, 128)
        h = ell_bump_field(g, eps=0.05, k=2)
        fd = manufactured_f(g, h, 2.0, 1.5)
        fx = ell_bump_f_exact(g, 2.0, 1.5, eps=0.05, k=2)
        assert np.max(np.abs(fd.values - fx.values)) < 100.0 * g.grid_eps()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("theta, Nphi, Npsi",
                             [(math.pi / 3, 128, 256), (1.3, 16, 32), (0.5, 32, 64)])
    def test_exact_bump_density_matches_symbolic(self, theta, Nphi, Npsi, k):
        g = build_grid(theta, Nphi, Npsi)
        ref = sympy_bump_density(g, 2.0, 1.5, 0.05, k)
        fx = ell_bump_f_exact(g, 2.0, 1.5, eps=0.05, k=k)
        assert np.max(np.abs(fx.values - ref) / np.abs(ref)) <= 1e-13

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
        assert np.max(np.abs(out.solution.h.values - 1.0)) < 1e-8
        assert out.solution.residual_sup < 1e-10

    def test_normalization_min_h_is_one(self):
        g = build_grid(1.5, 24, 48)
        f = ell_power_density(g, alpha=-1.0, beta=-0.25)
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=f, even=True)
        out = pq_limit_solve(spec, g)
        assert float(np.min(out.solution.h.values)) == pytest.approx(1.0, abs=1e-8)

    def test_dilation_family_shares_C(self):
        """C* is invariant under scaling f, h adjusting accordingly."""
        g = build_grid(1.5, 24, 48)
        f = ell_power_density(g, alpha=-1.0, beta=-0.25)
        spec = ProblemSpec(p=2.0, q=2.0, theta=g.theta, f=f, even=True)
        out = pq_limit_solve(spec, g)
        res = pq_residual(g, f, 2.0, out.solution.h, out.C_star)
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

    @pytest.mark.parametrize("Nphi,passes", [(8, False), (64, True)])
    def test_probe_threshold_follows_the_floor(self, monkeypatch, Nphi, passes):
        """One branch moved by 3e-9 in log h.  At 8x16 the solves certify log h to
        about 3e-10 (2 newton_tol over p - q, the floor 5e-12), so the probe
        rejects it; at 64x128 their floor of 2e-8 certifies only about 6e-8, so
        the move is within what the solves resolve.  A fixed 1e-8 passes both."""
        g = build_grid(math.pi / 3, Nphi, 2 * Nphi)
        f = ell_power_density(g, c=1.3, alpha=-1.3, beta=-0.2)
        spec = ProblemSpec(p=2.3, q=1.6, theta=g.theta, f=f, even=True)
        starts = [ScalarField(g, c * np.ones(g.shape)) for c in (0.5, 1.0, 2.0)]
        spread, ok = uniqueness_probe(spec, g, starts=starts)
        assert ok and spread <= 1e-10
        real = solver.newton_solve

        def moved(spec, geom, s, u0, cfg=None, **kwargs):
            r = real(spec, geom, s, u0, cfg, **kwargs)
            if u0 is starts[1]:
                r.h = ScalarField(geom, r.h.values * math.exp(3e-9))
            return r

        monkeypatch.setattr(solver, "newton_solve", moved)
        spread, ok = uniqueness_probe(spec, g, starts=starts)
        assert spread == pytest.approx(3e-9, rel=0.1)
        assert ok == passes
