import functools
import math

import numpy as np
import pytest

from capmink import (
    ApplicabilityError,
    ConfigError,
    ConvexityError,
    DomainError,
    ProblemSpec,
    ScalarField,
    SolverConfig,
    build_grid,
    c0_bound_check,
    continuation_solve,
    curvature_tensor,
    ell_bump_f_exact,
    ell_bump_field,
    ell_field,
    ell_grad_sq,
    gradient_quotient,
    noncollapse_check,
    phi_monitor,
    q_monitor,
)

import capmink.grid as grid_module
import capmink.monitors as monitors_module
import capmink.solver as solver_module
from capmink.grid import _psi_period, _ring, _u_frame, bump_profile
from capmink.solver import _floor_test, is_solution
from capmink.solver import _symmetry as _solver_symmetry

from conftest import neumann_bump, tangential_mask


@functools.lru_cache(maxsize=None)
def solve_at(theta):
    """A converged even solution on a moderate grid at this theta."""
    geom = build_grid(theta, 32, 64)
    ell = ell_field(geom).values
    w0 = ell**2 + ell_grad_sq(geom)
    f = ScalarField(geom, ell ** (-1.2) * w0 ** (-0.1))
    spec = ProblemSpec(p=2.0, q=1.5, theta=theta, f=f, even=True)
    result = continuation_solve(spec, geom)
    assert result.converged
    return geom, spec, result


@pytest.fixture(scope="module")
def solved():
    return solve_at(math.pi / 3)


class TestGradientQuotient:
    def test_ell_quotient_bounded(self, geom_pi3):
        rep = gradient_quotient(geom_pi3, ell_field(geom_pi3), 1.0)
        # |grad ell|^2 / ell <= cos(theta)^2 sin^2/ (1 - cos cos); bounded
        assert 0.0 < rep.N_observed < 10.0

    def test_argmax_on_grid(self, geom_pi3):
        rep = gradient_quotient(geom_pi3, ell_field(geom_pi3), 0.8)
        assert 0.0 < rep.argmax_phi <= geom_pi3.theta
        assert 0.0 <= rep.argmax_psi < 2.0 * math.pi

    @pytest.mark.parametrize("gamma", [0.0, 2.0, -1.0])
    def test_bad_gamma_rejected(self, geom_pi3, gamma):
        with pytest.raises(ConfigError):
            gradient_quotient(geom_pi3, ell_field(geom_pi3), gamma)

    def test_nonpositive_h_rejected(self, geom_pi3):
        bad = ScalarField(geom_pi3, np.zeros(geom_pi3.shape))
        with pytest.raises(DomainError):
            gradient_quotient(geom_pi3, bad, 1.0)


class TestNonCollapse:
    def test_ell_passes(self, geom_pi3):
        h = ell_field(geom_pi3)
        rep_n = gradient_quotient(geom_pi3, h, 1.0)
        rep = noncollapse_check(geom_pi3, h, 1.0, rep_n.N_observed, 4.5)
        assert rep.passed
        assert rep.ratio == pytest.approx(
            float(np.max(h.values) / np.min(h.values)), rel=1e-12
        )

    def test_bound2_is_theta_and_cdd_only(self, geom_pi3):
        h = ell_field(geom_pi3)
        n = gradient_quotient(geom_pi3, h, 1.0).N_observed
        r1 = noncollapse_check(geom_pi3, h, 1.0, n, 4.5)
        r2 = noncollapse_check(geom_pi3, h, 1.0, 10.0 * n, 4.5)
        assert r1.bound_case2 == pytest.approx(r2.bound_case2)

    def test_understated_N_rejected(self, geom_pi3):
        h = ell_field(geom_pi3)
        n = gradient_quotient(geom_pi3, h, 1.0).N_observed
        with pytest.raises(ApplicabilityError):
            noncollapse_check(geom_pi3, h, 1.0, 0.5 * n, 4.5)

    @pytest.mark.parametrize("name", ["N", "C_dd"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -2.0])
    def test_bad_constant_rejected(self, geom_pi3, name, value):
        """An infinite constant would pass any h with infinite bounds, a NaN
        one report a NaN bound and a negative one negative bounds."""
        args = {"N": 100.0, "C_dd": 4.5, name: value}
        with pytest.raises(ConfigError):
            noncollapse_check(geom_pi3, ell_field(geom_pi3), 1.0, args["N"], args["C_dd"])

    @pytest.mark.parametrize("gamma, bound", [
        (1e-6, math.inf), (1e-3, math.inf), (0.05, 5.985826683142651e+41),
        (1.0, 1357.618624320803), (1.9, 6495740.20266447),
        (1.99, 1.0212808585133745e+60), (1.999, math.inf)])
    def test_case1_bound_beyond_the_double_range_is_infinite(self, gamma, bound):
        """A case-1 bound too large for a double is inf, never an OverflowError
        or NaN; the finite ones are bitwise those of the plain product."""
        g = build_grid(1.0, 16, 32)
        rep = noncollapse_check(g, ell_field(g), gamma, 0.5, 3.5)
        assert rep.bound_case1 == bound
        assert rep.passed

    @pytest.mark.parametrize("gamma, N, C_dd", [(1e-3, 0.5, 1e-3), (1e-3, 0.45, 1e-3)])
    def test_case1_bound_with_an_overflowing_power_is_the_product(self, gamma, N, C_dd):
        """(2 - gamma) / (2 cos theta) > 1 raised to 2 / gamma overflows, N < 1
        raised to 1 / gamma brings the product back into the double range."""
        mpmath = pytest.importorskip("mpmath")
        g = build_grid(1.0, 16, 32)
        rep = noncollapse_check(g, ell_field(g), gamma, N, C_dd)
        ct, gm = mpmath.mpf(g.cos_theta), mpmath.mpf(gamma)
        exact = ((2 - gm) / (2 * ct)) ** (2 / gm) * mpmath.mpf(N) ** (1 / gm) * (
            1 + C_dd * mpmath.mpf(2) ** (2 / (2 - gm))) ** (2 / gm) * C_dd / (ct * (1 - ct))
        assert rep.bound_case1 == pytest.approx(float(exact), rel=1e-11)

    def test_odd_h_rejected(self, geom_pi3):
        g = geom_pi3
        odd = ScalarField.from_function(
            g, lambda phi, psi: 1.0 + 0.1 * np.cos(psi) * np.sin(phi)
        )
        with pytest.raises(ApplicabilityError):
            noncollapse_check(g, odd, 1.0, 100.0, 4.5)

    def test_solution_passes_with_own_factor(self, solved):
        geom, spec, result = solved
        from capmink import embed_body, john_construct

        body = embed_body(geom, result.h)
        _, factor = john_construct(body.extents, geom.theta)
        n = gradient_quotient(geom, result.h, 1.0).N_observed
        rep = noncollapse_check(geom, result.h, 1.0, n, factor)
        assert rep.ratio <= rep.bound_case2
        assert rep.passed


class TestPhiMonitor:
    def test_boundary_log_slope(self, geom_pi3):
        g = geom_pi3
        u = neumann_bump(g)
        for gamma in (0.5, 1.0):
            rep = phi_monitor(g, u, gamma)
            target = -gamma * g.cot_theta
            mask = tangential_mask(g, u)
            err = np.nanmax(np.abs(rep.boundary_derivative[mask] - target))
            assert err < 50.0 * math.sqrt(g.grid_eps())

    def test_constant_u_degenerate(self, geom_pi3):
        u = ScalarField(geom_pi3, np.ones(geom_pi3.shape))
        rep = phi_monitor(geom_pi3, u, 1.0)
        assert rep.degenerate

    @pytest.mark.parametrize("k", [1, 2])
    def test_bump_converges_at_second_order(self, k):
        """Phi of u = 1 + eps cos(k psi) rho(phi) against its closed form,
        with grad u = (eps cos(k psi) rho', -eps k sin(k psi) rho / sin(phi))
        and rho' as in ell_bump_f_exact."""
        eps, gamma, errs = 0.05, 1.0, []
        for N in (16, 32, 64):
            g = build_grid(math.pi / 3, N, 2 * N)
            phi, psi = g.phi_nodes[:, None], g.psi_nodes[None, :]
            sin, cos = np.sin(phi), np.cos(phi)
            rho = bump_profile(phi, g.theta)
            rho1 = 2.0 * sin * cos * (2.0 - 2.0 * sin**2 / g.sin_theta**2)
            u = neumann_bump(g, eps, k).values
            g1 = eps * np.cos(k * psi) * rho1
            g2 = -eps * k * np.sin(k * psi) * rho / sin
            exact = (1.0 - g.cos_theta * cos) ** (2.0 - gamma) * (g1**2 + g2**2) / u**gamma
            rep = phi_monitor(g, ScalarField(g, u), gamma)
            errs.append(float(np.max(np.abs(rep.phi_field.values - exact))))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_gradient_is_the_stencils(self, geom_pi3):
        """Phi's grad u is the certificates' gradient: ell grad u + u grad ell
        is curvature_tensor's grad h of h = ell u, with its grad ell too."""
        g, gamma = geom_pi3, 0.5
        u = neumann_bump(g, 0.1, 1).values
        ell = ell_field(g).values
        cd = curvature_tensor(g, ScalarField(g, ell * u))
        ell_g1 = curvature_tensor(g, ell_field(g)).g1
        gsq = ((cd.g1 - u * ell_g1) ** 2 + cd.g2**2) / ell**2
        phi = phi_monitor(g, ScalarField(g, u), gamma).phi_field.values
        assert np.max(np.abs(phi * u**gamma / ell ** (2.0 - gamma) - gsq)) < 1e-10 * np.max(gsq)

    def test_non_neumann_rejected(self, geom_pi3):
        g = geom_pi3
        u = ScalarField.from_function(g, lambda phi, psi: 1.0 + 5.0 * phi)
        with pytest.raises(ApplicabilityError):
            phi_monitor(g, u, 1.0)

    @pytest.mark.parametrize("theta,N", [(math.pi / 3, 32), (1.0, 16), (math.pi / 3, 8)])
    def test_ell_is_not_neumann(self, theta, N):
        """ell's boundary phi-derivative (about 0.45) is refused at TRUNCATION_TOL times
        the scale of u's own phi-truncation, (dphi / theta)^2 (max u - min u) / theta,
        also at 8 rows, where TRUNCATION_TOL * dphi^2 * max(1, max u) let it pass, as
        the scale of both directions, grid_eps, lets it pass on every grid."""
        g = build_grid(theta, N, 2 * N)
        with pytest.raises(ApplicabilityError, match="Neumann"):
            phi_monitor(g, ell_field(g), 1.0)

    def test_accepts_the_solvers_solution_at_small_theta(self):
        """At theta = 0.3 the converged f = 1 solution (u from 4.2e4 to 5.6e4)
        has a boundary phi-derivative of 510: twice TRUNCATION_TOL * dphi^2 *
        max(1, max u), but a fifth of the gate read off its own phi-truncation."""
        g = build_grid(0.3, 32, 64)
        f = ScalarField(g, np.ones(g.shape))
        result = continuation_solve(ProblemSpec(p=2.0, q=1.5, theta=g.theta, f=f), g)
        assert result.converged
        assert not phi_monitor(g, result.u, 1.0).degenerate

    @pytest.mark.parametrize("case,period,exact", [("even_density", 16, True),
                                                   ("psi_independent", 1, True),
                                                   ("k1_bump", 32, True),
                                                   ("even_bump", 16, False)])
    def test_ring_frame_is_the_grid_frame(self, case, period, exact, monkeypatch):
        """Phi and its frame of v = u - max u are evaluated on u's psi ring, and Phi
        is tiled: each solution here is mirror-symmetric, so the reflection ring of
        u's period, Npsi/2 for even data and Npsi for the k = 1 bump, and one cell per
        row for psi-independent data.  That is Phi of all Npsi columns bit for bit on
        the even grid density, the psi-independent and the k = 1 solution; on the even
        ell-bump at 16x32 the two rings subtract their row means apart and agree to
        rounding."""
        g = build_grid(math.pi / 3, 16, 32)
        ell, phi, psi = ell_field(g).values, g.phi_nodes[:, None], g.psi_nodes[None, :]
        f = {"even_density": np.exp(0.5 * np.cos(2 * psi) * np.sin(phi) ** 2 / g.sin_theta**2),
             "psi_independent": ell ** (-1.2) * (ell**2 + ell_grad_sq(g)) ** (-0.1),
             "k1_bump": ell_bump_f_exact(g, 2.5, 1.5, 0.05, k=1).values,
             "even_bump": ell_bump_f_exact(g, 2.0, 1.5, 0.05).values}[case]
        p = 2.5 if case == "k1_bump" else 2.0
        u = continuation_solve(ProblemSpec(p=p, q=1.5, theta=g.theta, f=ScalarField(g, f)), g).u
        calls, real = [], grid_module._u_frame
        monkeypatch.setattr(monitors_module, "_u_frame", lambda *a: calls.append(a[0]) or real(*a))
        Phi = phi_monitor(g, u, 1.0).phi_field.values
        assert calls[0] is _ring(g, period, True)
        v = u.values - np.max(u.values)
        _, _, _, g1, g2, _ = _u_frame(g, v)
        _, _, _, ell_g1, _, ell_u = _u_frame(_ring(g, 1), np.ones((g.Nphi, 1)))
        gsq = ((g1 - v * ell_g1) ** 2 + g2**2) / ell_u**2
        full = ell_u ** (2.0 - 1.0) * gsq / u.values**1.0
        if exact:
            assert np.array_equal(Phi, full)
        else:
            assert np.max(np.abs(Phi - full)) <= 1e-13 * np.max(full)

    def test_range_is_null_where_the_identity_holds_nowhere(self, solved):
        """A psi-independent solution has no tangential gradient on the boundary, so
        the log-slope identity holds at no node and the range is None, not the
        slope of its rounding-level phi-gradient."""
        geom, _, result = solved
        rep = phi_monitor(geom, result.u, 1.0)
        assert not rep.degenerate
        assert rep.boundary_derivative_range is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_range_spans_the_nodes_of_half_the_max_tangential_gradient(self, geom_pi3, k):
        """The range is that of boundary_derivative over the nodes where
        |u_psi| / sin(theta), here eps k |sin(k psi)| rho(theta) / sin(theta), is at
        least half its max; there the slope meets target."""
        g = geom_pi3
        rep = phi_monitor(g, neumann_bump(g, k=k), 1.0)
        tangential = np.abs(np.sin(k * g.psi_nodes))
        held = rep.boundary_derivative[tangential >= 0.5 * np.max(tangential)]
        assert rep.boundary_derivative_range == [np.min(held), np.max(held)]
        err = max(abs(v - rep.target) for v in rep.boundary_derivative_range)
        assert err < 50.0 * math.sqrt(g.grid_eps())

    def test_interior_max_for_solution(self, solved):
        geom, spec, result = solved
        rep = phi_monitor(geom, result.u, 1.0)
        # Phi of a solution attains its max away from the boundary row
        assert rep.interior_max


@pytest.mark.parametrize("source", ["exact", "solved"])
@pytest.mark.parametrize("Nphi", [32, 64, 128])
def test_reported_location_is_invariant_under_the_symmetries(Nphi, source):
    """The even ell-bump h takes each max on an orbit of psi -> psi + pi and
    psi -> -psi.  The half turn (a roll by Npsi/2) and the mirror image of h
    move its values at the rounding level and the reported locations not at all."""
    g = build_grid(math.pi / 3, Nphi, 2 * Nphi)
    if source == "exact":
        h = ell_bump_field(g, 0.05)
    else:
        spec = ProblemSpec(p=2.0, q=1.5, theta=g.theta, even=True,
                           f=ell_bump_f_exact(g, 2.0, 1.5, 0.05))
        h = continuation_solve(spec, g).h
    locations = set()
    for v in (h.values, np.roll(h.values, g.Npsi // 2, axis=1),
              np.roll(h.values[:, ::-1], 1, axis=1)):
        rep = gradient_quotient(g, ScalarField(g, v), 1.0)
        locations.add((rep.argmax_phi, rep.argmax_psi,
                       q_monitor(g, ScalarField(g, v), 1.5).argmax))
    assert len(locations) == 1


class TestQMonitor:
    def test_coefficients_follow_closed_form(self, geom_pi3):
        h = ell_field(geom_pi3)
        rep = q_monitor(geom_pi3, h, 1.5)
        cd = curvature_tensor(geom_pi3, h)
        gsq = cd.g1**2 + cd.g2**2
        hmin = float(np.min(h.values))
        B = abs(3.0 - 1.5) * (np.max(h.values) ** 2 + 3.0 * np.max(gsq)) / hmin**4 + 1.0
        assert rep.B == pytest.approx(B)
        assert rep.A == pytest.approx(-(2.0 * B * np.max(gsq) + 1.0) / hmin)
        assert np.all(np.isfinite(rep.field.values))
        assert rep.max == np.max(rep.field.values)
        assert 0.0 < rep.argmax[0] <= geom_pi3.theta

    def test_q3_has_unit_B(self, geom_pi3):
        assert q_monitor(geom_pi3, ell_field(geom_pi3), 3.0).B == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_rejected(self, geom_pi3, q):
        with pytest.raises(ConfigError):
            q_monitor(geom_pi3, ell_field(geom_pi3), q)

    def test_nonconvex_rejected(self, geom_pi3):
        g = geom_pi3
        phi = g.phi_nodes[:, None]
        wiggly = ScalarField(
            g, np.broadcast_to(1.0 + 0.9 * np.cos(30.0 * phi), g.shape).copy()
        )
        with pytest.raises(ConvexityError):
            q_monitor(g, wiggly, 2.0)


THETAS = {"pi3": math.pi / 3, "0.3": 0.3, "0.02": 0.02, "1.3": 1.3}


class TestC0Bound:
    @pytest.mark.parametrize("theta", list(THETAS))
    def test_solution_passes(self, theta):
        geom, spec, result = solve_at(THETAS[theta])
        lo, hi, report = c0_bound_check(geom, result.h, spec)
        assert lo and hi
        assert (report.lower_pass, report.upper_pass) == (lo, hi)
        assert report.min_u <= report.max_u

    def test_p_equals_q_rejected(self, geom_pi3):
        f = ScalarField(geom_pi3, np.ones(geom_pi3.shape))
        spec = ProblemSpec(p=2.0, q=2.0, theta=geom_pi3.theta, f=f)
        with pytest.raises(ApplicabilityError):
            c0_bound_check(geom_pi3, ell_field(geom_pi3), spec)

    @pytest.mark.parametrize("theta", ["pi3", "0.02"])
    @pytest.mark.parametrize("not_h", ["3h", "2h", "ell"])
    def test_non_solution_rejected(self, not_h, theta):
        """A multiple of the solution, or ell, is no solution, however small its
        residual against max f; the solver's own test refuses each."""
        geom, spec, result = solve_at(THETAS[theta])
        values = {"3h": 3.0 * result.h.values, "2h": 2.0 * result.h.values,
                  "ell": ell_field(geom).values}[not_h]
        with pytest.raises(ApplicabilityError):
            c0_bound_check(geom, ScalarField(geom, values), spec)

    def test_even_solution_is_judged_on_its_ring(self):
        """The even ell-bump's solution is tested on its half ring: the full
        grid's operator layout is never built."""
        geom = build_grid(math.pi / 3, 16, 32)
        f = ell_bump_f_exact(geom, 2.0, 1.5, 0.05)
        spec = ProblemSpec(p=2.0, q=1.5, theta=geom.theta, f=f, even=True)
        result = continuation_solve(spec, geom)
        assert result.converged
        lo, hi, _ = c0_bound_check(geom, result.h, spec)
        assert lo and hi
        assert "ring_layout" not in geom._cache

    @pytest.mark.parametrize("delta,verdict", [(1e-13, True), (1e-9, False)])
    def test_half_periodic_h_of_psi_independent_data_is_judged_on_the_half_ring(
            self, delta, verdict):
        """psi-independent data with a half-periodic h (the solution times a
        cos(2 psi) bump tiled from its first half, which is bitwise mirror-symmetric
        too) is tested on the reflection ring of the half period, where both fields
        are invariant: the verdict is the full grid's, and so is residual_sup, to
        rounding."""
        geom = build_grid(math.pi / 3, 16, 32)
        ell = ell_field(geom).values
        f = ScalarField(geom, ell ** (-1.2) * (ell**2 + ell_grad_sq(geom)) ** (-0.1))
        spec = ProblemSpec(p=2.0, q=1.5, theta=geom.theta, f=f, even=True)
        result = continuation_solve(spec, geom)
        assert result.converged
        half = neumann_bump(geom, eps=delta).values[:, :geom.Npsi // 2]
        h = ScalarField(geom, result.h.values * np.tile(half, (1, 2)))
        passed, res_sup = is_solution(spec, geom, h)
        assert "ring_layout" in _ring(geom, geom.Npsi // 2, True)._cache
        assert "ring_layout" not in geom._cache
        res, _, _, full = _floor_test(geom, f.values.ravel(), 2.0, 1.5, (h.values / ell).ravel(),
                                      SolverConfig().newton_tol)
        assert passed == full == verdict
        assert res_sup == pytest.approx(float(np.max(np.abs(res))), rel=1e-12)

    @pytest.mark.parametrize("delta,verdict", [(1e-13, True), (1e-9, False)])
    def test_group_of_f_and_u_is_their_intersection(self, delta, verdict, monkeypatch):
        """The even ell-bump's data is invariant under the half-turn shift and under
        psi -> -psi, and its solution times a half-periodic bump that is not
        mirror-symmetric (cos(2 psi) + sin(2 psi)) only under the shift: the test
        runs on the periodic half ring, not on the data's reflection ring, and its
        verdict is the full grid's."""
        geom = build_grid(math.pi / 3, 16, 32)
        f = ell_bump_f_exact(geom, 2.0, 1.5, 0.05)
        spec = ProblemSpec(p=2.0, q=1.5, theta=geom.theta, f=f, even=True)
        result = continuation_solve(spec, geom)
        assert result.converged
        phi, psi = geom.phi_nodes[:, None], geom.psi_nodes[None, :geom.Npsi // 2]
        half = 1.0 + delta * (np.cos(2 * psi) + np.sin(2 * psi)) * bump_profile(phi, geom.theta)
        h = ScalarField(geom, result.h.values * np.tile(half, (1, 2)))
        assert _solver_symmetry(f.values) == (geom.Npsi // 2, True)
        assert _psi_period(h.values / ell_field(geom).values) == (geom.Npsi // 2, False)
        rings = []
        monkeypatch.setattr(solver_module, "_floor_test",
                            lambda ring, *a: rings.append(ring) or _floor_test(ring, *a))
        passed, res_sup = is_solution(spec, geom, h)
        assert rings == [_ring(geom, geom.Npsi // 2)]
        res, _, _, full = _floor_test(geom, f.values.ravel(), 2.0, 1.5,
                                      (h.values / ell_field(geom).values).ravel(),
                                      SolverConfig().newton_tol)
        assert passed == full == verdict
        assert res_sup == pytest.approx(float(np.max(np.abs(res))), rel=1e-12)

    def test_psi_dependent_solution_is_judged_on_the_grid(self):
        """Data without a symmetry (the k = 1 bump) is tested on all Npsi cells:
        its solution passes, twice it does not."""
        geom = build_grid(math.pi / 3, 16, 32)
        f = ell_bump_f_exact(geom, 2.5, 1.5, 0.05, k=1)
        spec = ProblemSpec(p=2.5, q=1.5, theta=geom.theta, f=f)
        result = continuation_solve(spec, geom)
        assert result.converged
        lo, hi, _ = c0_bound_check(geom, result.h, spec)
        assert lo and hi
        with pytest.raises(ApplicabilityError):
            c0_bound_check(geom, ScalarField(geom, 2.0 * result.h.values), spec)
