"""A-priori-estimate monitors evaluated on discrete support functions.

Each monitor evaluates, on grid data, a quantity that the continuum theory
controls: the gradient quotient |grad h|^2 / h^gamma, the max/min
non-collapsing bound derived from it, the boundary behaviour of the
log-gradient test function, the trace auxiliary function with its explicit
coefficients, and the extremum inequalities pinning max/min of h to the data.
Every gradient is the stencil's: that of h is read off
:func:`capmink.grid.curvature_tensor`, and that of a Neumann u (in
:func:`phi_monitor`) is ``(grad h - u grad ell) / ell`` with h = ell * u.
Whether h is a solution is the solver's test (:func:`capmink.solver.is_solution`).
Each monitor returns a record; its fields, less per-node arrays, are its monitors.json block.
A constant that would make a check pass vacuously or report garbage (an
infinite, NaN or non-positive N or C_dd, a non-finite q) is a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ApplicabilityError, ConfigError, ConvexityError, DomainError
from .grid import (
    EVEN_TOL,
    CapGeometry,
    ScalarField,
    _check_grid,
    _ell,
    _psi_period,
    _ring,
    _tiled,
    _u_frame,
    boundary_values,
    curvature_tensor,
    ell_grad_sq,
    evenness_defect,
)
from .solver import SolverConfig, is_solution

# the truncation tolerance of the extremum inequalities, in units of grid_eps, and
# of phi_monitor's Neumann defect, in units of u's own phi-truncation
TRUNCATION_TOL = 50.0


@dataclass
class GradientQuotientReport:
    N_observed: float
    argmax_phi: float
    argmax_psi: float


@dataclass
class NonCollapseReport:
    ratio: float
    bound_case1: float
    bound_case2: float
    passed: bool


@dataclass
class PhiMonitorReport:
    phi_field: ScalarField
    interior_max: bool
    boundary_derivative: np.ndarray
    degenerate: bool
    # [min, max] of boundary_derivative where the identity holds, or None where it holds nowhere
    boundary_derivative_range: list | None
    target: float  # -gamma cot(theta), the slope of a Neumann u


@dataclass
class QMonitorReport:
    A: float
    B: float
    max: float
    argmax: tuple  # (phi, psi) of the max
    field: ScalarField


@dataclass
class C0BoundReport:
    lower_pass: bool
    upper_pass: bool
    max_u: float
    min_u: float
    rhs_min: float
    rhs_max: float
    residual_sup: float
    tol: float


def _argmax(geom: CapGeometry, values: np.ndarray):
    """``(phi, psi)`` of the first cell, in row-major order, within 1e-12 relative
    of the max of values.  On symmetric data the max is attained on a whole
    orbit of cells, among which a plain argmax would choose by rounding."""
    top = float(np.max(values))
    i, j = np.unravel_index(np.argmax(values >= top - 1e-12 * abs(top)), values.shape)
    return float(geom.phi_nodes[i]), float(geom.psi_nodes[j])


def gradient_quotient(
    geom: CapGeometry, h: ScalarField, gamma: float
) -> GradientQuotientReport:
    """Observed constant in |grad h|^2 / h^gamma <= N (max h)^(2-gamma)."""
    if not (0.0 < gamma < 2.0):
        raise ConfigError(f"gamma must lie in (0, 2), got {gamma}")
    cd = curvature_tensor(geom, h)
    quot = (cd.g1**2 + cd.g2**2) / h.values**gamma
    phi, psi = _argmax(geom, quot)
    N_obs = float(np.max(quot)) / float(np.max(h.values)) ** (2.0 - gamma)
    return GradientQuotientReport(N_observed=N_obs, argmax_phi=phi, argmax_psi=psi)


def noncollapse_check(
    geom: CapGeometry,
    h: ScalarField,
    gamma: float,
    N: float,
    C_dd: float,
) -> NonCollapseReport:
    """max h / min h against the two explicit constants of the estimate.

    Case 2 depends only on (theta, C_dd).  Case 1 carries the derivative
    constant |2-gamma| / (2 cos theta) frozen at its first occurrence; it is
    reported as a candidate and enters pass/fail only through the max; one
    beyond the double range (gamma near 0 or 2) is inf.
    """
    _check_grid(geom, h)
    if not (0.0 < gamma < 2.0):
        raise ConfigError(f"gamma must lie in (0, 2), got {gamma}")
    for name, value in (("N", N), ("C_dd", C_dd)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be finite and positive, got {value}")
    if evenness_defect(geom, h.values) > EVEN_TOL:
        raise ApplicabilityError("non-collapsing estimate requires an even h")
    n_obs = gradient_quotient(geom, h, gamma).N_observed
    if N < n_obs * (1.0 - 1e-12):
        raise ApplicabilityError(
            f"N = {N} is below the observed gradient quotient {n_obs}"
        )
    st, ct = geom.sin_theta, geom.cos_theta
    if ct > 0.0:
        c_tg = (2.0 - gamma) / (2.0 * ct)
        try:
            bound1 = (
                c_tg ** (2.0 / gamma)
                * N ** (1.0 / gamma)
                * (1.0 + C_dd * 2.0 ** (2.0 / (2.0 - gamma))) ** (2.0 / gamma)
                * C_dd
                / (ct * (1.0 - ct))
            )
        except OverflowError:  # a power beyond the double range: sum the logs instead
            log_dd = np.logaddexp(0.0, math.log(C_dd) + math.log(2.0) * 2.0 / (2.0 - gamma))
            log_b = ((2.0 * math.log(c_tg) + math.log(N) + 2.0 * log_dd) / gamma
                     + math.log(C_dd / (ct * (1.0 - ct))))
            with np.errstate(over="ignore"):
                bound1 = float(np.exp(log_b))  # inf beyond the double range
    else:
        bound1 = math.inf
    cot = ct / st
    bound2 = C_dd * (max(st / ct, 1.0) if ct > 0.0 else 1.0)
    bound2 *= math.sqrt((2.0 * cot + 1.0) ** 2 + 1.0)
    ratio = float(np.max(h.values)) / float(np.min(h.values))
    return NonCollapseReport(
        ratio=ratio,
        bound_case1=bound1,
        bound_case2=bound2,
        passed=ratio <= max(bound1, bound2),
    )


def phi_monitor(geom: CapGeometry, u: ScalarField, gamma: float) -> PhiMonitorReport:
    """Test function ell^(2-gamma) |grad u|^2 / u^gamma and its boundary slope.

    grad u is read off the stencil as (grad h - u grad ell) / ell with
    h = ell * u, both gradients those of :func:`capmink.grid._u_frame`, all on
    the psi ring of u, and only Phi and the per-node derivative are tiled; a
    constant u has Phi = 0 exactly.  A u whose boundary phi-derivative exceeds
    TRUNCATION_TOL * (dphi / theta)^2 * (max u - min u) / theta, the scale of
    u's own phi-truncation, plus 8 eps * max u / dphi, the rounding of a
    constant u, is not Neumann and is refused.
    For a Neumann u the outward derivative of log(Phi) at the boundary equals
    -gamma * cot(theta) (``target``) wherever the tangential gradient does not
    vanish; the returned per-node derivative is NaN at (near-)degenerate nodes.
    ``boundary_derivative_range`` spans the finite derivatives at the nodes
    where the extrapolated |u_psi| / sin(theta) is positive and at least half
    its max, and is None where there is no such node.
    """
    _check_grid(geom, u)
    if not (0.0 < gamma < 2.0):
        raise ConfigError(f"gamma must lie in (0, 2), got {gamma}")
    if np.any(u.values <= 0.0):
        raise DomainError("u must be positive")
    scale = float(np.max(np.abs(u.values)))
    defect = float(np.max(np.abs(boundary_values(geom, u.values)[1])))
    spread = float(np.max(u.values) - np.min(u.values))
    if defect > (TRUNCATION_TOL * (geom.dphi / geom.theta) ** 2 * spread / geom.theta
                 + 8.0 * np.finfo(float).eps * scale / geom.dphi):
        raise ApplicabilityError(f"u violates the Neumann condition (defect {defect:.3g})")
    # the stencil is linear, so u may be offset by a constant first: then a
    # constant u gives v = 0 and Phi = 0 exactly
    ring = _ring(geom, *_psi_period(u.values))
    uv = u.values[:, :ring.Npsi]
    v = uv - scale
    _, _, _, g1, g2, _ = _u_frame(ring, v)
    _, _, _, ell_g1, _, ell = _u_frame(_ring(geom, 1), np.ones((geom.Nphi, 1)))
    gsq = ((g1 - v * ell_g1) ** 2 + g2**2) / ell**2
    phi_vals = ell ** (2.0 - gamma) * gsq / uv**gamma
    degenerate = float(np.max(phi_vals)) < 1e-14 * max(1.0, scale**2)

    floor = 1e-12 * max(1.0, scale**2)
    with np.errstate(divide="ignore"):
        logphi = np.where(phi_vals > floor, np.log(np.maximum(phi_vals, floor)), np.nan)
    _, bnd_der = boundary_values(ring, logphi)

    # the tangential gradient |u_psi| / sin(theta) on the boundary
    u_psi = g2 * geom.sin_phi[:, None] / ell
    tangential = np.abs(boundary_values(ring, u_psi)[0]) / geom.sin_theta
    held = bnd_der[(tangential >= 0.5 * np.max(tangential)) & (tangential > 0.0)
                   & np.isfinite(bnd_der)]
    # the first max row of the tiled Phi is the ring's
    i, _j = np.unravel_index(np.argmax(phi_vals), phi_vals.shape)
    return PhiMonitorReport(
        phi_field=ScalarField(geom, _tiled(geom, ring, phi_vals)),
        interior_max=bool(i < geom.Nphi - 1),
        boundary_derivative=_tiled(geom, ring, bnd_der),
        degenerate=degenerate,
        boundary_derivative_range=([float(np.min(held)), float(np.max(held))]
                                   if held.size else None),
        target=-gamma * geom.cot_theta,
    )


def q_monitor(geom: CapGeometry, h: ScalarField, q: float) -> QMonitorReport:
    """Trace auxiliary function log(sigma1) + A h + B |grad h|^2.

    The coefficients follow the explicit choice
    B = |3 - q| (max h^2 + 3 max |grad h|^2) / min h^4 + 1 and
    -A = (2 B max |grad h|^2 + 1) / min h.  Diagnostic only.
    """
    if not math.isfinite(q):
        raise ConfigError(f"q must be finite, got {q}")
    cd = curvature_tensor(geom, h)
    if np.any(cd.sigma1 <= 0.0):
        raise ConvexityError("sigma1 must be positive everywhere")
    gsq = cd.g1**2 + cd.g2**2
    hmax2 = float(np.max(h.values)) ** 2
    gmax2 = float(np.max(gsq))
    hmin = float(np.min(h.values))
    B = abs(3.0 - q) * (hmax2 + 3.0 * gmax2) / hmin**4 + 1.0
    A = -(2.0 * B * gmax2 + 1.0) / hmin
    Q = np.log(cd.sigma1) + A * h.values + B * gsq
    return QMonitorReport(A=A, B=B, max=float(np.max(Q)), argmax=_argmax(geom, Q),
                          field=ScalarField(geom, Q))


def c0_bound_check(geom: CapGeometry, h: ScalarField, spec,
                   cfg: SolverConfig = SolverConfig()):
    """Extremum inequalities tying max/min of u = h/ell to the data, at a solution h.

    At the max of u: u^(q-p) >= f ell^(p-1) (ell^2 + |grad ell|^2)^((3-q)/2);
    the reverse inequality holds at the min, each against the grid-wide
    extreme of the right-hand side up to TRUNCATION_TOL * grid_eps.  Both
    hold only at a solution: h is refused unless the solver's test accepts
    it (:func:`capmink.solver.is_solution` at ``cfg.newton_tol``).  Returns
    ``(lower_pass, upper_pass, report)``.
    """
    p, q = spec.p, spec.q
    if p == q:
        raise ApplicabilityError("c0 bound check does not apply at p == q")
    passed, res_sup = is_solution(spec, geom, h, cfg)
    if not passed:
        raise ApplicabilityError(f"h is not a solution of the problem (residual {res_sup:.3g})")
    tol = TRUNCATION_TOL * geom.grid_eps()
    ell = _ell(geom)
    u = h.values / ell
    rhs = spec.f.values * ell ** (p - 1.0) * (ell**2 + ell_grad_sq(geom)) ** ((3.0 - q) / 2.0)
    max_u, min_u = float(np.max(u)), float(np.min(u))
    rhs_min, rhs_max = float(np.min(rhs)), float(np.max(rhs))
    report = C0BoundReport(max_u ** (q - p) >= rhs_min - tol, min_u ** (q - p) <= rhs_max + tol,
                           max_u, min_u, rhs_min, rhs_max, res_sup, tol)
    return report.lower_pass, report.upper_pass, report
