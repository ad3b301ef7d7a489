"""A-priori-estimate monitors evaluated on discrete support functions.

Each monitor evaluates, on grid data, a quantity that the continuum theory
controls: the gradient quotient |grad h|^2 / h^gamma, the max/min
non-collapsing bound derived from it, the boundary behaviour of the
log-gradient test function, the trace auxiliary function with its explicit
coefficients, and the extremum inequalities pinning max/min of h to the data.
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
    boundary_values,
    curvature_tensor,
    ell_field,
    ell_grad_sq,
    evenness_defect,
    grad_sq,
)


@dataclass
class GradientQuotientReport:
    gamma: float
    N_observed: float
    argmax_phi: float
    argmax_psi: float


@dataclass
class NonCollapseReport:
    ratio: float
    gamma: float
    N: float
    C_dd: float
    bound_case1: float
    bound_case2: float
    passed: bool


@dataclass
class QMonitorConfig:
    A: float
    B: float


@dataclass
class PhiMonitorReport:
    phi_field: ScalarField
    interior_max: bool
    boundary_derivative: np.ndarray
    boundary_gradient: np.ndarray
    degenerate: bool


def gradient_quotient(
    geom: CapGeometry, h: ScalarField, gamma: float
) -> GradientQuotientReport:
    """Observed constant in |grad h|^2 / h^gamma <= N (max h)^(2-gamma)."""
    if not (0.0 < gamma < 2.0):
        raise ConfigError(f"gamma must lie in (0, 2), got {gamma}")
    if np.any(h.values <= 0.0):
        raise DomainError("h must be positive")
    quot = grad_sq(geom, h) / h.values**gamma
    i, j = np.unravel_index(np.argmax(quot), quot.shape)
    N_obs = float(np.max(quot)) / float(np.max(h.values)) ** (2.0 - gamma)
    return GradientQuotientReport(
        gamma=gamma,
        N_observed=N_obs,
        argmax_phi=float(geom.phi_nodes[i]),
        argmax_psi=float(geom.psi_nodes[j]),
    )


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
    reported as a candidate and enters pass/fail only through the max.
    """
    if not (0.0 < gamma < 2.0):
        raise ConfigError(f"gamma must lie in (0, 2), got {gamma}")
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
        bound1 = (
            c_tg ** (2.0 / gamma)
            * N ** (1.0 / gamma)
            * (1.0 + C_dd * 2.0 ** (2.0 / (2.0 - gamma))) ** (2.0 / gamma)
            * C_dd
            / (ct * (1.0 - ct))
        )
    else:
        bound1 = math.inf
    cot = ct / st
    bound2 = C_dd * (max(st / ct, 1.0) if ct > 0.0 else 1.0)
    bound2 *= math.sqrt((2.0 * cot + 1.0) ** 2 + 1.0)
    ratio = float(np.max(h.values)) / float(np.min(h.values))
    return NonCollapseReport(
        ratio=ratio,
        gamma=gamma,
        N=N,
        C_dd=C_dd,
        bound_case1=bound1,
        bound_case2=bound2,
        passed=ratio <= max(bound1, bound2),
    )


def phi_monitor(
    geom: CapGeometry,
    u: ScalarField,
    gamma: float,
    neumann_tol: float | None = None,
) -> PhiMonitorReport:
    """Test function ell^(2-gamma) |grad u|^2 / u^gamma and its boundary slope.

    For a Neumann u the outward derivative of log(Phi) at the boundary equals
    -gamma * cot(theta) wherever the tangential gradient does not vanish; the
    returned per-node derivative is NaN at (near-)degenerate nodes.
    """
    if not (0.0 < gamma < 2.0):
        raise ConfigError(f"gamma must lie in (0, 2), got {gamma}")
    if np.any(u.values <= 0.0):
        raise DomainError("u must be positive")
    scale = float(np.max(np.abs(u.values)))
    if neumann_tol is None:
        neumann_tol = 50.0 * geom.grid_eps() * max(1.0, scale)
    _, du = boundary_values(geom, u.values)
    if float(np.max(np.abs(du))) > neumann_tol:
        raise ApplicabilityError(
            f"u violates the Neumann condition (defect {np.max(np.abs(du)):.3g})"
        )
    ell = ell_field(geom).values
    gsq = grad_sq(geom, u)
    phi_vals = ell ** (2.0 - gamma) * gsq / u.values**gamma
    degenerate = float(np.max(phi_vals)) < 1e-14 * max(1.0, scale**2)

    floor = 1e-12 * max(1.0, scale**2)
    with np.errstate(divide="ignore"):
        logphi = np.where(phi_vals > floor, np.log(np.maximum(phi_vals, floor)), np.nan)
    f1, f2, f3 = logphi[-1], logphi[-2], logphi[-3]
    bnd_der = (2.0 * f1 - 3.0 * f2 + f3) / geom.dphi

    # boundary gradient magnitude, extrapolated, for masking degenerate nodes
    gb, _ = boundary_values(geom, np.sqrt(gsq))
    i, _j = np.unravel_index(np.argmax(phi_vals), phi_vals.shape)
    return PhiMonitorReport(
        phi_field=ScalarField(geom, phi_vals),
        interior_max=bool(i < geom.Nphi - 1),
        boundary_derivative=bnd_der,
        boundary_gradient=gb,
        degenerate=degenerate,
    )


def q_monitor(geom: CapGeometry, h: ScalarField, q: float):
    """Trace auxiliary function log(sigma1) + A h + B |grad h|^2.

    The coefficients follow the explicit choice
    B = |3 - q| (max h^2 + 3 max |grad h|^2) / min h^4 + 1 and
    -A = (2 B max |grad h|^2 + 1) / min h.  Diagnostic only.
    """
    cd = curvature_tensor(geom, h)
    if np.any(cd.sigma1 <= 0.0):
        raise ConvexityError("sigma1 must be positive everywhere")
    gsq = grad_sq(geom, h)
    hmax2 = float(np.max(h.values)) ** 2
    gmax2 = float(np.max(gsq))
    hmin = float(np.min(h.values))
    B = abs(3.0 - q) * (hmax2 + 3.0 * gmax2) / hmin**4 + 1.0
    A = -(2.0 * B * gmax2 + 1.0) / hmin
    Q = np.log(cd.sigma1) + A * h.values + B * gsq
    i, j = np.unravel_index(np.argmax(Q), Q.shape)
    loc = (float(geom.phi_nodes[i]), float(geom.psi_nodes[j]))
    return QMonitorConfig(A=A, B=B), ScalarField(geom, Q), loc


def c0_bound_check(geom: CapGeometry, h: ScalarField, spec, tol: float | None = None):
    """Extremum inequalities tying max/min of u = h/ell to the data.

    At the max of u: u^(q-p) >= f ell^(p-1) (ell^2 + |grad ell|^2)^((3-q)/2);
    the reverse inequality holds at the min.  Both are checked against the
    grid-wide extremes of the right-hand side.
    """
    from .solver import residual_h  # local import to avoid a cycle

    p, q = spec.p, spec.q
    if p == q:
        raise ApplicabilityError("c0 bound check does not apply at p == q")
    if tol is None:
        tol = 50.0 * geom.grid_eps()
    res = residual_h(spec, geom, h)
    res_sup = float(np.max(np.abs(res.values)))
    scale = max(1.0, float(np.max(np.abs(spec.f.values))))
    if res_sup > 100.0 * geom.grid_eps() * scale:
        raise ApplicabilityError(
            f"h is not a solution of the problem (residual {res_sup:.3g})"
        )
    ell = ell_field(geom).values
    u = h.values / ell
    rhs = spec.f.values * ell ** (p - 1.0) * (ell**2 + ell_grad_sq(geom)) ** (
        (3.0 - q) / 2.0
    )
    lower_pass = float(np.max(u)) ** (q - p) >= float(np.min(rhs)) - tol
    upper_pass = float(np.min(u)) ** (q - p) <= float(np.max(rhs)) + tol
    details = {
        "max_u": float(np.max(u)),
        "min_u": float(np.min(u)),
        "rhs_min": float(np.min(rhs)),
        "rhs_max": float(np.max(rhs)),
        "residual_sup": res_sup,
        "tol": tol,
    }
    return lower_pass, upper_pass, details
