"""Newton/homotopy solver for the capillary dual Minkowski equation.

The equation ``det(hess h + h I) = f h^(p-1) (h^2 + |grad h|^2)^((3-q)/2)``
with the Robin condition ``h_mu = cot(theta) h`` is solved in the quotient
variable ``u = h / ell``, which turns the boundary condition into a
homogeneous Neumann one.  The homotopy

    f_s = (1 - s) ell^(1-p) (ell^2 + |grad ell|^2)^((q-3)/2) + s f

holds the exponents fixed and blends only the density; it starts from the
exactly solvable data at ``s = 0`` (solution ``u = 1``) and
continues to the target problem at ``s = 1``.  Newton steps use the exact
sparse Jacobian of the discrete residual: the determinant is linearized as
``cof(b) : db`` and the right-hand side analytically in ``(u, grad u)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ApplicabilityError, ConfigError, ConvexityError, DomainError
from .grid import (
    EVEN_TOL,
    CapGeometry,
    ScalarField,
    _ell_ext_rows,
    _frame,
    bump_profile,
    curvature_tensor,
    ell_field,
    eigen_range,
    evenness_defect,
    extend,
    hessian_frame,
    robin_residual,
    symmetrize_even,
)
from .operators import u_system


@dataclass
class ProblemSpec:
    """Target data (p, q, theta, f) of the capillary Minkowski problem."""

    p: float
    q: float
    theta: float
    f: ScalarField
    even: bool = False
    allow_unsupported: bool = False

    def __post_init__(self):
        if np.any(self.f.values <= 0.0):
            raise DomainError("density f must be positive everywhere")
        if abs(self.f.geometry.theta - self.theta) > 1e-12:
            raise ConfigError("f is sampled on a grid with a different theta")
        p, q = self.p, self.q
        supported = q <= 3.0 and (
            (1.0 < p < q) or (p > q) or (1.0 < p == q)
        )
        if not supported and not self.allow_unsupported:
            raise ConfigError(
                f"(p, q) = ({p}, {q}) is outside the supported branches "
                "{1<p<q<=3}, {p>q, p>1}, {1<p=q<=3}"
            )
        if self.even:
            defect = evenness_defect(self.f.geometry, self.f.values)
            if defect > EVEN_TOL:
                raise ConfigError(
                    f"even flag set but f has symmetrization defect {defect:.3g}"
                )
        elif 1.0 < p < q and not self.allow_unsupported:
            raise ConfigError(
                "the branch 1<p<q requires even data; set even=True or "
                "allow_unsupported=True"
            )


@dataclass
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 50
    min_step: float = 2.0**-20
    convexity_floor: float = 1e-8
    ds_init: float = 0.1
    ds_min: float = 1e-4

    def __post_init__(self):
        for name in ("newton_tol", "max_newton", "min_step", "convexity_floor",
                     "ds_init", "ds_min"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass
class NewtonTrace:
    s: float
    iterations: int
    residuals: list = field(default_factory=list)
    halvings: int = 0
    converged: bool = False


@dataclass
class SolveResult:
    h: ScalarField
    u: ScalarField
    residual_sup: float
    robin_defect_sup: float
    b_eigen_range: tuple
    newton_trace: list
    converged: bool
    s_reached: float = 1.0
    residual_floor: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "s_reached": self.s_reached,
            "residual_sup": self.residual_sup,
            "residual_floor": self.residual_floor,
            "robin_defect_sup": self.robin_defect_sup,
            "b_eigen_range": list(self.b_eigen_range),
            "newton_trace": [
                {
                    "s": t.s,
                    "iterations": t.iterations,
                    "residuals": t.residuals,
                    "halvings": t.halvings,
                    "converged": t.converged,
                }
                for t in self.newton_trace
            ],
        }


# ---------------------------------------------------------------------------
# residuals


def _density(spec: ProblemSpec, s: float | None) -> np.ndarray:
    """Homotopy density f_s at parameter s (None = target).

    The exponents are held at the target (p, q) along the whole path; the
    density is blended from f_0 = ell^(1-p) (ell^2 + |grad ell|^2)^((q-3)/2),
    which makes h = ell the exact solution at s = 0 for every q.  (Moving the
    exponent q_s = 3 + s(q-3) instead crosses the scale-degenerate manifold
    q_s = p whenever q < p < 3, where the intermediate problem is generically
    unsolvable; at q = 3 the two paths coincide.)
    """
    if s is None or s == 1.0:
        return spec.f.values
    f0 = _base_density(spec.f.geometry, spec.p, spec.q)
    return (1.0 - s) * f0 + s * spec.f.values


def _equation(fvals, p, q, frame, h):
    """(det b, rhs, w) of det b = f h^(p-1) w^((3-q)/2), w = h^2 + |grad h|^2."""
    b11, b12, b22, g1, g2 = frame
    w = h**2 + g1**2 + g2**2
    return b11 * b22 - b12**2, fvals * h ** (p - 1.0) * w ** ((3.0 - q) / 2.0), w


def _base_density(geom: CapGeometry, p: float, q: float) -> np.ndarray:
    """Density for which u = 1 solves the discrete equation exactly.

    This is the manufactured density of h = ell evaluated with the same
    quotient-frame stencils as the Newton residual, so the homotopy base
    point has an exactly representable solution; it equals the continuum
    ell^(1-p) (ell^2 + |grad ell|^2)^((q-3)/2) up to O(grid^2).
    """
    key = ("base_density", p, q)
    if key not in geom._cache:
        *frame, hvec = _u_frame(geom, np.ones(geom.size))
        det, weight, _ = _equation(1.0, p, q, frame, hvec)
        geom._cache[key] = (det / weight).reshape(geom.shape)
    return geom._cache[key]


def _residual_h_raw(geom: CapGeometry, fvals, p, q, h: ScalarField) -> ScalarField:
    if np.any(h.values <= 0.0):
        raise DomainError("h must be positive")
    det, rhs, _ = _equation(fvals, p, q, hessian_frame(geom, h.values, "robin"), h.values)
    return ScalarField(geom, det - rhs)


def residual_h(spec: ProblemSpec, geom: CapGeometry, h: ScalarField) -> ScalarField:
    """det(b) - f h^(p-1) (h^2 + |grad h|^2)^((3-q)/2), Robin ghosts."""
    return _residual_h_raw(geom, spec.f.values, spec.p, spec.q, h)


def _u_frame(geom: CapGeometry, uvec):
    """Flattened (b11, b12, b22, g1, g2, h) of h = ell * u with Neumann ghosts.

    Matches the sparse operators of :func:`capmink.operators.u_system` up to
    rounding (see :func:`capmink.grid._frame`).
    """
    ext = _ell_ext_rows(geom)[:, None] * extend(geom, uvec.reshape(geom.shape), "neumann")
    return tuple(a.ravel() for a in _frame(geom, ext)) + (ext[1:-1].ravel(),)


def _residual_u_vec(geom: CapGeometry, fvals, p, q, uvec):
    """Residual of the quotient formulation on the flattened u-vector."""
    *frame, hvec = _u_frame(geom, uvec)
    det, rhs, w = _equation(fvals.ravel(), p, q, frame, hvec)
    return det - rhs, (*frame, hvec, w, rhs)


def residual_u(spec: ProblemSpec, geom: CapGeometry, u: ScalarField) -> ScalarField:
    """Residual in u = h/ell with the Neumann ghost at phi = theta."""
    if np.any(u.values <= 0.0):
        raise DomainError("u must be positive")
    res, _ = _residual_u_vec(geom, spec.f.values, spec.p, spec.q, u.values.ravel())
    return ScalarField(geom, res.reshape(geom.shape))


def _jacobian(geom: CapGeometry, fvals, p, q, uvec, parts) -> sp.csr_matrix:
    """Exact Jacobian of the quotient residual at uvec."""
    ops = u_system(geom)
    b11, b12, b22, g1, g2, hvec, w, rhs = parts
    e = (3.0 - q) / 2.0
    J = (
        sp.diags(b22) @ ops["b11"]
        + sp.diags(b11) @ ops["b22"]
        - 2.0 * sp.diags(b12) @ ops["b12"]
    )
    fr = fvals.ravel()
    # d(rhs)/dh through both the power and the h^2 inside w; dh/du = ell
    we = w**e
    c_h = fr * ((p - 1.0) * hvec ** (p - 2.0) * we
                + hvec ** (p - 1.0) * e * w ** (e - 1.0) * 2.0 * hvec)
    c_g = fr * hvec ** (p - 1.0) * e * w ** (e - 1.0) * 2.0
    J = J - sp.diags(c_h * ops["ell"])
    J = J - sp.diags(c_g * g1) @ ops["g1"] - sp.diags(c_g * g2) @ ops["g2"]
    return J.tocsr()


def _lambda_min_u(geom: CapGeometry, uvec) -> float:
    b11, b12, b22, _, _, _ = _u_frame(geom, uvec)
    return eigen_range(b11, b12, b22)[0]


def _abs_ops(geom: CapGeometry) -> dict:
    key = "u_system_abs"
    if key not in geom._cache:
        ops = u_system(geom)
        geom._cache[key] = {
            k: abs(ops[k]) for k in ("b11", "b12", "b22")
        }
    return geom._cache[key]


def _residual_floor(geom: CapGeometry, uvec, parts) -> np.ndarray:
    """Componentwise attainable-accuracy bound for the discrete residual.

    Near the pole the b22 stencil carries coefficients of size
    1/(sin(phi)^2 dpsi^2); a one-ulp change of u moves that cell's residual
    by roughly that factor, so the residual of the best double-precision
    iterate cannot drop below eps * |A| |u| per cell.  The standard |A||x|
    backward-error bound over the b-operators gives that floor.
    """
    aops = _abs_ops(geom)
    au = np.abs(uvec)
    b11, b12, b22, _g1, _g2, _h, _w, rhs = parts
    eps = np.finfo(float).eps
    a11 = aops["b11"] @ au
    a12 = aops["b12"] @ au
    a22 = aops["b22"] @ au
    return eps * (
        np.abs(b22) * a11 + np.abs(b11) * a22 + 2.0 * np.abs(b12) * a12
        + 4.0 * np.abs(rhs)
    )


def _within_floor(res, noise, tol, parts) -> bool:
    """Convergence test: componentwise, against the local equation scale.

    The scale max(|det b|, |rhs|) equals ~1 for well-normalized solutions,
    reproducing the plain sup-norm criterion, but it rejects the spurious
    collapse branch h -> 0 of the p > q equation, where the absolute
    residual vanishes even though the relative defect stays O(1).
    """
    rhs = parts[7]
    det = res + rhs
    scale = np.maximum(np.abs(det), np.abs(rhs))
    return bool(np.all(np.abs(res) <= tol * scale + 8.0 * noise))


def _rel_sup(res, parts) -> float:
    """Sup of the residual measured against the local equation scale."""
    rhs = parts[7]
    det = res + rhs
    scale = np.maximum(np.maximum(np.abs(det), np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(res) / scale))


def _rescale_dilation(p, q, res, parts):
    """Optimal dilation factor for the current iterate.

    Along lambda * u the residual is exactly lambda^2 det - lambda^(2+p-q) rhs
    per cell; for p near q this direction is a near-null mode of the Jacobian
    that damped Newton traverses very slowly, so it is eliminated by a scalar
    least-squares solve first.  The cost is normalized by the dilated equation
    scale: the raw residual vanishes as lambda -> 0 whenever p > q (the
    spurious collapse branch), whereas the relative defect tends to 1 there,
    so the normalized cost has no collapse attractor.
    """
    from scipy.optimize import minimize_scalar

    rhs = parts[7]
    det = res + rhs
    expo = 2.0 + p - q

    def cost(t):
        a = np.exp(2.0 * t) * det
        b = np.exp(expo * t) * rhs
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        return float(np.sum(((a - b) / scale) ** 2))

    opt = minimize_scalar(cost, bounds=(-3.0, 3.0), method="bounded",
                          options={"xatol": 1e-14})
    lam = math.exp(opt.x)
    return lam if cost(opt.x) < cost(0.0) else 1.0


def _rot_invariant(fvals) -> bool:
    """True when the data is psi-independent (rotationally symmetric)."""
    span = np.max(fvals, axis=1) - np.min(fvals, axis=1)
    return bool(np.max(span) <= 1e-13 * max(1.0, float(np.max(np.abs(fvals)))))


def _finalize(geom: CapGeometry, uvec, trace, converged, s_reached,
              residual_sup, residual_floor) -> SolveResult:
    """SolveResult of the iterate uvec; the residual figures are the solver's own."""
    u = ScalarField(geom, uvec.reshape(geom.shape))
    ell = ell_field(geom).values
    h = ScalarField(geom, ell * u.values)
    cd = curvature_tensor(geom, h)
    robin = float(np.max(np.abs(robin_residual(geom, h))))
    return SolveResult(
        h=h,
        u=u,
        residual_sup=residual_sup,
        robin_defect_sup=robin,
        b_eigen_range=(cd.lambda_min, cd.lambda_max),
        newton_trace=trace,
        converged=converged,
        s_reached=s_reached,
        residual_floor=residual_floor,
    )


def newton_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    s: float,
    u0: ScalarField,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Damped Newton on the quotient residual at homotopy parameter s."""
    if cfg is None:
        cfg = SolverConfig()
    if spec.p == spec.q:
        raise ApplicabilityError(
            "direct Newton at p == q is refused (dilation-invariant Jacobian); "
            "use pq_limit_solve"
        )
    if np.any(u0.values <= 0.0):
        raise DomainError("u0 must be positive")
    fvals, p, q = _density(spec, s), spec.p, spec.q
    rot = _rot_invariant(fvals)

    def project(vec):
        if rot:
            vec = np.broadcast_to(
                vec.reshape(geom.shape).mean(axis=1, keepdims=True), geom.shape
            ).ravel().copy()
        if spec.even:
            vec = symmetrize_even(
                geom, ScalarField(geom, vec.reshape(geom.shape))
            ).values.ravel()
        return vec

    uvec = project(u0.values.ravel().copy())
    if _lambda_min_u(geom, uvec) < cfg.convexity_floor:
        raise ConvexityError("u0 is not uniformly convex (b below the floor)")

    def evaluate(vec):
        res, parts = _residual_u_vec(geom, fvals, p, q, vec)
        # the scale dependence of the residual is known in closed form, so
        # the dilation factor is set by an exact 1-D solve; for p near q this
        # direction is a near-null Newton mode that damping alone crawls along
        lam = _rescale_dilation(p, q, res, parts)
        if abs(lam - 1.0) > 1e-14:
            dres, dparts = _residual_u_vec(geom, fvals, p, q, lam * vec)
            # accept on the scale-normalized sup so a collapse-ward rescale
            # (small absolute residual, O(1) relative defect) is never taken
            if _rel_sup(dres, dparts) < _rel_sup(res, parts):
                vec, res, parts = lam * vec, dres, dparts
        return vec, res, parts, float(np.max(np.abs(res)))

    trace = NewtonTrace(s=s, iterations=0)
    uvec, res, parts, res_sup = evaluate(uvec)
    noise = _residual_floor(geom, uvec, parts)
    trace.residuals.append(res_sup)
    for _it in range(cfg.max_newton):
        if _within_floor(res, noise, cfg.newton_tol, parts):
            trace.converged = True
            break
        J = _jacobian(geom, fvals, p, q, uvec, parts)
        delta = spla.spsolve(J.tocsc(), -res)
        if not np.all(np.isfinite(delta)):
            raise ApplicabilityError("Newton linear system is singular")
        step = 1.0
        while True:
            cand = project(uvec + step * delta)
            ok = np.all(cand > 0.0) and _lambda_min_u(geom, cand) >= cfg.convexity_floor
            if ok:
                cand, cres, cparts, csup = evaluate(cand)
                cnoise = _residual_floor(geom, cand, cparts)
                # accept on sufficient decrease, or on reaching the target
                if (
                    csup <= (1.0 - 0.25 * step) * res_sup
                    or _within_floor(cres, cnoise, cfg.newton_tol, cparts)
                ):
                    break
            step *= 0.5
            trace.halvings += 1
            if step < cfg.min_step:
                return _finalize(geom, uvec, [trace], False, s, res_sup,
                                 8.0 * float(np.max(noise)))
        uvec, res, parts, res_sup, noise = cand, cres, cparts, csup, cnoise
        trace.iterations += 1
        trace.residuals.append(res_sup)
    else:
        trace.converged = _within_floor(res, noise, cfg.newton_tol, parts)
    return _finalize(geom, uvec, [trace], trace.converged, s, res_sup,
                     8.0 * float(np.max(noise)))


def continuation_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Homotopy continuation from (f_0, q_0) to the target data at s = 1."""
    if cfg is None:
        cfg = SolverConfig()
    if spec.p == spec.q:
        raise ApplicabilityError("p == q is routed through pq_limit_solve")
    uvec = np.ones(geom.size)
    traces = []
    s = 0.0
    ds = cfg.ds_init
    u = ScalarField(geom, uvec.reshape(geom.shape))
    base = newton_solve(spec, geom, 0.0, u, cfg)
    traces.extend(base.newton_trace)
    if not base.converged:
        return _finalize(geom, uvec, traces, False, 0.0, math.inf, 0.0)
    u = base.u
    successes = 0
    last = base
    while s < 1.0:
        s_next = min(1.0, s + ds)
        step = newton_solve(spec, geom, s_next, u, cfg)
        traces.extend(step.newton_trace)
        if step.converged:
            s = s_next
            u = step.u
            last = step
            successes += 1
            if successes >= 2:
                ds = min(2.0 * ds, 1.0)
                successes = 0
        else:
            ds *= 0.5
            successes = 0
            if ds < cfg.ds_min:
                return _finalize(geom, u.values.ravel(), traces, False, s,
                                 math.inf, last.residual_floor)
    return _finalize(geom, u.values.ravel(), traces, True, 1.0,
                     last.residual_sup, last.residual_floor)


# ---------------------------------------------------------------------------
# manufactured solutions


def manufactured_f(
    geom: CapGeometry, h_star: ScalarField, p: float, q: float
) -> ScalarField:
    """Density making h_star an (exactly discrete) solution of the equation."""
    if np.any(h_star.values <= 0.0):
        raise DomainError("h_star must be positive")
    rob = float(np.max(np.abs(robin_residual(geom, h_star))))
    scale = float(np.max(np.abs(h_star.values)))
    if rob > 100.0 * geom.grid_eps() * scale:
        raise ApplicabilityError(
            f"h_star violates the Robin condition (defect {rob:.3g})"
        )
    frame = hessian_frame(geom, h_star.values, "robin")
    if eigen_range(*frame[:3])[0] <= 0.0:
        raise ApplicabilityError("h_star is not strictly convex")
    det, weight, _ = _equation(1.0, p, q, frame, h_star.values)
    return ScalarField(geom, det / weight)


def ell_bump_field(geom: CapGeometry, eps: float, k: int = 2) -> ScalarField:
    """h* = ell(phi) (1 + eps cos(k psi) rho(phi)) with rho the bump profile."""
    phi = geom.phi_nodes[:, None]
    psi = geom.psi_nodes[None, :]
    ell = 1.0 - geom.cos_theta * np.cos(phi)
    vals = ell * (1.0 + eps * np.cos(k * psi) * bump_profile(phi, geom.theta))
    return ScalarField(geom, np.broadcast_to(vals, geom.shape).copy())


_BUMP_F_CACHE: dict = {}


def _bump_f_lambdified():
    """Continuum density of the ell-bump family, derived symbolically once."""
    if "fn" in _BUMP_F_CACHE:
        return _BUMP_F_CACHE["fn"]
    import sympy as sy

    phi, psi, th, ep, pp, qq, kk = sy.symbols(
        "phi psi theta epsilon p q k", positive=False
    )
    s2 = sy.sin(phi) ** 2
    rho = s2 * (2 - s2 / sy.sin(th) ** 2)
    ell = 1 - sy.cos(th) * sy.cos(phi)
    h = ell * (1 + ep * sy.cos(kk * psi) * rho)
    h_phi = sy.diff(h, phi)
    h_psi = sy.diff(h, psi)
    b11 = sy.diff(h, phi, 2) + h
    b12 = sy.diff(h_phi, psi) / sy.sin(phi) - sy.cos(phi) / sy.sin(phi) ** 2 * h_psi
    b22 = (
        sy.diff(h, psi, 2) / sy.sin(phi) ** 2
        + sy.cos(phi) / sy.sin(phi) * h_phi
        + h
    )
    w = h**2 + h_phi**2 + h_psi**2 / sy.sin(phi) ** 2
    f = (b11 * b22 - b12**2) / (h ** (pp - 1) * w ** ((3 - qq) / 2))
    fn = sy.lambdify((phi, psi, th, ep, pp, qq, kk), f, modules="numpy")
    _BUMP_F_CACHE["fn"] = fn
    return fn


def ell_bump_f_exact(
    geom: CapGeometry, p: float, q: float, eps: float, k: int = 2
) -> ScalarField:
    """Continuum (not grid-differenced) density for the ell-bump solution."""
    fn = _bump_f_lambdified()
    phi = geom.phi_nodes[:, None]
    psi = geom.psi_nodes[None, :]
    vals = fn(phi, psi, geom.theta, eps, p, q, k)
    vals = np.broadcast_to(np.asarray(vals, dtype=float), geom.shape).copy()
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ApplicabilityError("bump amplitude too large: density not positive")
    return ScalarField(geom, vals)


# ---------------------------------------------------------------------------
# p = q limit scheme


def _pq_polish(geom: CapGeometry, fvals, p: float, u0vec, c0: float,
               anchor: int, cfg: SolverConfig):
    """Newton on the dilation-fixed system det b = C f h^(p-1) w^((3-p)/2).

    Unknowns are (u, log C); the extra row pins h at the anchor cell to 1,
    removing the dilation direction that makes the plain Jacobian singular.
    Returns (u, C, sup of the bordered residual, residual floor).
    """
    N = geom.size
    ops = u_system(geom)
    uvec = u0vec.copy()
    logc = math.log(c0)
    for _ in range(cfg.max_newton):
        res, parts = _residual_u_vec(geom, fvals * math.exp(logc), p, p, uvec)
        pin = ops["ell"][anchor] * uvec[anchor] - 1.0
        sup = max(float(np.max(np.abs(res))), abs(pin))
        noise = _residual_floor(geom, uvec, parts)
        if _within_floor(res, noise, cfg.newton_tol, parts) and abs(pin) <= cfg.newton_tol:
            return uvec, math.exp(logc), sup, 8.0 * float(np.max(noise))
        J = _jacobian(geom, fvals * math.exp(logc), p, p, uvec, parts)
        rhs_col = sp.csc_matrix(-parts[7][:, None])  # d(res)/d(logC) = -rhs
        row = sp.csr_matrix(
            ([ops["ell"][anchor]], ([0], [anchor])), shape=(1, N)
        )
        A = sp.bmat([[J, rhs_col], [row, None]], format="csc")
        sol = spla.spsolve(A, -np.concatenate([res, [pin]]))
        if not np.all(np.isfinite(sol)):
            raise ApplicabilityError("augmented Newton system is singular")
        step = 1.0
        while step >= cfg.min_step:
            cand = uvec + step * sol[:N]
            if np.all(cand > 0.0) and _lambda_min_u(geom, cand) > 0.0:
                break
            step *= 0.5
        uvec = uvec + step * sol[:N]
        logc = logc + step * sol[N]
    raise ApplicabilityError("p = q polish did not converge")


@dataclass
class PqLimitResult:
    h_bar: ScalarField
    C_star: float
    eps_schedule: list
    C_eps: list
    residual_sup: float
    diffs: list
    solution: SolveResult  # h = h_bar, with the residual and floor of the polish


def pq_limit_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
    eps_schedule=(0.1, 0.05, 0.025, 0.0125),
) -> PqLimitResult:
    """Dilation-normalized solution of the degenerate case p = q.

    Solves the approximating problems with exponent p - 1 + eps along the
    decreasing schedule, tracks C*_eps = (min h_eps)^eps, then polishes the
    normalized limit pair (h_bar, C*) on the p = q equation directly.
    """
    if cfg is None:
        cfg = SolverConfig()
    if spec.p != spec.q:
        raise ApplicabilityError("pq_limit_solve applies only at p == q")
    eps_schedule = list(eps_schedule)
    if any(e <= 0 for e in eps_schedule) or any(
        b <= a for a, b in zip(eps_schedule[1:], eps_schedule[:-1])
    ):
        raise ConfigError("eps schedule must be positive and strictly decreasing")

    C_eps = []
    u_last = None
    for i, e in enumerate(eps_schedule):
        sub = ProblemSpec(
            p=spec.p + e, q=spec.q, theta=spec.theta, f=spec.f, even=spec.even
        )
        if u_last is None:
            r = continuation_solve(sub, geom, cfg)
        else:
            r = newton_solve(sub, geom, 1.0, u_last, cfg)
            if not r.converged:
                r = continuation_solve(sub, geom, cfg)
        if not r.converged:
            raise ApplicabilityError(f"epsilon = {e} sub-problem did not converge")
        m = float(np.min(r.h.values))
        C_eps.append(m**e)
        u_last = r.u
        h_last = r.h

    diffs = [abs(b - a) for a, b in zip(C_eps[:-1], C_eps[1:])]

    m = float(np.min(h_last.values))
    anchor = int(np.argmin(h_last.values.ravel()))
    u_bar0 = u_last.values.ravel() / m
    uvec, C_star, res_sup, floor = _pq_polish(
        geom, spec.f.values.ravel(), spec.p, u_bar0, C_eps[-1], anchor, cfg
    )
    if spec.even:
        uvec = symmetrize_even(geom, ScalarField(geom, uvec.reshape(geom.shape))).values
    # the polish returns only once its floor test holds
    solution = _finalize(geom, uvec, [], True, 1.0, res_sup, floor)
    return PqLimitResult(
        h_bar=solution.h,
        C_star=C_star,
        eps_schedule=eps_schedule,
        C_eps=C_eps,
        residual_sup=res_sup,
        diffs=diffs,
        solution=solution,
    )


def pq_residual(geom: CapGeometry, f: ScalarField, p: float,
                h: ScalarField, C: float) -> ScalarField:
    """Residual of det b = C f h^(p-1) (h^2 + |grad h|^2)^((3-p)/2)."""
    return _residual_h_raw(geom, C * f.values, p, p, h)


# ---------------------------------------------------------------------------
# uniqueness probe


def uniqueness_probe(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
    starts: list | None = None,
):
    """Solve from several starts and measure sup |log(h_a / h_b)| over pairs."""
    if cfg is None:
        cfg = SolverConfig()
    if not spec.p > spec.q:
        raise ApplicabilityError("uniqueness probe applies only for p > q")
    if starts is None or len(starts) < 2:
        raise ConfigError("at least two starts are required")
    solutions = []
    for u0 in starts:
        r = newton_solve(spec, geom, 1.0, u0, cfg)
        if not r.converged:
            r = continuation_solve(spec, geom, cfg)
        if not r.converged:
            raise ApplicabilityError("a probe branch did not converge")
        solutions.append(r.h.values)
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            worst = max(
                worst,
                float(np.max(np.abs(np.log(solutions[i] / solutions[j])))),
            )
    return worst, worst <= 1e-8
