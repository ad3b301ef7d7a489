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
The step is solved on the fields of the data's symmetry only: Nphi unknowns
for psi-independent data, the half domain for even data, the full grid
otherwise.  The folded Jacobian is assembled straight on a fixed sparsity
pattern cached on the geometry (:func:`capmink.operators._folded_terms`),
and every factorization uses SuperLU with the ``MMD_AT_PLUS_A``
fill-reducing column ordering.  Only the starting field is projected onto
the symmetric fields; each later iterate stays there exactly.

The continuation is steered by the observed Newton contraction
``Theta_k = |dx_k|_inf / |dx_(k-1)|_inf`` of successive directions
(Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch. 5).  After
the exact ``s = 0`` solve it tries ``ds = ds_init`` (1.0: the whole path in
one step).  A trial step is given up as soon as ``Theta > 1/2`` or its line
search wants a step below 1/4, and is retried at half the length; after an
accepted step ``ds`` is scaled by ``sqrt(Theta_bar / Theta_max)``, with
``Theta_bar = 1/4``, clamped to [1/2, 2].  Each step starts from the secant
predictor ``u_k + (ds / ds_prev)(u_k - u_(k-1))`` (Allgower-Georg,
*Introduction to Numerical Continuation Methods*, 1990) when that field is
positive and convex, else from ``u_k``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from numbers import Real

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
)
from .operators import JACOBIAN_TERMS, _fold, _folded_terms, u_system


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
    ds_init: float = 1.0
    ds_min: float = 1e-4

    def __post_init__(self):
        for name in ("newton_tol", "max_newton", "min_step", "convexity_floor",
                     "ds_init", "ds_min"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass
class NewtonTrace:
    s: float
    iterations: int
    residuals: list = field(default_factory=list)
    halvings: int = 0
    converged: bool = False
    # largest |dx_k|_inf / |dx_(k-1)|_inf of successive Newton directions;
    # 0.0 when fewer than two directions were taken
    contraction: float = 0.0


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
            "newton_trace": [asdict(t) for t in self.newton_trace],
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


def _jacobian(geom: CapGeometry, fvals, p, q, uvec, parts,
              symmetry: str = "none") -> sp.csc_matrix:
    """Exact Jacobian of the quotient residual at uvec, folded: S J E.

    ``symmetry`` names the fold pair of :func:`capmink.operators._fold`; the
    default ``"none"`` gives the full-grid Jacobian.
    """
    b11, b12, b22, g1, g2, hvec, w, rhs = parts
    e = (3.0 - q) / 2.0
    fr = fvals.ravel()
    # d(rhs)/dh through both the power and the h^2 inside w; dh/du = ell
    we = w**e
    c_h = fr * ((p - 1.0) * hvec ** (p - 2.0) * we
                + hvec ** (p - 1.0) * e * w ** (e - 1.0) * 2.0 * hvec)
    c_g = fr * hvec ** (p - 1.0) * e * w ** (e - 1.0) * 2.0
    # cof(b) : db for the determinant, minus d(rhs) through grad h and h
    weight = {"b11": b22, "b22": b11, "b12": -2.0 * b12, "g1": -c_g * g1, "g2": -c_g * g2}
    coeffs = np.stack([weight[k] for k in JACOBIAN_TERMS] + [-c_h * u_system(geom)["ell"]],
                      axis=1)
    S, _ = _fold(geom, symmetry)
    indptr, indices, T = _folded_terms(geom, symmetry)
    n = S.shape[0]
    return sp.csc_matrix((T @ (S @ coeffs).ravel(), indices, indptr), shape=(n, n))


def _lu_solve(A, b, what: str) -> np.ndarray:
    """Solution of A x = b by SuperLU under a fill-reducing ordering."""
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ApplicabilityError(f"{what} is singular") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise ApplicabilityError(f"{what} is singular")
    return x


def _newton_direction(A, res, fold) -> np.ndarray:
    """Newton direction ``E solve(A, -S res)`` of the folded Jacobian A = S J E."""
    S, E = fold
    return E @ _lu_solve(A, -(S @ res), "Newton linear system")


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
    residual vanishes even though the relative defect stays O(1).  A
    non-finite residual or floor (an overflowed scale) never passes.
    """
    if not (np.all(np.isfinite(res)) and np.all(np.isfinite(noise))):
        return False
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


def _symmetry(fvals, even: bool) -> str:
    """The largest symmetry of the data: "rot", else "even", else "none"."""
    if _rot_invariant(fvals):
        return "rot"
    return "even" if even else "none"


def _project(fold, vec) -> np.ndarray:
    """Mean of vec over the orbit of the fold's symmetry (psi mean for "rot")."""
    _, E = fold
    return E @ ((E.T @ vec) / (E.shape[0] // E.shape[1]))


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


# Continuation step control from the observed Newton contraction Theta
THETA_BAR = 0.25        # contraction the next step length aims at
THETA_REJECT = 0.5      # a trial step is given up above this contraction
TRIAL_MIN_STEP = 0.25   # ... or when its line search wants a shorter step


def _damped_newton(geom: CapGeometry, x, residual, direction, cfg: SolverConfig,
                   trace: NewtonTrace, rescale=None, trial: bool = False):
    """Damped Newton with a sufficient-decrease line search; fills ``trace``.

    ``residual(x)`` gives ``(res, parts, pin)``, where pin is the border
    residual (0.0 without a border); ``direction`` takes x and the same three.
    The u field (the first ``geom.size`` entries) must stay positive and
    convex; convexity is read off the residual's own frame, before the
    optional ``rescale(x, res, parts) -> (x, res, parts)`` adjusts x.  A step
    is halved until that holds and the sup falls by ``1 - step/4`` or the
    floor test holds.  The largest contraction of successive directions goes
    to ``trace.contraction``; with ``trial`` the solve is given up once it
    exceeds THETA_REJECT or the step falls below TRIAL_MIN_STEP, instead of
    below ``cfg.min_step``.  Returns the last iterate, its sup and its floor.
    """
    tol = cfg.newton_tol
    min_step = TRIAL_MIN_STEP if trial else cfg.min_step

    def evaluate(x):
        """(x, sup, done, data) of a positive candidate, or None if not convex."""
        res, parts, pin = residual(x)
        if eigen_range(*parts[:3])[0] < cfg.convexity_floor:
            return None
        if rescale is not None:
            x, res, parts = rescale(x, res, parts)
        noise = _residual_floor(geom, x[: geom.size], parts)
        done = _within_floor(res, noise, tol, parts) and abs(pin) <= tol
        sup = max(float(np.max(np.abs(res))), abs(pin))
        return x, sup, done, (res, parts, pin, noise)

    start = evaluate(x)
    if start is None:
        raise ConvexityError("u0 is not uniformly convex (b below the floor)")
    x, sup, done, data = start
    trace.residuals.append(sup)
    last_size = None
    for _it in range(cfg.max_newton):
        if done:
            break
        dx = direction(x, *data[:3])
        size = float(np.max(np.abs(dx)))
        if last_size:
            theta = size / last_size
            trace.contraction = max(trace.contraction, theta)
            if trial and theta > THETA_REJECT:
                return x, sup, data[3]
        last_size = size
        step = 1.0
        while True:
            cand = x + step * dx
            out = evaluate(cand) if np.all(cand[: geom.size] > 0.0) else None
            if out is not None and (out[1] <= (1.0 - 0.25 * step) * sup or out[2]):
                break
            step *= 0.5
            trace.halvings += 1
            if step < min_step:
                return x, sup, data[3]
        x, sup, done, data = out
        trace.iterations += 1
        trace.residuals.append(sup)
    trace.converged = done
    return x, sup, data[3]


def newton_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    s: float,
    u0: ScalarField,
    cfg: SolverConfig | None = None,
    *,
    trial: bool = False,
) -> SolveResult:
    """Damped Newton on the quotient residual at homotopy parameter s.

    ``trial=True`` marks a continuation step that the caller retries shorter:
    it is given up early on a poor contraction (see :func:`_damped_newton`).
    """
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
    symmetry = _symmetry(fvals, spec.even)
    fold = _fold(geom, symmetry)
    # later iterates stay exactly symmetric: every step is E x
    uvec = _project(fold, u0.values.ravel())

    def residual(vec):
        res, parts = _residual_u_vec(geom, fvals, p, q, vec)
        return res, parts, 0.0

    def rescale(vec, res, parts):
        # the scale dependence of the residual is known in closed form, so
        # the dilation factor is set by an exact 1-D solve; for p near q this
        # direction is a near-null Newton mode that damping alone crawls along
        lam = _rescale_dilation(p, q, res, parts)
        if abs(lam - 1.0) > 1e-14:
            dres, dparts = _residual_u_vec(geom, fvals, p, q, lam * vec)
            # accept on the scale-normalized sup so a collapse-ward rescale
            # (small absolute residual, O(1) relative defect) is never taken
            if _rel_sup(dres, dparts) < _rel_sup(res, parts):
                return lam * vec, dres, dparts
        return vec, res, parts

    def direction(vec, res, parts, _pin):
        A = _jacobian(geom, fvals, p, q, vec, parts, symmetry)
        return _newton_direction(A, res, fold)

    trace = NewtonTrace(s=s, iterations=0)
    uvec, res_sup, noise = _damped_newton(geom, uvec, residual, direction, cfg, trace,
                                          rescale, trial)
    return _finalize(geom, uvec, [trace], trace.converged, s, res_sup,
                     8.0 * float(np.max(noise)))


def continuation_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Homotopy continuation from the exact s = 0 problem to the target at s = 1.

    The step length follows the Newton contraction of the last accepted step,
    and each step starts from the secant predictor (see the module docstring).
    """
    if cfg is None:
        cfg = SolverConfig()
    if spec.p == spec.q:
        raise ApplicabilityError("p == q is routed through pq_limit_solve")
    uvec = np.ones(geom.size)
    last = newton_solve(spec, geom, 0.0, ScalarField(geom, uvec.reshape(geom.shape)), cfg)
    traces = list(last.newton_trace)
    if not last.converged:
        return _finalize(geom, uvec, traces, False, 0.0, math.inf, 0.0)
    s, ds = 0.0, cfg.ds_init
    prev = None  # (u_(k-1), s_k - s_(k-1)) for the secant predictor
    while s < 1.0:
        s_next = min(1.0, s + ds)
        u = last.u.values.ravel()
        start = u
        if prev is not None:
            pred = u + (s_next - s) / prev[1] * (u - prev[0])
            if np.all(pred > 0.0) and _lambda_min_u(geom, pred) >= cfg.convexity_floor:
                start = pred
        step = newton_solve(spec, geom, s_next, ScalarField(geom, start.reshape(geom.shape)),
                            cfg, trial=True)
        traces.extend(step.newton_trace)
        if step.converged:
            theta = step.newton_trace[0].contraction
            factor = math.sqrt(THETA_BAR / theta) if theta > 0.0 else 2.0
            prev, s, last = (u, s_next - s), s_next, step
            ds *= min(2.0, max(0.5, factor))
        else:
            ds *= 0.5
            if ds < cfg.ds_min:
                return _finalize(geom, u, traces, False, s, math.inf, last.residual_floor)
    return _finalize(geom, last.u.values.ravel(), traces, True, 1.0,
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


def _bordered_newton(geom: CapGeometry, spec: ProblemSpec, eps: float, x,
                     anchor: int, cfg: SolverConfig, trace: NewtonTrace):
    """Newton on x = (u_bar, log C) for det b = C f h^(p+eps-1) w^((3-p)/2).

    The border row pins h_bar = ell u_bar to 1 at the anchor cell, which
    removes the dilation direction that makes the plain p = q Jacobian
    singular.  Writing h = m h_bar turns the exponent-(p+eps) problem into
    this one with C = m^eps, so the same system serves every eps >= 0.  The
    folded Jacobian S J E of :func:`newton_solve` is bordered by S (-rhs) and
    the pin row times E; x must already have the data's symmetry.
    """
    N, p = geom.size, spec.p
    ell_a = u_system(geom)["ell"][anchor]
    symmetry = _symmetry(spec.f.values, spec.even)
    S, E = _fold(geom, symmetry)
    row = sp.csr_matrix(([ell_a], ([0], [anchor])), shape=(1, N)) @ E

    def residual(x):
        fC = spec.f.values * math.exp(x[N])
        res, parts = _residual_u_vec(geom, fC, p + eps, p, x[:N])
        return res, parts, float(ell_a * x[anchor] - 1.0)

    def direction(x, res, parts, pin):
        J = _jacobian(geom, spec.f.values * math.exp(x[N]), p + eps, p, x[:N], parts,
                      symmetry)
        col = sp.csc_matrix(-(S @ parts[7])[:, None])  # d(res)/d(log C) = -rhs
        A = sp.bmat([[J, col], [row, None]], format="csc")
        d = _lu_solve(A, -np.append(S @ res, pin), "Newton linear system")
        return np.append(E @ d[:-1], d[-1])

    return _damped_newton(geom, x, residual, direction, cfg, trace)


@dataclass
class PqLimitResult:
    h_bar: ScalarField
    C_star: float
    eps_schedule: list
    C_eps: list
    residual_sup: float
    diffs: list
    solution: SolveResult  # h = h_bar, with the residual and floor of the eps = 0 solve


def pq_limit_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
    eps_schedule=(0.1, 0.05, 0.025, 0.0125),
) -> PqLimitResult:
    """Dilation-normalized solution of the degenerate case p = q.

    Solves the approximating problem with exponent p + eps_0 by continuation,
    then continues the bordered (u_bar, log C) system of
    :func:`_bordered_newton` in eps along the rest of the schedule and on to
    eps = 0, the p = q problem itself, warm-starting each solve from the last.
    C*_eps = (min h_eps)^eps is recorded at every eps > 0; h_bar equals 1 at
    the cell where h_eps_0 is smallest.
    """
    if cfg is None:
        cfg = SolverConfig()
    if spec.p != spec.q:
        raise ApplicabilityError("pq_limit_solve applies only at p == q")
    eps_schedule = list(eps_schedule)
    finite = all(isinstance(e, Real) and 0 < e < math.inf for e in eps_schedule)
    if not (eps_schedule and finite
            and all(b < a for a, b in zip(eps_schedule, eps_schedule[1:]))):
        raise ConfigError("eps schedule must be non-empty, finite, positive and strictly "
                          f"decreasing, got {eps_schedule!r}")

    e0 = eps_schedule[0]
    first = continuation_solve(
        ProblemSpec(p=spec.p + e0, q=spec.q, theta=spec.theta, f=spec.f, even=spec.even),
        geom, cfg,
    )
    if not first.converged:
        raise ApplicabilityError(f"epsilon = {e0} sub-problem did not converge")
    hvec = first.h.values.ravel()
    anchor = int(np.argmin(hvec))
    m = float(hvec[anchor])
    C_eps = [m**e0]
    x = np.append(first.u.values.ravel() / m, e0 * math.log(m))
    ell = u_system(geom)["ell"]
    traces = list(first.newton_trace)
    for e in eps_schedule[1:] + [0.0]:
        traces.append(NewtonTrace(s=1.0, iterations=0))
        x, res_sup, noise = _bordered_newton(geom, spec, e, x, anchor, cfg, traces[-1])
        if not traces[-1].converged:
            raise ApplicabilityError(f"epsilon = {e} bordered Newton did not converge")
        if e > 0.0:
            # (min h_eps)^eps = C (min h_bar)^eps, since h_eps = C^(1/eps) h_bar
            C_eps.append(math.exp(x[-1]) * float(np.min(ell * x[:-1])) ** e)

    solution = _finalize(geom, x[:-1], traces, True, 1.0, res_sup,
                         8.0 * float(np.max(noise)))
    return PqLimitResult(
        h_bar=solution.h,
        C_star=math.exp(x[-1]),
        eps_schedule=eps_schedule,
        C_eps=C_eps,
        residual_sup=res_sup,
        diffs=[abs(b - a) for a, b in zip(C_eps[:-1], C_eps[1:])],
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
