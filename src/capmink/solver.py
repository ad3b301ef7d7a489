"""Newton/homotopy solver for the capillary dual Minkowski equation.

The equation ``det(hess h + h I) = f h^(p-1) (h^2 + |grad h|^2)^((3-q)/2)``
with the Robin condition ``h_mu = cot(theta) h`` is solved in the quotient
variable ``u = h / ell``, which turns the boundary condition into a
homogeneous Neumann one.  Writing ``h = m h_bar`` with ``mean(u_bar) = 1``
and ``C = m^(p-q)`` turns it into

    det b_bar = C f h_bar^(p-1) w_bar^((3-q)/2),   w_bar = h_bar^2 + |grad h_bar|^2,

whose fields are O(1) whatever the scale m of the solution.  Every (p, q),
``p = q`` included, is solved by one damped Newton on ``x = (u_bar, log C)``:
the dilation direction that makes the plain Jacobian singular at ``p = q``
(and nearly so for p near q) is removed by the border row of the pin, and
``h = C^(1/(p-q)) ell u_bar`` for ``p != q``, ``h = ell u_bar`` for ``p = q``.
The homotopy

    f_s = (1 - s) f_0 + s f / kappa,   f_0 = ell^(1-p) (ell^2 + |grad ell|^2)^((q-3)/2),

holds the exponents fixed and blends only the density; it starts from the
exactly solvable data at ``s = 0`` (solution ``u_bar = 1``, ``C = 1``) and
continues to the target problem at ``s = 1``.  ``kappa`` is the geometric
mean of ``f / f_0``: the equation sees C and f only as the product ``C f``,
so ``f / kappa`` is the target with ``log C`` shifted by ``log kappa``, and
the path does not depend on the scale of f.  Newton steps use the exact
sparse Jacobian of the discrete residual: the determinant is linearized as
``cof(b) : db`` and the right-hand side analytically in ``(u, grad u)``.
The step is solved on the fields of the data's symmetry only: Nphi unknowns
for psi-independent data, the half domain for even data, the full grid
otherwise.  The folded Jacobian is assembled straight on a fixed sparsity
pattern cached on the geometry (:func:`capmink.operators._folded_terms`),
and every factorization uses SuperLU with the ``MMD_AT_PLUS_A``
fill-reducing column ordering.  The border is never factored: the bordered
step is found by block elimination on the factor of the folded Jacobian,
plus one refinement step with the same factor (Govaerts-Pryce, *BIT* 30,
1990), which keeps it accurate as that Jacobian turns singular at ``p = q``.
Only the starting field is projected onto the symmetric fields; each later
iterate stays there exactly.

The continuation is steered by the observed Newton contraction
``Theta_k = |dx_k|_inf / |dx_(k-1)|_inf`` of successive directions
(Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch. 5).  After
the exact ``s = 0`` solve it tries ``ds = ds_init`` (1.0: the whole path in
one step).  A trial step is given up as soon as ``Theta > 1/2`` or its line
search wants a step below 1/4, and is retried at half the length; after an
accepted step ``ds`` is scaled by ``sqrt(Theta_bar / Theta_max)``, with
``Theta_bar = 1/4``, clamped to [1/2, 2].  Each step starts from the secant
predictor ``x_k + (ds / ds_prev)(x_k - x_(k-1))`` of the normalized unknowns
(Allgower-Georg, *Introduction to Numerical Continuation Methods*, 1990)
when its field is positive and convex, else from ``x_k``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
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
    # log C of the normalized equation; h = exp(log_C / (p - q)) ell u_bar if p != q
    log_C: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "s_reached": self.s_reached,
            "residual_sup": self.residual_sup,
            "residual_floor": self.residual_floor,
            "log_C": self.log_C,
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


def _lu_factor(A):
    """SuperLU factor of A under a fill-reducing ordering."""
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ApplicabilityError("Newton linear system is singular") from exc


def _bordered_direction(A, res, rhs, pin, fold) -> np.ndarray:
    """Newton direction ``(E d, dl)`` of the normalized equation.

    Solves ``[[A, -S rhs], [r, 0]] (d, dl) = -(S res, pin)``, where A = S J E is
    the folded Jacobian, ``-rhs`` the derivative of the residual in log C and
    ``r`` the folded gradient of the pin ``mean(u_bar) - 1``.  Block elimination
    needs only the factor of A: it solves for ``-S res`` and ``-S rhs`` at once,
    and one refinement step on the bordered residual reuses the factor.
    """
    S, E = fold
    row = np.asarray(E.sum(axis=0)).ravel() / E.shape[0]
    col = -(S @ rhs)
    top = -(S @ res)
    lu = _lu_factor(A)
    y, z = lu.solve(np.column_stack([top, col])).T

    def eliminate(y, bottom):
        dl = (row @ y - bottom) / (row @ z)
        return y - dl * z, dl

    d, dl = eliminate(y, -pin)
    dd, ddl = eliminate(lu.solve(top - A @ d - dl * col), -pin - row @ d)
    dx = np.append(E @ (d + dd), dl + ddl)
    if not np.all(np.isfinite(dx)):
        raise ApplicabilityError("Newton linear system is singular")
    return dx


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

    The scale max(|det b|, |rhs|) is O(1) on the normalized equation, so the
    test is the plain sup-norm criterion up to a per-cell factor.  A
    non-finite residual or floor never passes.
    """
    if not (np.all(np.isfinite(res)) and np.all(np.isfinite(noise))):
        return False
    rhs = parts[7]
    det = res + rhs
    scale = np.maximum(np.abs(det), np.abs(rhs))
    return bool(np.all(np.abs(res) <= tol * scale + 8.0 * noise))


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


def _finalize(geom: CapGeometry, x, p, q, trace, converged, s_reached,
              residual_sup, residual_floor) -> SolveResult:
    """SolveResult of the normalized iterate x = (u_bar, log C).

    h = m ell u_bar with m = C^(1/(p-q)), and m = 1 for p = q.  The residual
    figures are the solver's own, those of the normalized equation; b and the
    Robin defect are evaluated on h_bar = ell u_bar and scaled by m.
    """
    log_C = float(x[-1])
    log_m = log_C / (p - q) if p != q else 0.0
    ell = ell_field(geom).values
    u_bar = x[:-1].reshape(geom.shape)
    h_bar = ScalarField(geom, ell * u_bar)
    with np.errstate(over="ignore"):
        m = float(np.exp(log_m))
        u = m * u_bar
        h = ell * u
    # an overflowed h is not finite; an underflowed one has lost its digits or is 0
    if not np.all(np.isfinite(h) & (h >= np.finfo(float).tiny)):
        raise DomainError(f"h = m h_bar is not representable in double precision "
                          f"(log10 m = {log_m / math.log(10.0):.6g})")
    u, h = ScalarField(geom, u), ScalarField(geom, h)
    cd = curvature_tensor(geom, h_bar)
    return SolveResult(
        h=h,
        u=u,
        residual_sup=residual_sup,
        robin_defect_sup=m * float(np.max(np.abs(robin_residual(geom, h_bar)))),
        b_eigen_range=(m * cd.lambda_min, m * cd.lambda_max),
        newton_trace=trace,
        converged=converged,
        s_reached=s_reached,
        residual_floor=residual_floor,
        log_C=log_C,
    )


# Continuation step control from the observed Newton contraction Theta
THETA_BAR = 0.25        # contraction the next step length aims at
THETA_REJECT = 0.5      # a trial step is given up above this contraction
TRIAL_MIN_STEP = 0.25   # ... or when its line search wants a shorter step


def _damped_newton(geom: CapGeometry, x, residual, direction, cfg: SolverConfig,
                   trace: NewtonTrace, trial: bool = False):
    """Damped Newton with a sufficient-decrease line search; fills ``trace``.

    ``residual(x)`` gives ``(res, parts, pin)``, where pin is the border
    residual; ``direction`` takes x and the same three.  The u field (the
    first ``geom.size`` entries) must stay positive and convex; convexity is
    read off the residual's own frame.  A step is halved until that holds and
    the sup falls by ``1 - step/4`` or the floor test holds.  The largest
    contraction of successive directions goes to ``trace.contraction``; with
    ``trial`` the solve is given up once it exceeds THETA_REJECT or the step
    falls below TRIAL_MIN_STEP, instead of below ``cfg.min_step``.  Returns
    the last iterate, its sup and its floor.
    """
    tol = cfg.newton_tol
    min_step = TRIAL_MIN_STEP if trial else cfg.min_step

    def evaluate(x):
        """(x, sup, done, data) of a positive candidate, or None if not convex."""
        res, parts, pin = residual(x)
        if eigen_range(*parts[:3])[0] < cfg.convexity_floor:
            return None
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
    log_C: float | None = None,
) -> SolveResult:
    """Damped Newton on the normalized equation at homotopy parameter s.

    The start is ``u_bar = u0 / mean(u0)`` and ``log C = log_C``, by default
    ``(p - q) log mean(u0)``, which makes ``h = m ell u_bar`` equal ``ell u0``
    for ``p != q``; at ``p = q`` log C cannot be read off u0.  ``trial=True``
    marks a continuation step that the caller retries shorter: it is given up
    early on a poor contraction (see :func:`_damped_newton`).
    """
    if cfg is None:
        cfg = SolverConfig()
    if np.any(u0.values <= 0.0):
        raise DomainError("u0 must be positive")
    fvals, p, q, N = _density(spec, s), spec.p, spec.q, geom.size
    symmetry = _symmetry(fvals, spec.even)
    fold = _fold(geom, symmetry)
    # later iterates stay exactly symmetric: every step is E x
    uvec = _project(fold, u0.values.ravel())
    mean = float(np.mean(uvec))
    if log_C is None:
        log_C = (p - q) * math.log(mean)
    x = np.append(uvec / mean, log_C)

    def residual(x):
        res, parts = _residual_u_vec(geom, fvals * np.exp(x[N]), p, q, x[:N])
        return res, parts, float(np.mean(x[:N]) - 1.0)

    def direction(x, res, parts, pin):
        A = _jacobian(geom, fvals * np.exp(x[N]), p, q, x[:N], parts, symmetry)
        return _bordered_direction(A, res, parts[7], pin, fold)

    trace = NewtonTrace(s=s, iterations=0)
    x, res_sup, noise = _damped_newton(geom, x, residual, direction, cfg, trace, trial)
    return _finalize(geom, x, p, q, [trace], trace.converged, s, res_sup,
                     8.0 * float(np.max(noise)))


def continuation_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Homotopy continuation from the exact s = 0 problem to the target at s = 1.

    The step length follows the Newton contraction of the last accepted step,
    and each step starts from the secant predictor (see the module docstring).
    For p = q the result is the normalized pair: h = ell u_bar and C = exp(log_C).
    """
    if cfg is None:
        cfg = SolverConfig()
    # the normalized equation sees C and f only as the product C f, so the path
    # runs to f / kappa, kappa the geometric mean of f / f_0, and does not depend
    # on the scale of f; the step to s = 1 solves for f itself, from log C - log kappa
    log_kappa = float(np.mean(np.log(spec.f.values / _base_density(geom, spec.p, spec.q))))
    scaled = replace(spec, f=ScalarField(geom, spec.f.values / math.exp(log_kappa)))
    last = newton_solve(scaled, geom, 0.0, ScalarField(geom, np.ones(geom.shape)), cfg)
    traces = list(last.newton_trace)
    if not last.converged:
        return replace(last, residual_sup=math.inf)
    s, ds = 0.0, cfg.ds_init
    prev = None  # (x_(k-1), s_k - s_(k-1)) for the secant predictor
    while s < 1.0:
        s_next = min(1.0, s + ds)
        u = last.u.values.ravel()
        x = np.append(u / np.mean(u), last.log_C)  # (u_bar, log C)
        start = x
        if prev is not None:
            pred = x + (s_next - s) / prev[1] * (x - prev[0])
            u_pred = pred[:-1]
            if np.all(u_pred > 0.0) and _lambda_min_u(geom, u_pred) >= cfg.convexity_floor:
                start = pred
        target = s_next == 1.0
        step = newton_solve(spec if target else scaled, geom, s_next,
                            ScalarField(geom, start[:-1].reshape(geom.shape)), cfg, trial=True,
                            log_C=start[-1] - log_kappa if target else start[-1])
        traces.extend(step.newton_trace)
        if step.converged:
            theta = step.newton_trace[0].contraction
            factor = math.sqrt(THETA_BAR / theta) if theta > 0.0 else 2.0
            prev, s, last = (x, s_next - s), s_next, step
            ds *= min(2.0, max(0.5, factor))
        else:
            ds *= 0.5
            if ds < cfg.ds_min:
                return replace(last, newton_trace=traces, converged=False,
                               residual_sup=math.inf)
    return replace(last, newton_trace=traces)


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


@dataclass
class PqLimitResult:
    h_bar: ScalarField
    C_star: float
    eps_schedule: list
    C_eps: list
    residual_sup: float
    diffs: list
    solution: SolveResult  # h = h_bar, with the residual and floor of the p = q solve


def pq_limit_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
    eps_schedule=(0.1, 0.05, 0.025, 0.0125),
) -> PqLimitResult:
    """Dilation-normalized solution (h_bar, C*) of the degenerate case p = q.

    :func:`continuation_solve` solves the p = q problem itself; h_bar is its
    solution scaled to min h_bar = 1 (at p = q the residual scales by the
    square of that factor, and so do the reported residual and floor).  The
    eps schedule only records C*_eps = (min h_eps)^eps of the problems with
    exponent p + eps, each one Newton solve warm-started from the p = q
    solution.  They are solved for the density C* f, from log C = 0, so their
    solutions h' have a moderate scale for every eps; since f -> c f maps h
    to c^(-1/eps) h, (min h_eps)^eps = C* (min h')^eps.
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

    limit = continuation_solve(spec, geom, cfg)
    if not limit.converged:
        raise ApplicabilityError("the p = q problem did not converge")
    traces = list(limit.newton_trace)
    C_star = math.exp(limit.log_C)
    f_star = ScalarField(geom, C_star * spec.f.values)
    C_eps = []
    for e in eps_schedule:
        sub = ProblemSpec(p=spec.p + e, q=spec.q, theta=spec.theta, f=f_star, even=spec.even)
        r = newton_solve(sub, geom, 1.0, limit.u, cfg)
        traces.extend(r.newton_trace)
        if not r.converged:
            raise ApplicabilityError(f"epsilon = {e} problem did not converge")
        C_eps.append(C_star * float(np.min(r.h.values)) ** e)

    lam = 1.0 / float(np.min(limit.h.values))
    x = np.append(lam * limit.u.values.ravel(), limit.log_C)  # u = u_bar at p = q
    solution = _finalize(geom, x, spec.p, spec.q, traces, True, 1.0,
                         lam**2 * limit.residual_sup, lam**2 * limit.residual_floor)
    return PqLimitResult(
        h_bar=solution.h,
        C_star=C_star,
        eps_schedule=eps_schedule,
        C_eps=C_eps,
        residual_sup=solution.residual_sup,
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
