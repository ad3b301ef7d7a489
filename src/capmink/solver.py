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

    f_s = f_0^(1-s) f^s,   f_0 = ell^(1-p) (ell^2 + |grad ell|^2)^((q-3)/2),

holds the exponents fixed and blends the density log-linearly (the equation
sees f only through ``log f``) from the exactly solvable data at ``s = 0``
(``u_bar = 1``, ``C = 1``) to the target at ``s = 1``, each end bit for bit.
f_s is ``kappa^s`` times a density whose log has the mean of ``log f_0``
(kappa the geometric mean of ``f / f_0``), and the equation sees C and f
only as ``C f``: log C drifts by ``-log kappa`` per unit s, and ``f -> c f``
only shifts it by ``-s log c``.  Newton steps use the exact sparse Jacobian
of the discrete residual: the determinant is linearized as ``cof(b) : db``
and the right-hand side analytically in ``(u, grad u)``.
Each solve runs on the psi ring of the density's own symmetry, flagged or not
(:func:`capmink.grid._ring`, :func:`_symmetry`): one cell per phi row for
psi-independent data, Npsi/2 for even data, all Npsi otherwise.  A
continuation picks the ring of its target density once and runs every step
on it, s = 0 included (f_0 is psi-independent, so each f_s has the target's
symmetry); it tiles the solution back onto the grid once, at the end.  The
residual, the convexity checks, the rounding floor and the Jacobian (on a
fixed sparsity pattern, :func:`capmink.operators._jacobian_pattern`) are all
evaluated on the ring, from operators that :mod:`capmink.operators` reads
off the ring's own stencil table; the solver never builds the grid's.
Each direction of psi-dependent data is an inexact Newton step
(Eisenstat-Walker, *SIAM J. Sci. Comput.* 17, 1996): GMRES on the bordered
system with the current Jacobian, right-preconditioned by block elimination
on the mode factor, to the forcing term
``eta_k = min(ETA_MAX, 0.9 (|F_k| / |F_(k-1)|)^2)`` (ETA_MAX for the first
direction).  The mode factor is that of the psi-average: with its
coefficients averaged over each phi row, the Jacobian is circulant along the
psi ring, so a real FFT along psi splits it into one Nphi system per
Fourier mode.  Each is tridiagonal in phi once one step of partial pivoting
removes the Neumann ghost's entry (N-1, N-3), and all modes are factored as
one block-diagonal tridiagonal by LAPACK's ``zgttrf``.  If GMRES misses
eta_k within two restart cycles of GMRES_RESTART iterations, its iterate is
still the step when its true bordered residual is within ETA_MAX: eta_k can
ask for more than the matvec delivers in double precision, or than the floor
test needs (oversolving; Kelley, *Iterative Methods for Linear and Nonlinear
Equations*, 1995, sec. 6.3).  Otherwise GMRES runs on from that iterate
toward ETA_MAX, up to GMRES_MAX_CYCLES cycles in all: strongly
psi-dependent data, which the psi-average fits poorly, can need them.  A
miss after those gives no direction, and the Newton solve stops there
unconverged, as when its line search runs out of halvings.  GMRES ends
each restart cycle with a matvec at the iterate it returns, so the ETA_MAX
check, the step and the first matvec of a run on read that matvec instead
of preconditioning the iterate again.  On the
one-cell ring of psi-independent data the psi-average is the Jacobian
itself, so every direction takes the exact step: a SuperLU factor
(``MMD_AT_PLUS_A`` column ordering) of its Nphi unknowns, block elimination
on it plus one refinement step (Govaerts-Pryce, *BIT* 30, 1990), which
keeps the step accurate as the Jacobian turns singular at ``p = q``.  The
border is never factored.  Convergence is decided by the residual floor
test alone.

The continuation is steered by the observed Newton contraction
``Theta_k = |dx_k|_inf / |dx_(k-1)|_inf`` of successive directions
(Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch. 5).  After
the exact ``s = 0`` solve it tries ``ds = DS_INIT`` (1.0: the whole path in
one step).  A trial step is given up as soon as ``Theta > 1/2`` or its line
search wants a step below 1/4, and is retried at half the length; after an
accepted step ``ds`` is scaled by ``sqrt(Theta_bar / Theta_max)``, with
``Theta_bar = 1/4``, clamped to [1/2, 2].  Each step starts from the secant
predictor ``x_k + (ds / ds_prev)(x_k - x_(k-1))`` of the normalized unknowns
(Allgower-Georg, *Introduction to Numerical Continuation Methods*, 1990)
when its field is positive and convex, else from ``x_k`` with log C drifted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import (ApplicabilityError, CapminkError, ConfigError, ConvexityError,
                     DomainError)
from .grid import (
    EVEN_TOL,
    CapGeometry,
    ScalarField,
    _check_grid,
    _psi_period,
    _ring,
    _u_frame,
    bump_profile,
    ell_field,
    eigen_range,
    evenness_defect,
    robin_residual,
)
from .operators import JACOBIAN_TERMS, _floor_system, _jacobian_pattern, _mode_terms


@dataclass
class ProblemSpec:
    """Target data (p, q, theta, f) of the capillary Minkowski problem.  ``even`` admits
    1 < p < q and refuses f with an evenness defect above EVEN_TOL; it picks no ring."""

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


MIN_STEP = 2.0**-20      # a line search gives up below this step length
CONVEXITY_FLOOR = 1e-8   # smallest eigenvalue of b an iterate may have
DS_INIT = 1.0            # first continuation step after s = 0: the whole path
DS_MIN = 1e-4            # the continuation gives up below this step length


@dataclass
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 50

    def __post_init__(self):
        for name, kind, what in (("newton_tol", Real, "a number"),
                                 ("max_newton", Integral, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
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
    # exact SuperLU factors of one-cell ring Jacobians, tridiagonal LAPACK
    # factors of the psi-average in Fourier modes on larger rings (one zgttrf
    # for all modes, after the ghost's pivot step), and GMRES iterations
    factorizations: int = 0
    mode_factorizations: int = 0
    krylov_iterations: int = 0


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
        """Every field but h and u, which solution.csv carries; traces as dicts."""
        doc = asdict(replace(self, h=None, u=None))
        del doc["h"], doc["u"]
        return doc


# ---------------------------------------------------------------------------
# residuals


def _density(f0, f, s: float) -> np.ndarray:
    """Homotopy density ``f_s = f0^(1 - s) f^s``, f0 and f bit for bit at s = 0 and 1.

    The exponents are held at the target (p, q) along the whole path; the
    density is blended log-linearly from f0 (:func:`_base_density`), which
    makes h = ell the exact solution at s = 0 for every q.  (Moving the
    exponent q_s = 3 + s(q-3) instead crosses the scale-degenerate manifold
    q_s = p whenever q < p < 3, where the intermediate problem is generically
    unsolvable; at q = 3 the two paths coincide.)
    """
    return f0 ** (1.0 - s) * f**s


def _equation(fvals, p, q, frame, h):
    """(det b, rhs, w) of det b = f h^(p-1) w^((3-q)/2), w = h^2 + |grad h|^2."""
    b11, b12, b22, g1, g2 = frame
    w = h**2 + g1**2 + g2**2
    return b11 * b22 - b12**2, fvals * h ** (p - 1.0) * w ** ((3.0 - q) / 2.0), w


def _base_density(geom: CapGeometry, p: float, q: float) -> np.ndarray:
    """Density for which u = 1 solves the discrete equation exactly.

    This is :func:`manufactured_f` of h = ell (whose quotient ell / ell is
    exactly 1), so the homotopy base point has an exactly representable
    solution; it equals the continuum
    ell^(1-p) (ell^2 + |grad ell|^2)^((q-3)/2) up to O(grid^2).  ell does not
    depend on psi, so it is evaluated on the one-cell ring and tiled: the
    ring's frame is the grid's, bit for bit.
    """
    key = ("base_density", p, q)
    if key not in geom._cache:
        ring = _ring(geom, 1)
        try:
            f0 = manufactured_f(ring, ell_field(ring), p, q).values
        except CapminkError as exc:
            raise ApplicabilityError(f"the base density f0 = manufactured_f(ell) cannot be "
                                     f"formed at theta = {geom.theta}, p = {p}, q = {q}: "
                                     f"{exc}") from exc
        geom._cache[key] = np.repeat(f0, geom.Npsi, axis=1)
    return geom._cache[key]


def _residual_u_vec(geom: CapGeometry, fvals, p, q, uvec):
    """Residual of the quotient formulation on the flattened u-vector."""
    *frame, hvec = _u_frame(geom, uvec)
    det, rhs, w = _equation(fvals.ravel(), p, q, frame, hvec)
    return det - rhs, (*frame, hvec, w, rhs)


def _residual_field(geom: CapGeometry, fvals, p, q, u: np.ndarray) -> ScalarField:
    """The residual of the quotient formulation at the grid values u > 0."""
    if np.any(u <= 0.0):
        raise DomainError("u = h / ell must be positive")
    res, _ = _residual_u_vec(geom, fvals, p, q, u.ravel())
    return ScalarField(geom, res.reshape(geom.shape))


def residual_u(spec: ProblemSpec, geom: CapGeometry, u: ScalarField) -> ScalarField:
    """Residual in u = h/ell with the Neumann ghost at phi = theta."""
    _check_grid(geom, spec.f, u)
    return _residual_field(geom, spec.f.values, spec.p, spec.q, u.values)


def residual_h(spec: ProblemSpec, geom: CapGeometry, h: ScalarField) -> ScalarField:
    """det(b) - f h^(p-1) (h^2 + |grad h|^2)^((3-q)/2), the solver's residual.

    It is evaluated on u = h / ell, so it equals :func:`residual_u` of that u
    up to the rounding of the quotient: the Neumann ghost of u imposes the
    Robin condition of h.
    """
    _check_grid(geom, spec.f, h)
    return _residual_field(geom, spec.f.values, spec.p, spec.q,
                           h.values / ell_field(geom).values)


def _jacobian_coeffs(geom: CapGeometry, fvals, p, q, parts) -> np.ndarray:
    """Coefficients C of the Jacobian on the ring geom at the frame ``parts``.

    Row r of C holds, at the r-th cell, the weight of each
    :data:`JACOBIAN_TERMS` operator in the Jacobian of the quotient residual
    and last its diagonal term, as :func:`capmink.operators._jacobian_pattern`
    reads them.
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
    return np.stack([weight[k] for k in JACOBIAN_TERMS]
                    + [-c_h * ell_field(geom).values.ravel()], axis=1)


def _assemble(geom: CapGeometry, C) -> sp.csc_matrix:
    """The Jacobian on the ring geom of the coefficients C."""
    indptr, indices, T = _jacobian_pattern(geom)
    n = C.shape[0]
    return sp.csc_matrix((T @ C.ravel(), indices, indptr), shape=(n, n))


def _lu_factor(A):
    """SuperLU factor of A under a fill-reducing ordering."""
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ApplicabilityError("Newton linear system is singular") from exc


class _ModeFactor:
    """Solver of the psi-average of a ring Jacobian, all psi-Fourier modes in one factor.

    Averaging the coefficients C over each phi row makes the Jacobian on a
    ring of m > 1 cells circulant along psi (see
    :func:`capmink.operators._mode_terms`), so a real FFT along psi splits it
    into one Nphi x Nphi system per mode k = 0 .. m // 2.  Each is
    tridiagonal in phi but for the Neumann ghost's entry (N-1, N-3), and rows
    N-2 and N-1 have entries only in columns N-3 .. N-1.  One step of partial
    pivoting on column N-3 removes that entry: the two rows are swapped where
    the ghost's entry is the larger (``swap``), and row N-1 less ``mu`` times
    row N-2 (mu = 0 where both entries are 0).  The m // 2 + 1 tridiagonal
    systems are stacked into one block-diagonal tridiagonal, zero at the
    block seams, and factored by one LAPACK ``zgttrf``.  ``solve`` is rfft,
    the same swap and row operation on the right-hand side, one ``zgttrs``,
    irfft.
    """

    def __init__(self, geom: CapGeometry, C):
        rows, cols, W, omega = _mode_terms(geom)
        self.shape = Nphi, m = geom.shape
        # the row means of C; einsum sums along the middle axis faster than mean
        cbar = np.einsum("ijt->it", C.reshape(Nphi, m, -1)) / m
        # diagonals[i - i' + 1, k, i]: entry (i, i') of mode k, for i - i' = -1 .. 2
        diagonals = np.zeros((4, omega.shape[1], Nphi), complex)
        diagonals[rows - cols + 1, :, rows] = np.einsum("pst,pt->ps", W, cbar[rows]) @ omega
        up, mid, low, ghost = diagonals
        # rows N-2 and N-1 of each mode over columns N-3 .. N-1
        top = np.stack([low[:, -2], mid[:, -2], up[:, -2]], axis=1)
        bottom = np.stack([ghost[:, -1], low[:, -1], mid[:, -1]], axis=1)
        self.swap = np.abs(bottom[:, 0]) > np.abs(top[:, 0])
        top, bottom = (np.where(self.swap[:, None], bottom, top),
                       np.where(self.swap[:, None], top, bottom))
        self.mu = np.divide(bottom[:, 0], top[:, 0], out=np.zeros_like(top[:, 0]),
                            where=top[:, 0] != 0.0)
        low[:, -2], mid[:, -2], up[:, -2] = top.T
        low[:, -1], mid[:, -1] = (bottom[:, 1:] - self.mu[:, None] * top[:, 1:]).T
        # row 0 of a mode has no subdiagonal entry and row N-1 no superdiagonal
        # one, so the stacked modes are uncoupled at the seams
        *self.factor, info = lapack.zgttrf(low.ravel()[1:], mid.ravel(), up.ravel()[:-1],
                                           overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:  # an exactly singular mode
            raise ApplicabilityError("psi-averaged Newton system is singular")

    def solve(self, v):
        Nphi, m = self.shape
        # one row of Nphi values per mode, in the order of the stacked system
        modes = np.ascontiguousarray(np.fft.rfft(v.reshape(Nphi, m), axis=1).T)
        top = np.where(self.swap, modes[:, -1], modes[:, -2])
        modes[:, -1] = np.where(self.swap, modes[:, -2], modes[:, -1]) - self.mu * top
        modes[:, -2] = top
        x = lapack.zgttrs(*self.factor, modes.reshape(-1, 1), overwrite_b=1)[0]
        return np.fft.irfft(x.reshape(-1, Nphi).T, n=m, axis=1).ravel()


# Inexact Newton (Eisenstat-Walker): GMRES to a forcing term on psi-dependent data
ETA_MAX = 1e-3         # largest forcing term, and largest miss a GMRES step may keep
GMRES_RESTART = 10     # length of a GMRES restart cycle; eta_k gets two cycles
GMRES_MAX_CYCLES = 10  # cycles in all that a direction gets to reach ETA_MAX


def _block_elimination(lu, row, col):
    """Solver of ``[[A0, col], [row, 0]] (d, dl) = (t, b)`` on the factor lu of A0.

    Block elimination needs only the factor: with ``z = A0^-1 col``,
    ``dl = (row A0^-1 t - b) / (row z)`` and ``d = A0^-1 t - dl z``.
    """
    z = lu.solve(col)
    rz = row @ z

    def solve(t, b):
        y = lu.solve(t)
        dl = (row @ y - b) / rz
        return y - dl * z, dl

    return solve


def _bordered_directions(geom: CapGeometry, trace: NewtonTrace):
    """Newton directions ``(d, dl)`` of one Newton solve of the normalized equation.

    Each call ``direction(A, C, res, rhs, pin)`` solves
    ``[[A, -rhs], [r, 0]] (d, dl) = -(res, pin)`` on the ring geom, where A is
    the Jacobian of the coefficients C, ``-rhs`` the derivative of the
    residual in log C and ``r`` the gradient of the pin ``mean(u_bar) - 1``.
    On a one-cell ring (psi-independent data) A is factored exactly and the
    exact step taken: block elimination plus one refinement step with the
    same factor.  On a ring of m > 1 cells a direction runs GMRES on the
    bordered system, right-preconditioned by block elimination on the mode
    factor of its own C (:class:`_ModeFactor`), to the forcing term
    ``eta_k = min(ETA_MAX, 0.9 (|F_k| / |F_(k-1)|)^2)`` (ETA_MAX for the
    first direction).  An iterate that misses eta_k within two restart cycles
    is still the step if its true bordered residual is within ETA_MAX
    relative; otherwise GMRES runs on from it toward ETA_MAX, up to
    GMRES_MAX_CYCLES cycles in all, and if it misses again the call returns
    None: there is no direction.  The preconditioned iterate, its product and
    its true residual come from GMRES's last matvec, which is at the iterate
    it returns, so each direction makes one mode solve for z and at most one
    per GMRES matvec.
    """
    k = geom.size
    row = np.full(k, 1.0 / k)
    norm = None  # |F| at the last direction

    def direction(A, C, res, rhs, pin):
        nonlocal norm
        col, top, bottom = -rhs, -res, -pin
        if geom.Npsi == 1:
            trace.factorizations += 1
            solve = _block_elimination(_lu_factor(A), row, col)
            d, dl = solve(top, bottom)
            dd, ddl = solve(top - A @ d - dl * col, bottom - row @ d)
            d, dl = d + dd, dl + ddl
        else:
            norm_prev, norm = norm, math.hypot(float(np.linalg.norm(top)), pin)
            eta = ETA_MAX if norm_prev is None else min(ETA_MAX, 0.9 * (norm / norm_prev) ** 2)
            trace.mode_factorizations += 1
            precond = _block_elimination(_ModeFactor(geom, C), row, col)
            last = None  # the last matvec: a copy of its v, its (d, dl), its product

            def bordered(v):  # [[A, col], [row, 0]] applied to the preconditioned v
                nonlocal last
                if last is None or not np.array_equal(v, last[0]):
                    d, dl = precond(v[:k], v[k])
                    last = v.copy(), (d, dl), np.append(A @ d + dl * col, row @ d)
                return last

            # gmres writes into an Arnoldi product, so each matvec returns a fresh one
            op = spla.LinearOperator((k + 1, k + 1), matvec=lambda v: bordered(v)[2].copy(),
                                     dtype=float)
            b = np.append(top, bottom)
            inner, v = [], None
            for rtol, cycles in ((eta, 2), (ETA_MAX, GMRES_MAX_CYCLES - 2)):
                v, info = spla.gmres(op, b, x0=v, rtol=rtol, atol=0.0, restart=GMRES_RESTART,
                                     maxiter=cycles, callback=inner.append,
                                     callback_type="pr_norm")
                kept = (info == 0
                        or np.linalg.norm(bordered(v)[2] - b) <= ETA_MAX * np.linalg.norm(b))
                if kept:
                    break
            trace.krylov_iterations += len(inner)
            if not kept:
                return None
            d, dl = bordered(v)[1]
        dx = np.append(d, dl)
        if not np.all(np.isfinite(dx)):
            raise ApplicabilityError("Newton linear system is singular")
        return dx

    return direction


def _residual_floor(geom: CapGeometry, uvec, parts) -> np.ndarray:
    """Componentwise attainable-accuracy bound for the discrete residual.

    Near the pole the b22 stencil carries coefficients of size
    1/(sin(phi)^2 dpsi^2); a one-ulp change of u moves that cell's residual
    by roughly that factor, so the residual of the best double-precision
    iterate cannot drop below eps * |A| |u| per cell.  The standard |A||x|
    backward-error bound over the b-operators gives that floor.  geom is the
    grid or ring that uvec and parts live on; on a ring, |A| is the full
    grid's (see :func:`capmink.operators._floor_system`).
    """
    aops = _floor_system(geom)
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


def _floor_test(geom: CapGeometry, fvals, p, q, uvec, tol):
    """``(res, parts, noise, passed)``: the residual of uvec on geom, its frame, its
    rounding floor and the verdict of :func:`_within_floor` at tol."""
    res, parts = _residual_u_vec(geom, fvals, p, q, uvec)
    noise = _residual_floor(geom, uvec, parts)
    return res, parts, noise, _within_floor(res, noise, tol, parts)


def is_solution(spec: ProblemSpec, geom: CapGeometry, h: ScalarField,
                cfg: SolverConfig | None = None):
    """``(passed, residual_sup)`` of the solver's own test of u = h / ell at newton_tol.

    It runs on the smallest psi ring under whose shift both the data and u
    are invariant: the larger of the ring of the data's symmetry and the psi
    period of u (:func:`capmink.grid._psi_period`).  The residual, its
    scale and its floor all scale as t^2 under h -> t h, so the test of the
    solver's normalized iterate carries over to h up to rounding.
    """
    if cfg is None:
        cfg = SolverConfig()
    _check_grid(geom, spec.f, h)
    u = h.values / ell_field(geom).values
    if np.any(u <= 0.0):
        raise DomainError("u = h / ell must be positive")
    m = max(_symmetry(spec.f.values), _psi_period(u))
    res, _, _, passed = _floor_test(_ring(geom, m), spec.f.values[:, :m].ravel(),
                                    spec.p, spec.q, u[:, :m].ravel(), cfg.newton_tol)
    return passed, float(np.max(np.abs(res)))


def _symmetry(fvals) -> int:
    """Cells of the psi ring of the data's symmetry, read off the data, not the even
    flag: 1 if psi-independent, else Npsi/2 if even, else Npsi.  Each test allows a
    defect of 1e-13 of the scale, the rounding level: the ring sees only its own
    cells, so data even only to EVEN_TOL takes all Npsi."""
    tol = 1e-13 * np.max(np.abs(fvals))
    if np.max(np.max(fvals, axis=1) - np.min(fvals, axis=1)) <= tol:
        return 1
    half = fvals.shape[1] // 2
    if np.max(np.abs(fvals - np.roll(fvals, half, axis=1))) <= tol:
        return half
    return fvals.shape[1]


def _finalize(geom: CapGeometry, x, b_range, p, q, trace, converged, s_reached,
              residual_sup, residual_floor) -> SolveResult:
    """SolveResult on geom of the normalized iterate x = (u_bar, log C).

    u_bar, on geom or a ring of it, is tiled onto geom, and
    h = m ell u_bar with m = C^(1/(p-q)), and m = 1 for p = q.  The residual
    figures are the solver's own, those of the normalized equation; the Robin
    defect is evaluated on h_bar = ell u_bar and scaled by m.  b_range is the
    (min, max) eigenvalue range of b of h_bar that the convexity check of
    :func:`_newton` read for x, on the ring, and is scaled by m.
    """
    log_C = float(x[-1])
    log_m = log_C / (p - q) if p != q else 0.0
    ell = ell_field(geom).values
    u_bar = x[:-1].reshape(geom.Nphi, -1)
    u_bar = np.tile(u_bar, (1, geom.Npsi // u_bar.shape[1]))
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
    return SolveResult(
        h=h,
        u=u,
        residual_sup=residual_sup,
        robin_defect_sup=m * float(np.max(np.abs(robin_residual(geom, h_bar)))),
        b_eigen_range=(m * b_range[0], m * b_range[1]),
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


def _newton(ring: CapGeometry, fvals, p, q, uvec, log_C, s, cfg: SolverConfig,
            trial: bool = False):
    """Damped Newton on the normalized equation on the psi ring ``ring``.

    fvals is the density on the ring's cells and the start is
    ``x = (uvec / mean(uvec), log_C)``.  The u field (x but its last entry,
    log C) must stay positive and convex; convexity is read off the
    residual's own frame.  A step is halved until that holds and the sup of
    the residual and the pin ``mean(u_bar) - 1`` falls by ``1 - step/4`` or
    the floor test (:func:`_floor_test`) holds.  The largest contraction of
    successive directions goes to the trace's ``contraction``; with ``trial``
    the solve is given up once it exceeds THETA_REJECT or the step falls
    below TRIAL_MIN_STEP, instead of below MIN_STEP; any solve stops when
    :func:`_bordered_directions` gives no direction.  Returns the last
    iterate x, its NewtonTrace at s, its sup, its rounding floor and the
    eigenvalue range of its b that the convexity check read.
    """
    tol = cfg.newton_tol
    min_step = TRIAL_MIN_STEP if trial else MIN_STEP
    trace = NewtonTrace(s=s, iterations=0)
    bordered = _bordered_directions(ring, trace)

    def evaluate(x):
        """(x, sup, done, data) of a positive candidate, or None if not convex."""
        res, parts, noise, passed = _floor_test(ring, fvals * np.exp(x[-1]), p, q, x[:-1], tol)
        b_range = eigen_range(*parts[:3])
        if b_range[0] < CONVEXITY_FLOOR:
            return None
        pin = float(np.mean(x[:-1]) - 1.0)
        done = passed and abs(pin) <= tol
        sup = max(float(np.max(np.abs(res))), abs(pin))
        return x, sup, done, (res, parts, pin, noise, b_range)

    start = evaluate(np.append(uvec / np.mean(uvec), log_C))
    if start is None:
        raise ConvexityError("u0 is not uniformly convex (b below the floor)")
    x, sup, done, data = start
    trace.residuals.append(sup)
    last_size = None
    for _it in range(cfg.max_newton):
        if done:
            break
        res, parts, pin, *_ = data
        C = _jacobian_coeffs(ring, fvals * np.exp(x[-1]), p, q, parts)
        dx = bordered(_assemble(ring, C), C, res, parts[7], pin)
        if dx is None:  # GMRES missed ETA_MAX: no direction
            break
        size = float(np.max(np.abs(dx)))
        if last_size:
            theta = size / last_size
            trace.contraction = max(trace.contraction, theta)
            if trial and theta > THETA_REJECT:
                break
        last_size = size
        step = 1.0
        while step >= min_step:
            cand = x + step * dx
            out = evaluate(cand) if np.all(cand[:-1] > 0.0) else None
            if out is not None and (out[1] <= (1.0 - 0.25 * step) * sup or out[2]):
                break
            step *= 0.5
            trace.halvings += 1
        else:  # the line search ran out of halvings
            break
        x, sup, done, data = out
        trace.iterations += 1
        trace.residuals.append(sup)
    trace.converged = done
    return x, trace, sup, 8.0 * float(np.max(data[3])), data[4]


def newton_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    s: float,
    u0: ScalarField,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Damped Newton on the normalized equation at homotopy parameter s.

    The solve runs on the psi ring of the symmetry of f_s (:func:`_density`,
    the continuation's path), from the mean of u0 over each orbit of that
    symmetry: ``u_bar`` is that mean over its own mean, and log C is
    ``(p - q) log`` of it, which makes ``h = m ell u_bar`` equal ``ell u0``
    for ``p != q``; at ``p = q`` log C cannot be read off u0 and starts at 0.
    """
    if cfg is None:
        cfg = SolverConfig()
    _check_grid(geom, spec.f, u0)
    if np.any(u0.values <= 0.0):
        raise DomainError("u0 must be positive")
    p, q = spec.p, spec.q
    fvals = _density(_base_density(geom, p, q), spec.f.values, s)
    m = _symmetry(fvals)
    uvec = u0.values.reshape(geom.Nphi, -1, m).mean(axis=1).ravel()
    x, trace, res_sup, floor, b_range = _newton(_ring(geom, m), fvals[:, :m].ravel(), p, q,
                                                uvec, (p - q) * math.log(np.mean(uvec)), s, cfg)
    return _finalize(geom, x, b_range, p, q, [trace], trace.converged, s, res_sup, floor)


def continuation_solve(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Homotopy continuation from the exact s = 0 problem to the target at s = 1.

    Each step solves for f_s (:func:`_density`) from the secant predictor or
    the drifted last solution (see the module docstring), with a step length
    set by the Newton contraction of the last accepted step.  Every step,
    s = 0 included, runs on the psi ring of the target density's symmetry,
    chosen once; the solution is tiled onto geom once, at the end.
    For p = q the result is the normalized pair: h = ell u_bar and C = exp(log_C).
    """
    if cfg is None:
        cfg = SolverConfig()
    _check_grid(geom, spec.f)
    p, q = spec.p, spec.q
    f0 = _base_density(geom, p, q)
    # log C drifts by -log kappa per unit s, kappa the geometric mean of f / f_0
    log_kappa = float(np.mean(np.log(spec.f.values / f0)))
    m = _symmetry(spec.f.values)
    ring = _ring(geom, m)
    f0, f = f0[:, :m].ravel(), spec.f.values[:, :m].ravel()

    # at s = 0 the density is f_0, solved exactly by u_bar = 1 and log C = 0
    last, trace, res_sup, floor, b_range = _newton(ring, f0, p, q, np.ones(ring.size), 0.0,
                                                   0.0, cfg)
    traces, converged = [trace], trace.converged
    s, ds = 0.0, DS_INIT
    prev = None  # (x_(k-1), s_k - s_(k-1)) for the secant predictor
    while converged and s < 1.0:
        s_next = min(1.0, s + ds)
        x = np.append(last[:-1] / np.mean(last[:-1]), last[-1])  # (u_bar, log C)
        start = np.append(x[:-1], x[-1] - (s_next - s) * log_kappa)
        if prev is not None:
            pred = x + (s_next - s) / prev[1] * (x - prev[0])
            if (np.all(pred[:-1] > 0.0)
                    and eigen_range(*_u_frame(ring, pred[:-1])[:3])[0] >= CONVEXITY_FLOOR):
                start = pred
        y, trace, y_sup, y_floor, y_range = _newton(ring, _density(f0, f, s_next), p, q,
                                                    start[:-1], start[-1], s_next, cfg,
                                                    trial=True)
        traces.append(trace)
        if trace.converged:
            theta = trace.contraction
            factor = math.sqrt(THETA_BAR / theta) if theta > 0.0 else 2.0
            prev, s = (x, s_next - s), s_next
            last, b_range, res_sup, floor = y, y_range, y_sup, y_floor
            ds *= min(2.0, max(0.5, factor))
        else:  # retry at half the step tried, which is shorter than ds near s = 1
            ds = 0.5 * (s_next - s)
            converged = ds >= DS_MIN
    return _finalize(geom, last, b_range, p, q, traces, converged, s,
                     res_sup if converged else math.inf, floor)


# ---------------------------------------------------------------------------
# manufactured solutions


def manufactured_f(
    geom: CapGeometry, h_star: ScalarField, p: float, q: float
) -> ScalarField:
    """Density making h_star an exactly discrete solution of the equation.

    The density is det b / (h^(p-1) w^((3-q)/2)) on the quotient frame of
    u = h_star / ell, the discretization :func:`continuation_solve` solves,
    so h_star is recovered to rounding.  The one-sided Robin defect of h_star
    is measured first: a field that violates the boundary condition by more
    than O(grid^2) is refused.
    """
    if np.any(h_star.values <= 0.0):
        raise DomainError("h_star must be positive")
    rob = float(np.max(np.abs(robin_residual(geom, h_star))))
    scale = float(np.max(np.abs(h_star.values)))
    if rob > 100.0 * geom.grid_eps() * scale:
        raise ApplicabilityError(
            f"h_star violates the Robin condition (defect {rob:.3g})"
        )
    *frame, h = _u_frame(geom, h_star.values / ell_field(geom).values)
    if eigen_range(*frame[:3])[0] <= 0.0:
        raise ApplicabilityError("h_star is not strictly convex")
    with np.errstate(all="ignore"):
        det, weight, _ = _equation(1.0, p, q, frame, h)
        f = det / weight
    if not np.all(np.isfinite(f) & (f > 0.0)):
        raise ApplicabilityError(f"the density det b / (h^(p-1) w^((3-q)/2)) is not finite "
                                 f"and positive at p = {p}, q = {q}")
    return ScalarField(geom, f)


def ell_bump_field(geom: CapGeometry, eps: float, k: int = 2) -> ScalarField:
    """h* = ell(phi) (1 + eps cos(k psi) rho(phi)) with rho the bump profile."""
    phi = geom.phi_nodes[:, None]
    psi = geom.psi_nodes[None, :]
    ell = 1.0 - geom.cos_theta * np.cos(phi)
    vals = ell * (1.0 + eps * np.cos(k * psi) * bump_profile(phi, geom.theta))
    return ScalarField(geom, np.broadcast_to(vals, geom.shape))


def ell_bump_f_exact(
    geom: CapGeometry, p: float, q: float, eps: float, k: int = 2
) -> ScalarField:
    """Continuum (not grid-differenced) density for the ell-bump solution.

    With ``h = A + eps cos(k psi) B``, ``A = ell`` and ``B = ell rho`` (rho the
    bump profile), ``b = hess(h) + h I`` and ``w = h^2 + |grad h|^2`` are
    written with cos(k psi), sin(k psi) and the exact phi-derivatives of A
    and B, so the density is evaluated in closed form.
    """
    phi = geom.phi_nodes[:, None]
    psi = geom.psi_nodes[None, :]
    sin, cos = np.sin(phi), np.cos(phi)
    ct, st2 = geom.cos_theta, geom.sin_theta**2
    # A = ell = 1 - cos(theta) cos(phi) and rho = S (2 - S / sin(theta)^2)
    # with S = sin(phi)^2, each with its first two phi-derivatives
    A, A1, A2 = 1.0 - ct * cos, ct * sin, ct * cos
    S, S1, S2 = sin**2, 2.0 * sin * cos, 2.0 * (cos**2 - sin**2)
    rho = bump_profile(phi, geom.theta)
    rho1 = S1 * (2.0 - 2.0 * S / st2)
    rho2 = S2 * (2.0 - 2.0 * S / st2) - 2.0 * S1**2 / st2
    B, B1, B2 = A * rho, A1 * rho + A * rho1, A2 * rho + 2.0 * A1 * rho1 + A * rho2
    c, s = eps * np.cos(k * psi), eps * np.sin(k * psi)
    h = A + c * B
    h_phi = A1 + c * B1
    h_psi = -k * s * B
    b11 = A2 + c * B2 + h
    b12 = -k * s * (B1 / sin - cos / sin**2 * B)
    b22 = -k * k * c * B / sin**2 + cos / sin * h_phi + h
    w = h**2 + h_phi**2 + (h_psi / sin) ** 2
    vals = (b11 * b22 - b12**2) / (h ** (p - 1.0) * w ** ((3.0 - q) / 2.0))
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ApplicabilityError("bump amplitude too large: density not positive")
    return ScalarField(geom, vals)


# ---------------------------------------------------------------------------
# p = q limit scheme


@dataclass
class PqLimitResult:
    C_star: float
    eps_schedule: list
    C_eps: list
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
        sub = ProblemSpec(p=spec.p + e, q=spec.q, theta=spec.theta, f=f_star,
                          allow_unsupported=spec.allow_unsupported)
        r = newton_solve(sub, geom, 1.0, limit.u, cfg)
        traces.extend(r.newton_trace)
        if not r.converged:
            raise ApplicabilityError(f"epsilon = {e} problem did not converge")
        C_eps.append(C_star * float(np.min(r.h.values)) ** e)

    lam = 1.0 / float(np.min(limit.h.values))
    x = np.append(lam * limit.u.values.ravel(), limit.log_C)  # u = u_bar at p = q
    b_range = eigen_range(*_u_frame(geom, x[:-1])[:3])  # the frame of the new field x
    solution = _finalize(geom, x, b_range, spec.p, spec.q, traces, True, 1.0,
                         lam**2 * limit.residual_sup, lam**2 * limit.residual_floor)
    return PqLimitResult(
        C_star=C_star,
        eps_schedule=eps_schedule,
        C_eps=C_eps,
        diffs=[abs(b - a) for a, b in zip(C_eps[:-1], C_eps[1:])],
        solution=solution,
    )


def pq_residual(geom: CapGeometry, f: ScalarField, p: float,
                h: ScalarField, C: float) -> ScalarField:
    """Residual of det b = C f h^(p-1) (h^2 + |grad h|^2)^((3-p)/2), as residual_h."""
    _check_grid(geom, f, h)
    return _residual_field(geom, C * f.values, p, p, h.values / ell_field(geom).values)


# ---------------------------------------------------------------------------
# uniqueness probe


def uniqueness_probe(
    spec: ProblemSpec,
    geom: CapGeometry,
    cfg: SolverConfig | None = None,
    starts: list | None = None,
):
    """Solve from several starts and measure sup |log(h_a / h_b)| over pairs.

    Returns that spread and whether it is within the heuristic scale the
    solves allow: the sum of their relative residuals over p - q.  Each
    converged solve has a relative residual of at most newton_tol plus its
    residual floor (the normalized equation has an O(1) scale).  In
    ``v = d log h`` the linearized equation has the zero-order term
    ``-(p - q) v`` (the dilation ``h -> t h`` shifts the log residual by
    ``-(p - q) log t``), so were the discrete operator monotone, a comparison
    principle would bound the spread by that scale.  It is not shown to be:
    the mixed-derivative stencil of b12 is not monotone, and the argument is
    linearized, so the scale is an estimate, not a proven bound.
    """
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
        solutions.append(r)
    worst, ok = 0.0, True
    for i, a in enumerate(solutions):
        for b in solutions[i + 1:]:
            spread = float(np.max(np.abs(np.log(a.h.values / b.h.values))))
            residuals = 2.0 * cfg.newton_tol + a.residual_floor + b.residual_floor
            worst, ok = max(worst, spread), ok and spread <= residuals / (spec.p - spec.q)
    return worst, ok
