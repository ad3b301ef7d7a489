"""Discretized spherical cap: grid, reference function, differential operators.

The cap is parametrized by the polar angle ``phi`` in ``(0, theta]`` measured
from the pole of the unit normal image and the azimuth ``psi`` in ``[0, 2*pi)``,
with the round metric ``dphi^2 + sin(phi)^2 dpsi^2``.  All fields are sampled at
cell centers ``phi_i = (i - 1/2) * theta / Nphi``, ``psi_j = j * 2*pi / Npsi``.

The pole is excluded from the grid; values at the ghost row across the pole are
obtained from the antipodal azimuth, ``g(-dphi/2, psi) = g(dphi/2, psi + pi)``,
which is exact for functions smooth on the sphere.  The ghost row beyond
``phi = theta`` enforces either the Robin condition ``h_phi = cot(theta) * h``
or a homogeneous Neumann condition, collocated at ``phi = theta`` with a cubic
one-sided stencil so the boundary row keeps second-order accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, UsageError

# cubic one-sided weights at offsets (-5/2, -3/2, -1/2, +1/2) * dphi from theta
_W_VALUE = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0
_W_DERIV = np.array([1.0, -3.0, -21.0, 23.0]) / 24.0
# quadratic one-sided weights at offsets (-5/2, -3/2, -1/2) * dphi from theta
_W3_VALUE = np.array([3.0, -10.0, 15.0]) / 8.0
_W3_DERIV = np.array([1.0, -3.0, 2.0])
EVEN_TOL = 1e-10  # largest evenness_defect of data that counts as even


class CapGeometry:
    """Cell-centered grid on the spherical cap of half-angle ``theta``.

    Immutable after construction; safe to share between threads.
    """

    n = 2

    def __init__(self, theta: float, Nphi: int, Npsi: int):
        if not (0.0 < theta <= math.pi / 2.0 + 1e-15):
            raise DomainError(f"theta must lie in (0, pi/2], got {theta}")
        if Nphi < 4:
            raise ConfigError(f"Nphi must be >= 4, got {Nphi}")
        if Npsi < 4 or Npsi % 2 != 0:
            raise ConfigError(f"Npsi must be even and >= 4, got {Npsi}")
        self.theta = float(theta)
        self.Nphi = int(Nphi)
        self.Npsi = int(Npsi)
        self.dphi = self.theta / self.Nphi
        self.dpsi = 2.0 * math.pi / self.Npsi
        self.phi_nodes = (np.arange(self.Nphi) + 0.5) * self.dphi
        self.psi_nodes = np.arange(self.Npsi) * self.dpsi
        self.sin_phi = np.sin(self.phi_nodes)
        self.cos_phi = np.cos(self.phi_nodes)
        self.cos_theta = math.cos(self.theta)
        self.sin_theta = math.sin(self.theta)
        self.cot_theta = self.cos_theta / self.sin_theta
        self.area_weights = (self.sin_phi * self.dphi * self.dpsi)[:, None] * np.ones(
            (1, self.Npsi)
        )
        self._cache: dict = {}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.Nphi, self.Npsi)

    @property
    def size(self) -> int:
        return self.Nphi * self.Npsi

    def grid_eps(self) -> float:
        """Squared-step discretization scale used in tolerance coupling."""
        return self.dphi**2 + self.dpsi**2

    def __repr__(self):
        return (
            f"CapGeometry(theta={self.theta:.6g}, Nphi={self.Nphi}, "
            f"Npsi={self.Npsi})"
        )


def build_grid(theta: float, Nphi: int, Npsi: int) -> CapGeometry:
    """Construct the cell-centered cap grid (see CapGeometry)."""
    return CapGeometry(theta, Nphi, Npsi)


@dataclass
class ScalarField:
    """A real-valued function sampled on the cap grid."""

    geometry: CapGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.geometry.shape:
            raise UsageError(
                f"field shape {self.values.shape} does not match grid "
                f"{self.geometry.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field contains non-finite entries")

    @classmethod
    def from_function(cls, geom: CapGeometry, fn) -> "ScalarField":
        phi = geom.phi_nodes[:, None]
        psi = geom.psi_nodes[None, :]
        vals = np.broadcast_to(np.asarray(fn(phi, psi), dtype=float), geom.shape)
        return cls(geom, vals.copy())

    def copy(self) -> "ScalarField":
        return ScalarField(self.geometry, self.values.copy())


@dataclass
class CurvatureData:
    """Components of ``b = hess(h) + h I`` in the orthonormal frame."""

    b11: np.ndarray
    b12: np.ndarray
    b22: np.ndarray
    det_b: np.ndarray
    sigma1: np.ndarray
    lambda_min: float
    lambda_max: float


@dataclass
class BodyExtents:
    """Horizontal and vertical extents of a reconstructed capillary body."""

    R_out: float
    R_in: float
    H: float
    boundary_plane_defect: float
    convex_warning: bool = False


@dataclass
class EmbeddedBody:
    cells: np.ndarray  # (Nphi, Npsi, 3)
    boundary: np.ndarray  # (Npsi, 3)
    extents: BodyExtents


def ell_field(geom: CapGeometry) -> ScalarField:
    """Capillary support function of the unit cap: ell = 1 - cos(theta)cos(phi)."""
    vals = 1.0 - geom.cos_theta * geom.cos_phi
    return ScalarField(geom, np.repeat(vals[:, None], geom.Npsi, axis=1))


def ell_grad_sq(geom: CapGeometry) -> np.ndarray:
    """|grad ell|^2 = cos(theta)^2 sin(phi)^2, evaluated analytically."""
    vals = (geom.cos_theta * geom.sin_phi) ** 2
    return np.repeat(vals[:, None], geom.Npsi, axis=1)


def top_ghost_coeffs(geom: CapGeometry, bc: str) -> np.ndarray:
    """Weights (on rows Nphi-3, Nphi-2, Nphi-1) defining the top ghost row.

    The ghost value g satisfies the collocated boundary condition at
    phi = theta using a cubic through the last three cells and the ghost:
    ``p'(theta) = ct * p(theta)`` with ct = cot(theta) (Robin) or ct = 0
    (Neumann).
    """
    if bc == "robin":
        ct = geom.cot_theta
    elif bc == "neumann":
        ct = 0.0
    else:
        raise ConfigError(f"unknown boundary kind {bc!r}")
    d = geom.dphi
    denom = _W_DERIV[3] / d - ct * _W_VALUE[3]
    return (ct * _W_VALUE[:3] - _W_DERIV[:3] / d) / denom


def extend(geom: CapGeometry, values: np.ndarray, bc: str) -> np.ndarray:
    """Pad a field with the pole ghost row and the top (Robin/Neumann) ghost."""
    ext = np.empty((geom.Nphi + 2, geom.Npsi))
    ext[1:-1] = values
    ext[0] = np.roll(values[0], geom.Npsi // 2)
    a = top_ghost_coeffs(geom, bc)
    ext[-1] = a[0] * values[-3] + a[1] * values[-2] + a[2] * values[-1]
    return ext


def _psi_d1(values: np.ndarray, dpsi: float) -> np.ndarray:
    return (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2.0 * dpsi)


def _psi_d2(values: np.ndarray, dpsi: float) -> np.ndarray:
    return (
        np.roll(values, -1, axis=1) - 2.0 * values + np.roll(values, 1, axis=1)
    ) / dpsi**2


def grad_field(geom: CapGeometry, s: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Covariant gradient (g1, g2) in the frame e1 = d_phi, e2 = d_psi/sin(phi).

    Centered second order in the interior, across-pole ghost at the first row,
    one-sided second order at the last row (no boundary condition assumed).
    """
    if s.geometry is not geom and s.geometry.shape != geom.shape:
        raise UsageError("field geometry does not match")
    v = s.values
    d = geom.dphi
    g1 = np.empty_like(v)
    g1[1:-1] = (v[2:] - v[:-2]) / (2.0 * d)
    pole_ghost = np.roll(v[0], geom.Npsi // 2)
    g1[0] = (v[1] - pole_ghost) / (2.0 * d)
    g1[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * d)
    g2 = _psi_d1(v, geom.dpsi) / geom.sin_phi[:, None]
    return ScalarField(geom, g1), ScalarField(geom, g2)


def grad_sq(geom: CapGeometry, s: ScalarField) -> np.ndarray:
    g1, g2 = grad_field(geom, s)
    return g1.values**2 + g2.values**2


def _ell_ext_rows(geom: CapGeometry) -> np.ndarray:
    """ell on the ghost-padded phi rows: pole ghost, the Nphi cells, top ghost."""
    phi_ext = np.concatenate(
        [[-geom.dphi / 2.0], geom.phi_nodes, [geom.theta + geom.dphi / 2.0]]
    )
    return 1.0 - geom.cos_theta * np.cos(phi_ext)


def _frame(geom: CapGeometry, ext: np.ndarray):
    """Frame components of hess + id on a ghost-padded field (see :func:`extend`).

    Returns (b11, b12, b22, g1, g2) on the interior cells, where
    b = hess(v) + v I and (g1, g2) is the covariant gradient of the interior
    values v = ext[1:-1], both in the frame e1 = d_phi, e2 = d_psi/sin(phi).
    """
    d = geom.dphi
    sin = geom.sin_phi[:, None]
    cos = geom.cos_phi[:, None]
    values = ext[1:-1]
    h_phi = (ext[2:] - ext[:-2]) / (2.0 * d)
    h_phiphi = (ext[2:] - 2.0 * values + ext[:-2]) / d**2
    # psi differences annihilate row constants; subtracting the row mean first
    # removes the cancellation noise that the 1/sin(phi)^2 factor amplifies
    # near the pole, which sets the attainable Newton residual floor
    dev = ext - np.mean(ext, axis=1, keepdims=True)
    h_psi = _psi_d1(dev[1:-1], geom.dpsi)
    h_psipsi = _psi_d2(dev[1:-1], geom.dpsi)
    h_phipsi = (_psi_d1(dev[2:], geom.dpsi) - _psi_d1(dev[:-2], geom.dpsi)) / (2.0 * d)
    b11 = h_phiphi + values
    b12 = h_phipsi / sin - cos / sin**2 * h_psi
    b22 = h_psipsi / sin**2 + cos / sin * h_phi + values
    return b11, b12, b22, h_phi, h_psi / sin


def hessian_frame(geom: CapGeometry, values: np.ndarray, bc: str):
    """Frame components (b11, b12, b22, g1, g2) of a field with ``bc`` ghosts."""
    return _frame(geom, extend(geom, values, bc))


def eigen_range(b11: np.ndarray, b12: np.ndarray, b22: np.ndarray):
    mid = 0.5 * (b11 + b22)
    rad = np.sqrt((0.5 * (b11 - b22)) ** 2 + b12**2)
    return float(np.min(mid - rad)), float(np.max(mid + rad))


def curvature_tensor(geom: CapGeometry, h: ScalarField) -> CurvatureData:
    """Second-order discretization of ``b = hess(h) + h I`` (Robin ghosts)."""
    if np.any(h.values <= 0.0):
        raise DomainError("support function must be positive")
    b11, b12, b22, _, _ = hessian_frame(geom, h.values, "robin")
    det_b = b11 * b22 - b12**2
    lam_min, lam_max = eigen_range(b11, b12, b22)
    return CurvatureData(b11, b12, b22, det_b, b11 + b22, lam_min, lam_max)


def boundary_values(geom: CapGeometry, values: np.ndarray):
    """(value, d/dphi) at phi = theta per boundary node, one-sided second order."""
    f1, f2, f3 = values[-1], values[-2], values[-3]
    val = (_W3_VALUE[2] * f1 + _W3_VALUE[1] * f2 + _W3_VALUE[0] * f3)
    der = (_W3_DERIV[2] * f1 + _W3_DERIV[1] * f2 + _W3_DERIV[0] * f3) / geom.dphi
    return val, der


def robin_residual(geom: CapGeometry, h: ScalarField) -> np.ndarray:
    """h_phi(theta) - cot(theta) h(theta) per boundary node (diagnostic)."""
    val, der = boundary_values(geom, h.values)
    return der - geom.cot_theta * val


def symmetrize_even(geom: CapGeometry, s: ScalarField) -> ScalarField:
    """Project onto fields invariant under psi -> psi + pi (evenness)."""
    v = s.values
    return ScalarField(geom, 0.5 * (v + np.roll(v, geom.Npsi // 2, axis=1)))


def evenness_defect(geom: CapGeometry, values: np.ndarray) -> float:
    """Relative sup-distance from the even subspace."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    gap = values - np.roll(values, geom.Npsi // 2, axis=1)
    return float(np.max(np.abs(gap))) / scale


def embed_body(geom: CapGeometry, h: ScalarField) -> EmbeddedBody:
    """Reconstruct the hypersurface X = h * nu + grad h from its support function.

    The unit normal in the chart is nu = (sin(phi)cos(psi), sin(phi)sin(psi),
    cos(phi)); the boundary circle is obtained by one-sided extrapolation to
    phi = theta, where the Robin condition is equivalent to the boundary
    points lying on the supporting plane: X_3 = h cos(theta) - h_phi sin(theta).
    """
    if np.any(h.values <= 0.0):
        raise DomainError("support function must be positive")
    cd = curvature_tensor(geom, h)
    warn = cd.lambda_min <= 0.0
    g1, g2 = grad_field(geom, h)
    sin = geom.sin_phi[:, None]
    cos = geom.cos_phi[:, None]
    cpsi = np.cos(geom.psi_nodes)[None, :]
    spsi = np.sin(geom.psi_nodes)[None, :]
    hv = h.values
    x = hv * sin * cpsi + g1.values * cos * cpsi - g2.values * spsi
    y = hv * sin * spsi + g1.values * cos * spsi + g2.values * cpsi
    z = hv * cos - g1.values * sin
    cells = np.stack([x, y, z], axis=-1)

    hb, hb_phi = boundary_values(geom, h.values)
    hb_psi = _psi_d1(hb[None, :], geom.dpsi)[0]
    st, ct = geom.sin_theta, geom.cos_theta
    cpsi1 = np.cos(geom.psi_nodes)
    spsi1 = np.sin(geom.psi_nodes)
    g2b = hb_psi / st
    xb = hb * st * cpsi1 + hb_phi * ct * cpsi1 - g2b * spsi1
    yb = hb * st * spsi1 + hb_phi * ct * spsi1 + g2b * cpsi1
    zb = hb * ct - hb_phi * st
    boundary = np.stack([xb, yb, zb], axis=-1)

    r_cells = np.hypot(x, y)
    r_bnd = np.hypot(xb, yb)
    extents = BodyExtents(
        R_out=float(max(np.max(r_cells), np.max(r_bnd))),
        R_in=float(np.min(r_bnd)),
        H=float(np.max(z)),
        boundary_plane_defect=float(np.max(np.abs(zb))),
        convex_warning=bool(warn),
    )
    return EmbeddedBody(cells, boundary, extents)


def bump_profile(phi, theta: float):
    """Radial profile sin(phi)^2 (2 - sin(phi)^2 / sin(theta)^2).

    Its derivative vanishes at phi = theta, so perturbations built from it
    preserve the Neumann condition of the quotient u = h / ell.
    """
    s2 = np.sin(phi) ** 2
    return s2 * (2.0 - s2 / math.sin(theta) ** 2)


# ---------------------------------------------------------------------------
# serialization


def field_to_csv(s: ScalarField, path, header_comment: str | None = None):
    g = s.geometry
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "phi", "psi", "value"])
        for i in range(g.Nphi):
            for j in range(g.Npsi):
                writer.writerow(
                    [
                        i + 1,
                        j,
                        f"{g.phi_nodes[i]:.17g}",
                        f"{g.psi_nodes[j]:.17g}",
                        f"{s.values[i, j]:.17g}",
                    ]
                )


def field_from_csv(path, theta: float) -> ScalarField:
    """Read a field written by :func:`field_to_csv` on the cap of half-angle theta.

    The rows must list every cell once, in the order and at the (phi, psi)
    that field_to_csv writes; anything else is a ConfigError, never a field
    with holes.
    """
    with open(path) as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        try:
            rows = [(int(r["i"]), int(r["j"]), float(r["phi"]), float(r["psi"]),
                     float(r["value"])) for r in reader]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed field CSV {path}: {exc!r}") from exc
    if not rows:
        raise ConfigError(f"field CSV {path} has no rows")
    i, j, phi, psi, vals = (np.array(col) for col in zip(*rows))
    geom = build_grid(theta, int(i.max()), int(j.max()) + 1)
    ii, jj = np.indices(geom.shape).reshape(2, -1)
    if (len(rows) != geom.size or np.any(i - 1 != ii) or np.any(j != jj)
            or np.max(np.abs(phi - geom.phi_nodes[ii])) > 1e-9
            or np.max(np.abs(psi - geom.psi_nodes[jj])) > 1e-9):
        raise ConfigError(
            f"field CSV {path} does not hold the {geom.Nphi}x{geom.Npsi} grid "
            f"of theta={theta:.6g} in row-major order"
        )
    return ScalarField(geom, vals.reshape(geom.shape))
