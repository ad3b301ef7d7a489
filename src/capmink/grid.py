"""Discretized spherical cap: grid, reference function, differential operators.

The cap is parametrized by the polar angle ``phi`` in ``(0, theta]`` measured
from the pole of the unit normal image and the azimuth ``psi`` in ``[0, 2*pi)``,
with the round metric ``dphi^2 + sin(phi)^2 dpsi^2``.  All fields are sampled at
cell centers ``phi_i = (i - 1/2) * theta / Nphi``, ``psi_j = j * 2*pi / Npsi``.

The pole is excluded from the grid; values at the ghost row across the pole are
obtained from the antipodal azimuth, ``g(-dphi/2, psi) = g(dphi/2, psi + pi)``,
which is exact for functions smooth on the sphere.  The ghost row beyond
``phi = theta`` enforces the homogeneous Neumann condition, collocated at
``phi = theta`` with a cubic one-sided stencil so the boundary row keeps
second-order accuracy.  A support function h is differentiated only through
its quotient ``u = h / ell``: since ``ell'/ell = cot(theta)`` at the boundary,
the Neumann condition on u is the Robin condition ``h_phi = cot(theta) * h``,
so ``b = hess(h) + h I`` and ``grad h`` are those of ``h = ell * u`` on the
Neumann-padded u.  That stencil is written once (:func:`_stencil`), its psi
offsets and weights in one psi table; :func:`_u_frame` evaluates it and
:mod:`capmink.operators` reads it off.
It is the one gradient of every grid field: a Neumann u's is
``(grad h - u grad ell) / ell`` with both gradients the stencil's, and only
:func:`boundary_values` otherwise differences a field, to reach phi = theta.
"""

from __future__ import annotations

import copy
import csv
import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DomainError, UsageError

# cubic one-sided derivative weights at offsets (-5/2, -3/2, -1/2, +1/2) * dphi
# from theta, and the top ghost (on rows Nphi-3, Nphi-2, Nphi-1) they zero
_W_DERIV = np.array([1.0, -3.0, -21.0, 23.0]) / 24.0
_NEUMANN_GHOST = -_W_DERIV[:3] / _W_DERIV[3]
# quadratic one-sided weights at offsets (-5/2, -3/2, -1/2) * dphi from theta
_W3_VALUE = np.array([3.0, -10.0, 15.0]) / 8.0
_W3_DERIV = np.array([1.0, -3.0, 2.0])
EVEN_TOL = 1e-10  # largest evenness_defect of data that counts as even
# the frame terms odd under psi -> -psi: the psi derivatives, through one psi difference
_PSI_ODD_TERMS = ("b12", "g2")


class CapGeometry:
    """Cell-centered grid on the spherical cap of half-angle ``theta``.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, theta: float, Nphi: int, Npsi: int):
        if not (0.0 < theta <= math.pi / 2.0 + 1e-15):
            raise DomainError(f"theta must lie in (0, pi/2], got {theta}")
        if Nphi < 4:
            raise ConfigError(f"Nphi must be >= 4, got {Nphi}")
        if Npsi < 4 or Npsi % 2 != 0:
            raise ConfigError(f"Npsi must be even and >= 4, got {Npsi}")
        if np.dtype(float).itemsize * int(Nphi) * int(Npsi) > np.iinfo(np.intp).max:
            raise ConfigError(f"a {Nphi}x{Npsi} grid has more cells than memory can address")
        self.theta = float(theta)
        self.Nphi = int(Nphi)
        self.Npsi = int(Npsi)
        self.dphi = self.theta / self.Nphi
        self.dpsi = 2.0 * math.pi / self.Npsi
        self.phi_nodes = (np.arange(self.Nphi) + 0.5) * self.dphi
        self.psi_nodes = np.arange(self.Npsi) * self.dpsi
        self.antipode = self.Npsi // 2  # psi shift, in cells, of the pole ghost
        # the psi ring's gather map from the columns of one period to its cells, and
        # each cell's orbit size: the identity and ones on the grid (see _ring)
        self.gather, self.orbit = np.arange(self.Npsi), np.ones(self.Npsi, dtype=int)
        self.sin_phi = np.sin(self.phi_nodes)
        self.cos_phi = np.cos(self.phi_nodes)
        self.cos_theta = math.cos(self.theta)
        self.sin_theta = math.sin(self.theta)
        self.cot_theta = self.cos_theta / self.sin_theta
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


def _ring(geom: CapGeometry, period: int, mirror: bool = False) -> CapGeometry:
    """The psi ring of fields of psi period ``period`` (Npsi, Npsi/2 or 1) of geom,
    with ``mirror`` also invariant under psi -> -psi, cached on it.

    Such a field is its first m columns on the ring: same dpsi, and the pole
    ghost shifted by ``(Npsi/2) mod period`` columns.  A ring describes its
    symmetry by two arrays, which every reader of a ring field takes:
    ``gather``, the cell of each of the period's columns, and ``orbit``, the
    number of the period's columns that each cell stands for.  The periodic
    ring has m = period cells, gather the identity and every orbit 1.  The
    reflection ring, about the node psi = 0 only, has the first
    m = period // 2 + 1 columns, ``gather[j] = min(j, period - j)``, and
    orbits 2 but at the mirror's fixed cells 0 and period / 2; it is taken only
    where it has fewer cells than the periodic ring (period > 2).  The ring
    keeps no reference back to geom, so the cache makes no cycle.
    """
    m = period // 2 + 1 if mirror else period
    if m >= period:
        m, mirror = period, False
    if m == geom.Npsi:
        return geom
    key = ("ring", period, mirror)
    if key not in geom._cache:
        ring = copy.copy(geom)  # shares the phi arrays
        ring.Npsi, ring.antipode, ring._cache = m, geom.antipode % period, {}
        ring.psi_nodes = geom.psi_nodes[:m]
        j = np.arange(period)
        ring.gather = np.minimum(j, period - j) if mirror else j
        ring.orbit = np.bincount(ring.gather)
        geom._cache[key] = ring
    return geom._cache[key]


def _tiled(geom: CapGeometry, ring: CapGeometry, a: np.ndarray, odd: bool = False):
    """The field a of the ring's Nphi x m cells on all columns of geom: column j holds
    cell ``gather[j mod period]``.  An ``odd`` field (b12 and g2, the psi derivatives,
    of a reflection-symmetric u) changes sign on the columns that the gather reflects."""
    j = np.arange(geom.Npsi) % len(ring.gather)
    cells = ring.gather[j]
    out = np.take(a, cells, axis=-1)
    if odd:
        out *= np.where(cells == j, 1.0, -1.0)
    return out


@dataclass(frozen=True, eq=False)
class ScalarField:
    """An immutable function sampled on the cap grid: ``values`` is a read-only copy
    of its input.  A copy or an unpickled field is built anew from its geometry and
    values, read-only and without the original's frame.  Equality and hashing are
    by identity."""

    geometry: CapGeometry
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        vars(self)["values"] = values  # past the frozen __setattr__, as cached_property writes
        if values.shape != self.geometry.shape:
            raise UsageError(f"field shape {values.shape} does not match grid "
                             f"{self.geometry.shape}")
        if not np.all(np.isfinite(values)):
            raise DomainError("field contains non-finite entries")

    def __reduce__(self):
        return type(self), (self.geometry, self.values)

    @functools.cached_property
    def _frame(self) -> CurvatureData:
        """The frame of :func:`curvature_tensor` on the field's own grid, evaluated on
        the ring of the psi period of u = h / ell and tiled: the grid's frame bit for
        bit on every solver output measured, on rough data to rounding."""
        if np.any(self.values <= 0.0):
            raise DomainError("support function must be positive")
        g, u = self.geometry, self.values / _ell(self.geometry)
        ring = _ring(g, *_psi_period(u))
        frame = _u_frame(ring, u[:, :ring.Npsi])
        b11, b12, b22, g1, g2 = (_tiled(g, ring, a, odd=name in _PSI_ODD_TERMS) for name, a in
                                 zip(("b11", "b12", "b22", "g1", "g2"), frame))
        return CurvatureData(b11, b12, b22, b11 + b22, eigen_range(b11, b12, b22)[0], g1, g2)

    @classmethod
    def from_function(cls, geom: CapGeometry, fn) -> "ScalarField":
        phi = geom.phi_nodes[:, None]
        psi = geom.psi_nodes[None, :]
        return cls(geom, np.broadcast_to(np.asarray(fn(phi, psi), dtype=float), geom.shape))


def _check_grid(geom: CapGeometry, *fields: ScalarField):
    """UsageError unless each field is sampled on geom: its shape, and its theta to 1e-12."""
    for fld in fields:
        g = fld.geometry
        if g.shape != geom.shape or abs(g.theta - geom.theta) > 1e-12:
            raise UsageError(f"a field is sampled on a grid of shape {g.shape} and theta "
                             f"{g.theta:.12g}, not on the grid of shape {geom.shape} and "
                             f"theta {geom.theta:.12g}")


@dataclass(frozen=True)
class CurvatureData:
    """Components of ``b = hess(h) + h I`` and of ``grad h`` in the orthonormal
    frame: the one frame of a field, shared by every caller, its arrays read-only."""

    b11: np.ndarray
    b12: np.ndarray
    b22: np.ndarray
    sigma1: np.ndarray
    lambda_min: float
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        for a in (self.b11, self.b12, self.b22, self.sigma1, self.g1, self.g2):
            a.flags.writeable = False


@dataclass
class BodyExtents:
    """Horizontal and vertical extents of a reconstructed capillary body."""

    R_out: float
    R_in: float
    H: float
    boundary_plane_defect: float


@dataclass
class EmbeddedBody:
    extents: BodyExtents


def _ell(geom: CapGeometry) -> np.ndarray:
    """:func:`ell_field`'s values, read-only, cached on geom (the field would be a cycle)."""
    if "ell" not in geom._cache:
        geom._cache["ell"] = np.repeat((1.0 - geom.cos_theta * geom.cos_phi)[:, None],
                                       geom.Npsi, axis=1)
        geom._cache["ell"].flags.writeable = False
    return geom._cache["ell"]


def ell_field(geom: CapGeometry) -> ScalarField:
    """Capillary support function of the unit cap: ell = 1 - cos(theta)cos(phi)."""
    return ScalarField(geom, _ell(geom))


def ell_grad_sq(geom: CapGeometry) -> np.ndarray:
    """|grad ell|^2 = cos(theta)^2 sin(phi)^2, evaluated analytically."""
    vals = (geom.cos_theta * geom.sin_phi) ** 2
    return np.repeat(vals[:, None], geom.Npsi, axis=1)


_Stencil = namedtuple("_Stencil", "ell X Phi psi offsets")


def _stencil(geom: CapGeometry) -> _Stencil:
    """The one discretization of ``b = hess(h) + h I`` and ``grad h``, cached on geom.

    Both are of h = ell * u, in the frame e1 = d_phi, e2 = d_psi/sin(phi),
    and are given by two sparse maps.  ``X`` ((Nphi + 2) x (Nphi + 1)) takes
    the Nphi rows of u at psi offset 0 and the first row at the antipode to
    h on the padded rows: the pole ghost, the Nphi cells and the Neumann top
    ghost, each times ``ell`` at its phi.  ``Phi`` (5 Nphi x 3 (Nphi + 2))
    takes three psi blocks of the padded h (itself, its centred and its
    second psi difference) to b11, b12, b22, g1 and g2 on the cells, stacked
    in that order.  The psi table is the one statement of the psi
    differences: ``psi[k]`` is block k's ``(scale, {offset: weight})``, its
    weights listed in the order :func:`_u_frame` sums them, and ``offsets``
    the psi offsets in the order the operator table lists them.  Only the
    pole ghost's psi shift, the geometry's antipode, is not in the stencil,
    so a ring of the grid has the grid's stencil.
    """
    key = "stencil"
    if key in geom._cache:
        return geom._cache[key]
    N, d, e = geom.Nphi, geom.dphi, geom.dpsi
    ell = 1.0 - geom.cos_theta * np.cos(np.r_[-d / 2.0, geom.phi_nodes, geom.theta + d / 2.0])
    # padded row r of h is ell_r times: u at the antipode on row 0 (column N),
    # the cell rows, and the Neumann ghost from the last three
    rows = np.concatenate([[0], np.arange(1, N + 1), [N + 1] * 3])
    cols = np.concatenate([[N], np.arange(N), np.arange(N - 3, N)])
    vals = np.concatenate([np.ones(N + 1), _NEUMANN_GHOST])
    X = sp.csr_matrix((ell[rows] * vals, (rows, cols)), shape=(N + 2, N + 1))
    # w[t, k, j, i]: the weight of term t on psi block k at padded row i + j of cell i
    sin, cos = geom.sin_phi, geom.cos_phi
    d1 = np.array([[-1.0], [0.0], [1.0]]) / (2.0 * d)
    d2 = np.array([[1.0], [-2.0], [1.0]]) / d**2
    mid = np.array([[0.0], [1.0], [0.0]])
    w = np.zeros((5, 3, 3, N))
    w[0, 0] = d2 + mid                        # b11 = h_phiphi + h
    w[1, 1] = d1 / sin - mid * cos / sin**2   # b12 = h_phipsi/sin - cos/sin^2 h_psi
    w[2, 0] = d1 * cos / sin + mid            # b22 = cos/sin h_phi + h
    w[2, 2] = mid / sin**2                    #       + h_psipsi/sin^2
    w[3, 0] = d1                              # g1 = h_phi
    w[4, 1] = mid / sin                       # g2 = h_psi/sin
    t, k, j, i = np.nonzero(w)
    Phi = sp.csr_matrix((w[t, k, j, i], (t * N + i, k * (N + 2) + i + j)),
                        shape=(5 * N, 3 * (N + 2)))
    # psi block k is (scale, {offset: weight}), its weights in the order _u_frame
    # sums them; the offsets in the order the operator table lists them
    psi = ((1.0, {0: 1.0}), (1.0 / (2.0 * e), {1: 1.0, -1: -1.0}),
           (1.0 / e**2, {1: 1.0, 0: -2.0, -1: 1.0}))
    geom._cache[key] = _Stencil(ell, X, Phi, psi, (-1, 0, 1))
    return geom._cache[key]


def _u_frame(geom: CapGeometry, u: np.ndarray):
    """(b11, b12, b22, g1, g2, h) of h = ell * u, shaped like u.

    u holds the Nphi x Npsi cell values of the grid or ring geom, as a grid or
    flattened; on a ring, each cell's psi neighbours and pole antipode are the
    cells that the ring's gather map gives them (:func:`_ring`).  This is the
    one evaluation of the stencil of :func:`_stencil`: each psi offset's
    neighbours are gathered once, and each difference block adds its weighted
    neighbours in the order of the stencil's psi table, then takes its scale.
    The sparse operators of :func:`capmink.operators.u_system` are read off
    the same stencil and match it up to rounding.
    """
    shape, st = np.shape(u), _stencil(geom)
    u = np.reshape(u, geom.shape)
    j, gather = np.arange(geom.Npsi), geom.gather
    anti = gather[(j + geom.antipode) % len(gather)]
    ext = st.X @ np.concatenate([u, np.take(u[:1], anti, axis=1)])
    # psi differences annihilate row constants; subtracting the row mean (over
    # one whole period) first removes the cancellation noise that the
    # 1/sin(phi)^2 factor amplifies near the pole, which sets the attainable
    # Newton residual floor
    dev = ext - np.mean(np.take(ext, gather, axis=1), axis=1, keepdims=True)
    # each psi offset's neighbours in dev, gathered once through the ring's gather
    # map (offset 0's are the cells themselves)
    near = {o: np.take(dev, gather[(j + o) % len(gather)], axis=1) if o else dev
            for o in st.offsets}
    blocks = [ext]  # block 0, weight 1 at offset 0, is h itself, not a difference of dev
    for scale, weights in st.psi[1:]:
        # a difference block adds or subtracts its weighted neighbours in table
        # order, a unit weight's as is, and then takes the block's scale
        acc = None
        for o, w in weights.items():
            x = near[o] if abs(w) == 1.0 else abs(w) * near[o]
            if acc is None:
                acc = x if w > 0.0 else -x
            else:
                acc = acc + x if w > 0.0 else acc - x
        blocks.append(acc * scale)
    frame = (st.Phi @ np.concatenate(blocks)).reshape(5, geom.Nphi, -1)
    return tuple(a.reshape(shape) for a in (*frame, ext[1:-1]))


def eigen_range(b11: np.ndarray, b12: np.ndarray, b22: np.ndarray):
    mid = 0.5 * (b11 + b22)
    rad = np.sqrt((0.5 * (b11 - b22)) ** 2 + b12**2)
    return float(np.min(mid - rad)), float(np.max(mid + rad))


def curvature_tensor(geom: CapGeometry, h: ScalarField) -> CurvatureData:
    """Second-order ``b = hess(h) + h I`` and ``grad h`` (the one gradient of a
    support function), through u = h / ell and its Neumann ghost: h's one frame,
    evaluated on the first call and returned by every later one."""
    _check_grid(geom, h)
    return h._frame


def boundary_values(geom: CapGeometry, values: np.ndarray):
    """(value, d/dphi) at phi = theta per boundary node, one-sided second order."""
    f1, f2, f3 = values[-1], values[-2], values[-3]
    val = (_W3_VALUE[2] * f1 + _W3_VALUE[1] * f2 + _W3_VALUE[0] * f3)
    der = (_W3_DERIV[2] * f1 + _W3_DERIV[1] * f2 + _W3_DERIV[0] * f3) / geom.dphi
    return val, der


def robin_residual(geom: CapGeometry, h: ScalarField) -> np.ndarray:
    """h_phi(theta) - cot(theta) h(theta) per boundary node (diagnostic)."""
    _check_grid(geom, h)
    val, der = boundary_values(geom, h.values)
    return der - geom.cot_theta * val


def evenness_defect(geom: CapGeometry, values: np.ndarray) -> float:
    """Relative sup-distance from the even subspace."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    gap = values - np.roll(values, geom.Npsi // 2, axis=1)
    return float(np.max(np.abs(gap))) / scale


def embed_body(geom: CapGeometry, h: ScalarField) -> EmbeddedBody:
    """Extents of the hypersurface X = h * nu + grad h, reconstructed from its support function.

    In the frame (nu, e1, e2) at (phi, psi), X = h nu + g1 e1 + g2 e2 lies at
    distance hypot(h sin(phi) + g1 cos(phi), g2) from the axis and at height
    h cos(phi) - g1 sin(phi), whatever psi is.  The boundary circle is obtained
    by one-sided extrapolation of h, h_phi and the stencil's h_psi to
    phi = theta, where the Robin condition is equivalent to the boundary
    points lying on the supporting plane: X_3 = h cos(theta) - h_phi sin(theta).
    """
    cd = curvature_tensor(geom, h)

    def radius_height(hv, g1, g2, sin, cos):
        return np.hypot(hv * sin + g1 * cos, g2), hv * cos - g1 * sin

    sin = geom.sin_phi[:, None]
    r_cells, z_cells = radius_height(h.values, cd.g1, cd.g2, sin, geom.cos_phi[:, None])
    hb, hb_phi = boundary_values(geom, h.values)
    g2b = boundary_values(geom, cd.g2 * sin)[0] / geom.sin_theta
    r_bnd, z_bnd = radius_height(hb, hb_phi, g2b, geom.sin_theta, geom.cos_theta)
    return EmbeddedBody(BodyExtents(
        R_out=float(max(np.max(r_cells), np.max(r_bnd))),
        R_in=float(np.min(r_bnd)),
        H=float(np.max(z_cells)),
        boundary_plane_defect=float(np.max(np.abs(z_bnd))),
    ))


def bump_profile(phi, theta: float):
    """Radial profile sin(phi)^2 (2 - sin(phi)^2 / sin(theta)^2).

    Its derivative vanishes at phi = theta, so perturbations built from it
    preserve the Neumann condition of the quotient u = h / ell.
    """
    s2 = np.sin(phi) ** 2
    return s2 * (2.0 - s2 / math.sin(theta) ** 2)


# ---------------------------------------------------------------------------
# serialization


def _psi_period(values: np.ndarray) -> tuple[int, bool]:
    """``(period, mirror)``: the least period of 1, Npsi/2 and Npsi by whose psi shift
    values is bitwise invariant, and whether it is bitwise invariant under psi -> -psi.

    Bitwise, not by float equality: 0.0 == -0.0, but the two print apart.
    """
    bits = values.view(np.uint64)
    half = bits.shape[1] // 2
    if np.all(bits == bits[:, :1]):
        return 1, True
    period = half if np.array_equal(bits[:, :half], bits[:, half:]) else bits.shape[1]
    mirror = (-np.arange(period)) % period
    return period, np.array_equal(bits[:, :period], np.take(bits, mirror, axis=1))


def field_to_csv(s: ScalarField, path, header_comment: str | None = None):
    """Write the field as CSV rows (i, j, phi, psi, value), one line per cell.

    The text is what ``csv.writer`` gives for these rows: ``%.17g`` numbers,
    none of which needs quoting, and ``\\r\\n`` line ends.  Each phi row of
    Npsi lines is joined at once from one list of six slots per line, shared
    by all rows: the ``,j,`` and ``,psi,`` texts and the line ends are set
    once, and each row sets its i, phi and value texts.  Only the m values of
    a row on the psi ring of the field's own symmetry are formatted
    (:func:`_psi_period`, :func:`_ring`; a solver's solution is tiled from its
    ring), all in one ``%`` pass, and each column's value slot takes the text
    of its ring cell.
    """
    g = s.geometry
    N, ring = g.Npsi, _ring(g, *_psi_period(s.values))
    m = ring.Npsi
    numbers = "%.17g\0" * m
    texts = operator.itemgetter(*_tiled(g, ring, np.arange(m)).tolist())  # each column's cell
    slots = [None] * (6 * N)  # line j: i, ",j,", phi, ",psi_j,", value, "\r\n"
    slots[1::6] = [f",{j}," for j in range(N)]
    slots[3::6] = [f",{psi:.17g}," for psi in g.psi_nodes.tolist()]
    slots[5::6] = ["\r\n"] * N
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("i,j,phi,psi,value\r\n")
        for i, (phi, values) in enumerate(zip(g.phi_nodes.tolist(), s.values[:, :m].tolist())):
            slots[0::6] = [str(i + 1)] * N
            slots[2::6] = [f"{phi:.17g}"] * N
            slots[4::6] = texts((numbers % tuple(values)).split("\0"))
            fh.write("".join(slots))


def field_from_csv(path, theta: float) -> ScalarField:
    """Read a field written by :func:`field_to_csv` on the cap of half-angle theta.

    The rows must list every cell once, in the order and at the (phi, psi)
    that field_to_csv writes, with finite numbers; anything else is a
    ConfigError, never a field with holes.
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
    if not np.all(np.isfinite(np.concatenate([phi, psi, vals]))):
        raise ConfigError(f"field CSV {path} holds a non-finite number")
    Nphi, Npsi = int(i.max()), int(j.max()) + 1
    if len(rows) != Nphi * Npsi:  # before build_grid, which allocates Nphi and Npsi nodes
        raise ConfigError(f"field CSV {path} has {len(rows)} rows, not the {Nphi}x{Npsi} "
                          "cells its indices name")
    geom = build_grid(theta, Nphi, Npsi)
    ii, jj = np.indices(geom.shape).reshape(2, -1)
    if (np.any(i - 1 != ii) or np.any(j != jj)
            or np.max(np.abs(phi - geom.phi_nodes[ii])) > 1e-9
            or np.max(np.abs(psi - geom.psi_nodes[jj])) > 1e-9):
        raise ConfigError(
            f"field CSV {path} does not hold the {geom.Nphi}x{geom.Npsi} grid "
            f"of theta={theta:.6g} in row-major order"
        )
    return ScalarField(geom, vals.reshape(geom.shape))
