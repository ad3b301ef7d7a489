"""Sparse matrix form of the frame stencil of :mod:`capmink.grid`.

The Newton residual evaluates ``b = hess(h) + h I`` and the covariant
gradient with one dense kernel, ``grid._frame``, over a ghost-padded field.
This module assembles the same stencil as linear maps on flattened fields, so
the solver can build an exact Jacobian: an extension matrix inserts the ghost
rows, and Kronecker products of the 1-D phi and psi difference weights apply
the kernel's differences.  Flattening is row-major over ``(phi, psi)``; the
extended layout prepends the pole ghost row and appends the top ghost row.
The dense kernel subtracts the row mean before its psi differences, so the
two agree up to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .grid import CapGeometry, _ell_ext_rows, ell_field, top_ghost_coeffs


def _extension_matrix(geom: CapGeometry, bc: str) -> sp.csr_matrix:
    """Map interior (N) -> extended (N + 2*Npsi) values, inserting ghost rows."""
    Nphi, Npsi, half = geom.Nphi, geom.Npsi, geom.Npsi // 2
    # pole ghost: value at (phi_1, psi + pi)
    antipode = sp.diags([1.0, 1.0], [half, -half], shape=(Npsi, Npsi))
    top = np.zeros((1, Nphi))
    top[0, -3:] = top_ghost_coeffs(geom, bc)
    return sp.vstack(
        [
            sp.kron(sp.eye(1, Nphi), antipode),
            sp.identity(geom.size),
            sp.kron(top, sp.identity(Npsi)),
        ],
        format="csr",
    )


def _row_diag(geom: CapGeometry, values_per_row: np.ndarray) -> sp.csr_matrix:
    return sp.kron(sp.diags(values_per_row), sp.identity(geom.Npsi), format="csr")


def _frame_operators(geom: CapGeometry):
    """Maps extended-field -> interior frame quantities (b11, b12, b22, g1, g2)."""
    d, e, n = geom.dphi, geom.dpsi, geom.Npsi
    # 1-D weights: phi differences map extended rows to interior rows; psi
    # differences are periodic, the corner diagonals closing the period
    rows = (geom.Nphi, geom.Nphi + 2)
    D1p = sp.diags([-1.0 / (2.0 * d), 1.0 / (2.0 * d)], [0, 2], shape=rows, format="csr")
    D2p = sp.diags([1.0 / d**2, -2.0 / d**2, 1.0 / d**2], [0, 1, 2], shape=rows,
                   format="csr")
    Pp = sp.diags([1.0], [1], shape=rows, format="csr")
    wrap = [-1, 1, n - 1, 1 - n]
    c = 1.0 / (2 * e)
    D1s = sp.diags([-c, c, -c, c], wrap, shape=(n, n), format="csr")
    D2s = sp.diags([1.0 / e**2] * 4 + [-2.0 / e**2], wrap + [0], shape=(n, n), format="csr")
    Is = sp.identity(n, format="csr")
    Dphi = sp.kron(D1p, Is, format="csr")
    Dphiphi = sp.kron(D2p, Is, format="csr")
    P = sp.kron(Pp, Is, format="csr")
    Dpsi = sp.kron(Pp, D1s, format="csr")
    Dpsipsi = sp.kron(Pp, D2s, format="csr")
    Dphipsi = sp.kron(D1p, D1s, format="csr")

    inv_sin = _row_diag(geom, 1.0 / geom.sin_phi)
    inv_sin2 = _row_diag(geom, 1.0 / geom.sin_phi**2)
    cos_sin2 = _row_diag(geom, geom.cos_phi / geom.sin_phi**2)
    cot = _row_diag(geom, geom.cos_phi / geom.sin_phi)

    b11 = Dphiphi + P
    b12 = inv_sin @ Dphipsi - cos_sin2 @ Dpsi
    b22 = inv_sin2 @ Dpsipsi + cot @ Dphi + P
    g1 = Dphi
    g2 = inv_sin @ Dpsi
    return {"b11": b11, "b12": b12, "b22": b22, "g1": g1, "g2": g2}


def u_system(geom: CapGeometry) -> dict:
    """Operators for the quotient formulation h = ell * u with Neumann ghosts.

    Returns csr matrices mapping the interior u-vector to b11, b12, b22 and
    the covariant gradient of h, plus the interior samples of ell.
    """
    key = "u_system"
    if key in geom._cache:
        return geom._cache[key]
    E = _extension_matrix(geom, "neumann")
    base = (_row_diag(geom, _ell_ext_rows(geom)) @ E).tocsr()
    frame = _frame_operators(geom)
    ops = {k: (m @ base).tocsr() for k, m in frame.items()}
    ops["ell"] = ell_field(geom).values.ravel()
    geom._cache[key] = ops
    return ops
