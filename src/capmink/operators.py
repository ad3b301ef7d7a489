"""Sparse matrix form of the frame stencil of :mod:`capmink.grid`.

Every ``b = hess(h) + h I`` and covariant gradient is evaluated by one dense
kernel, ``grid._u_frame``, on the Neumann-padded quotient ``u = h / ell``.
This module assembles the same stencil as linear maps on flattened fields, so
the solver can build an exact Jacobian: an extension matrix inserts the ghost
rows, and Kronecker products of the 1-D phi and psi difference weights apply
the kernel's differences.  Flattening is row-major over ``(phi, psi)``; the
extended layout prepends the pole ghost row and appends the top ghost row.
The dense kernel subtracts the row mean before its psi differences, so the
two agree up to rounding, not bit for bit.

The solver builds them on the psi ring of the data's symmetry
(:func:`capmink.grid._ring`): there they are the full grid's restricted to
symmetric fields, since the periodic psi differences and the pole antipode
are circulants (:func:`_circulant`), whose wrapped weights add up.
:func:`_folded_terms` keeps the ring's Jacobian terms on a fixed CSC
pattern, so a Newton step only weights fixed values by the per-cell Jacobian
coefficients, and :func:`_mode_terms` keeps their psi-Fourier symbols, from
which the solver factors its preconditioner one psi mode at a time.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .grid import _NEUMANN_GHOST, CapGeometry, _ell_ext_rows, ell_field


def _circulant(n: int, offsets, weights) -> sp.csr_matrix:
    """n x n matrix with weight w at column (j + o) mod n of each row j.

    Weights that wrap onto one column add up (``sp.diags`` refuses them).
    """
    rows = np.tile(np.arange(n), len(offsets))
    cols = (rows + np.repeat(offsets, n)) % n
    return sp.csr_matrix((np.repeat(weights, n), (rows, cols)), shape=(n, n))


def _extension_matrix(geom: CapGeometry) -> sp.csr_matrix:
    """Map interior (N) -> extended (N + 2*Npsi) values, inserting ghost rows."""
    Nphi, Npsi = geom.Nphi, geom.Npsi
    # pole ghost: value at (phi_1, psi + pi)
    antipode = _circulant(Npsi, [geom.antipode], [1.0])
    top = np.zeros((1, Nphi))
    top[0, -3:] = _NEUMANN_GHOST
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
    # 1-D weights: phi differences map extended to interior rows, psi ones wrap
    rows = (geom.Nphi, geom.Nphi + 2)
    D1p = sp.diags([-1.0 / (2.0 * d), 1.0 / (2.0 * d)], [0, 2], shape=rows, format="csr")
    D2p = sp.diags([1.0 / d**2, -2.0 / d**2, 1.0 / d**2], [0, 1, 2], shape=rows,
                   format="csr")
    Pp = sp.diags([1.0], [1], shape=rows, format="csr")
    c = 1.0 / (2 * e)
    D1s = _circulant(n, [-1, 1], [-c, c])
    D2s = _circulant(n, [-1, 0, 1], [1.0 / e**2, -2.0 / e**2, 1.0 / e**2])
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
    E = _extension_matrix(geom)
    base = (_row_diag(geom, _ell_ext_rows(geom)) @ E).tocsr()
    frame = _frame_operators(geom)
    ops = {k: (m @ base).tocsr() for k, m in frame.items()}
    ops["ell"] = ell_field(geom).values.ravel()
    geom._cache[key] = ops
    return ops


# the stencil operators that enter the Newton Jacobian, each weighted per cell
JACOBIAN_TERMS = ("b11", "b22", "b12", "g1", "g2")


def _folded_terms(geom: CapGeometry):
    """Fixed CSC pattern of every Jacobian on the ring geom, and its assembly map.

    A Jacobian of the form ``J = sum_k diag(c_k) O_k + diag(d)``, with O_k the
    :data:`JACOBIAN_TERMS` of :func:`u_system`, has entries that are a fixed
    linear map of the coefficients.  Returns ``(indptr, indices, T)``: the
    union CSC pattern of the O_k and the diagonal, and the sparse map T with
    ``data = T @ C.ravel()``, where C (cells x terms) holds c_k for each term
    in order and d last.  Built once per ring, on the first Newton step.
    """
    key = "folded_terms"
    if key not in geom._cache:
        ops = u_system(geom)
        n = geom.size
        terms = [ops[k].tocsc() for k in JACOBIAN_TERMS]
        terms.append(sp.identity(n, format="csc"))
        for t in terms:
            t.eliminate_zeros()
        union = sum(abs(t) for t in terms).tocsc()
        union.sort_indices()

        def keys(m):  # column-major position keys, increasing along a sorted CSC
            cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
            return cols * n + m.indices

        ukeys = keys(union)
        # term k's entry at row r lands at its pattern position and is
        # weighted by C[r, k]
        entry = np.concatenate([np.searchsorted(ukeys, keys(t)) for t in terms])
        coeff = np.concatenate([t.indices * len(terms) + k for k, t in enumerate(terms)])
        T = sp.csr_matrix((np.concatenate([t.data for t in terms]), (entry, coeff)),
                          shape=(union.nnz, n * len(terms)))
        geom._cache[key] = (union.indptr, union.indices, T)
    return geom._cache[key]


def _mode_terms(geom: CapGeometry):
    """psi-Fourier symbols of the Jacobian terms on a ring of m > 1 cells.

    The unknowns ``row * m + j`` of the ring geom are periodic in j, and every
    term maps them circulantly: its coefficients depend on phi alone, and the
    pole antipode is a shift by ``geom.antipode`` cells.  A Jacobian whose
    coefficients are constant along each phi row therefore maps psi mode k of
    row i' to the same mode of row i, with the weight
    ``sum_t cbar[i, t] sigma_t[i, i'](k)``, where
    ``sigma_t[i, i'](k) = sum_l a_t[i, i', l] exp(2 pi i k l / m)`` and
    ``a_t[i, i', l]`` is term t's entry in row ``(i, 0)``, column ``(i', l)``
    of :func:`_folded_terms` (on the full grid the antipode's ``l = m/2``
    gives the factor ``(-1)^k``).  Returns ``(rows, cols, G, omega)``: the
    phi-row pairs ``(i, i')`` that carry an entry, in column-major order; the
    real map G with ``a = G @ cbar.ravel()``, ``a`` the (pair, offset) weights
    flattened and cbar (Nphi x terms) as the coefficients of
    :func:`_folded_terms`; and ``omega[l, k] = exp(2 pi i k l / m)`` over the
    psi offsets that occur and the modes ``k = 0 .. m // 2``.  Built once per
    ring, on the first Newton direction that needs it.
    """
    key = "mode_terms"
    if key not in geom._cache:
        indptr, indices, T = _folded_terms(geom)
        Nphi, m = geom.Nphi, geom.Npsi
        nterms = T.shape[1] // geom.size
        cols = np.repeat(np.arange(Nphi * m), np.diff(indptr))
        first = np.flatnonzero(indices % m == 0)  # the entries in the j = 0 rows
        i, (i2, shift) = indices[first] // m, np.divmod(cols[first], m)
        offsets, offset = np.unique(shift, return_inverse=True)
        pairs, pair = np.unique(i2 * Nphi + i, return_inverse=True)
        entries = T[first].tocoo()
        r, t = np.divmod(entries.col, nterms)  # r = i m: term t weighted by cbar[i, t]
        G = sp.csr_matrix(
            (entries.data, (pair[entries.row] * len(offsets) + offset[entries.row],
                            (r // m) * nterms + t)),
            shape=(len(pairs) * len(offsets), Nphi * nterms))
        omega = np.exp(2j * np.pi / m * np.outer(offsets, np.arange(m // 2 + 1)))
        geom._cache[key] = (pairs % Nphi, pairs // Nphi, G, omega)
    return geom._cache[key]
