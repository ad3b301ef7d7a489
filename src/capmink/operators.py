"""Sparse matrix form of the frame stencil of :mod:`capmink.grid`.

The stencil of ``b = hess(h) + h I`` and the covariant gradient of
``h = ell * u`` is written once, in ``grid._stencil``: a ghost map X from u
to the ghost-padded h and a phi-weight matrix Phi from three psi blocks of
that h to the frame terms.  The dense kernel ``grid._u_frame`` evaluates it;
this module reads the same stencil off as linear maps on flattened fields,
so the solver can build an exact Jacobian.  Flattening is row-major over
``(phi, psi)``.  The dense kernel subtracts the row mean before its psi
differences, so the two agree up to rounding, not bit for bit.

Each frame operator has coefficients that depend on phi alone and reads u
at psi offsets -1, 0 and 1, and at the same around the antipode for the pole
ghost.  :func:`_stencil_table` lists it as a map from each psi offset o (mod
the full grid's Npsi) to the Nphi x Nphi matrix R_o of its phi-row weights:
Phi's blocks times X, each weighted by its block's psi weight at o.  On the psi
ring of m cells that the solver works on (:func:`capmink.grid._ring`;
m = Npsi is the grid itself) the table gives the operators
``sum_o kron(R_o, shift(o mod m))`` (:func:`u_system`, and the Newton
Jacobian's fixed pattern, :func:`_jacobian_pattern`), the rounding floor's
``sum_o kron(|R_o|, shift(o mod m))`` (:func:`_floor_system`) and the
psi-Fourier symbols ``sum_o R_o exp(2 pi i k o / m)`` (:func:`_mode_terms`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .grid import CapGeometry, _stencil, ell_field

# the stencil operators that enter the Newton Jacobian, each weighted per
# cell, in the order of the frame terms of grid._stencil
JACOBIAN_TERMS = ("b11", "b12", "b22", "g1", "g2")


def _stencil_table(geom: CapGeometry):
    """The Jacobian terms as one psi-offset table, cached on geom.

    Returns ``(rows, cols, offsets, R)``: the phi-row pairs ``(i, i')`` that
    carry a weight, in column-major order; the psi offsets, mod the full
    grid's Npsi, in the order -1, 0, 1 and then the pole ghost's around the
    antipode (an offset met twice, as at Npsi = 4, is one offset); and
    ``R[pair, offset, t]``, the weight that row ``(i, j)`` of term t (the
    :data:`JACOBIAN_TERMS`, then the diagonal) gives u at ``(i', j + offset)``.
    geom may be a ring of the grid: the table depends only on the grid's dpsi.
    """
    key = "stencil_table"
    if key in geom._cache:
        return geom._cache[key]
    st, N = _stencil(geom), geom.Nphi
    npsi = round(2.0 * math.pi / geom.dpsi)  # the full grid's Npsi, also on a ring of it
    antipode = npsi // 2
    offsets = list(dict.fromkeys((s + o) % npsi for s in (0, antipode) for o in (-1, 0, 1)))
    # Phi's blocks times X: column i' < N is u at offset 0, column N row 0 at the antipode
    A = (st.Phi @ sp.block_diag([st.X] * len(st.psi))).tocoo()
    term, row = np.divmod(A.row, N)
    block, col = np.divmod(A.col, N + 1)
    entries = []  # (pair key, offset, term, weight) arrays
    for b, psi_weights in enumerate(st.psi):
        on = block == b
        for o, w in psi_weights.items():
            at = np.where(col[on] < N, offsets.index(o % npsi),
                          offsets.index((antipode + o) % npsi))
            entries.append(((col[on] % N) * N + row[on], at, term[on], w * A.data[on]))
    keys, offset, term, weight = (np.concatenate(x) for x in zip(*entries))
    keys, pair = np.unique(keys, return_inverse=True)
    R = np.zeros((len(keys), len(offsets), len(JACOBIAN_TERMS) + 1))
    np.add.at(R, (pair, offset, term), weight)
    cols, rows = np.divmod(keys, N)
    R[rows == cols, offsets.index(0), -1] = 1.0
    geom._cache[key] = (rows, cols, offsets, R)
    return geom._cache[key]


def _wrapped(geom: CapGeometry, R):
    """``(shifts, W)``: table weights R (pairs x offsets x terms) on the ring geom.

    The weights of the offsets that coincide mod the ring's m cells are
    summed, in table order, into the column of their shift ``o mod m``.  In
    that order the opposite psi weights at -1 and 1, and at the antipode -1
    and +1, are summed before the next offset, so the b12 and g2 weights that
    cancel on a one-cell ring cancel exactly.
    """
    offsets = np.asarray(_stencil_table(geom)[2])
    shifts, slot = np.unique(offsets % geom.Npsi, return_inverse=True)
    W = np.zeros((R.shape[0], len(shifts), R.shape[2]))
    for o, s in enumerate(slot):
        W[:, s] += R[:, o]
    return shifts, W


def _ring_matrix(geom: CapGeometry, shifts, W) -> sp.csr_matrix:
    """``sum_s kron(W[:, s], shift(s))``: the operator on the ring geom of the
    wrapped weights W (pairs x shifts) on the pairs of :func:`_stencil_table`."""
    rows, cols = _stencil_table(geom)[:2]
    p, s = np.nonzero(W)
    m, j = geom.Npsi, np.arange(geom.Npsi)
    r = rows[p, None] * m + j
    c = cols[p, None] * m + (j + shifts[s, None]) % m
    return sp.csr_matrix((np.repeat(W[p, s], m), (r.ravel(), c.ravel())),
                         shape=(geom.size, geom.size))


def u_system(geom: CapGeometry) -> dict:
    """Operators for the quotient formulation h = ell * u with Neumann ghosts.

    Returns csr matrices mapping the interior u-vector to b11, b12, b22 and
    the covariant gradient of h, plus the interior samples of ell.  On a
    ring of the grid they map the ring's cells, and equal the full grid's
    operators restricted to fields with the ring's symmetry.
    """
    key = "u_system"
    if key not in geom._cache:
        shifts, W = _wrapped(geom, _stencil_table(geom)[3])
        ops = {k: _ring_matrix(geom, shifts, W[:, :, t])
               for t, k in enumerate(JACOBIAN_TERMS)}
        ops["ell"] = ell_field(geom).values.ravel()
        geom._cache[key] = ops
    return geom._cache[key]


def _floor_system(geom: CapGeometry) -> dict:
    """``|A|`` of b11, b12 and b22 for the rounding floor, cached on geom.

    Each is ``sum_o kron(|R_o|, shift(o mod m))``, the absolute values taken
    before the ring wraps the offsets: on a ring, ``S |A| E`` of the full
    grid's A (S keeps the ring's cells, E tiles the ring onto the grid).  The
    ring's own ``|A|`` would first add the pole ghost to its cell (even data)
    or the psi stencil to itself (one cell), and give a lower floor.
    """
    key = "floor_system"
    if key not in geom._cache:
        shifts, W = _wrapped(geom, np.abs(_stencil_table(geom)[3]))
        geom._cache[key] = {k: _ring_matrix(geom, shifts, W[:, :, JACOBIAN_TERMS.index(k)])
                            for k in ("b11", "b12", "b22")}
    return geom._cache[key]


def _jacobian_pattern(geom: CapGeometry):
    """Fixed CSC pattern of every Jacobian on the ring geom, and its assembly map.

    ``J = sum_t diag(c_t) O_t + diag(d)``, O_t the :data:`JACOBIAN_TERMS`,
    has an entry at each (pair, shift) of the table where a term has a
    weight, in each of the ring's m cells j, and its values are a fixed
    linear map of the coefficients.  Returns ``(indptr, indices, T)``: that
    CSC pattern and the sparse map T with ``data = T @ C.ravel()``, where C
    (cells x terms) holds c_t for each term in order and d last.  Built once
    per ring, on the first Newton step.
    """
    key = "jacobian_pattern"
    if key not in geom._cache:
        shifts, W = _wrapped(geom, _stencil_table(geom)[3])
        p, s = np.nonzero(np.any(W != 0.0, axis=2))
        # the ring matrix of the entry numbers gives each CSC position its entry
        ids = np.zeros(W.shape[:2])
        ids[p, s] = np.arange(1, len(p) + 1)
        A = _ring_matrix(geom, shifts, ids).tocsc()
        # the value at a position in row r weights C[r, t] by its entry's weight of term t
        w = sp.csr_matrix(W[p, s])[A.data.astype(np.int64) - 1]
        nt = W.shape[2]
        cols = w.indices + np.repeat(A.indices * nt, np.diff(w.indptr))
        T = sp.csr_matrix((w.data, cols, w.indptr), shape=(A.nnz, geom.size * nt))
        geom._cache[key] = (A.indptr, A.indices, T)
    return geom._cache[key]


def _mode_terms(geom: CapGeometry):
    """psi-Fourier symbols of the Jacobian terms on a ring of m > 1 cells.

    A Jacobian with coefficients cbar constant along each phi row maps psi
    mode k of row i' to the same mode of row i, with the weight
    ``sum_t cbar[i, t] sigma_t[i, i'](k)``, ``sigma_t(k) = sum_o R_o
    exp(2 pi i k o / m)`` (the full grid's antipode ``m/2`` gives ``(-1)^k``).
    Returns ``(rows, cols, W, omega)``: the phi-row pairs of the table, the
    ring's weights ``W[pair, shift, t]`` and ``omega[shift, k] =
    exp(2 pi i k shift / m)``, k = 0 .. m // 2: ``sigma_t = W[:, :, t] @ omega``.
    Cached on geom.
    """
    key = "mode_terms"
    if key not in geom._cache:
        rows, cols, _, R = _stencil_table(geom)
        shifts, W = _wrapped(geom, R)
        m = geom.Npsi
        omega = np.exp(2j * np.pi / m * np.outer(shifts, np.arange(m // 2 + 1)))
        geom._cache[key] = (rows, cols, W, omega)
    return geom._cache[key]
