"""Sparse matrix form of the frame stencil of :mod:`capmink.grid`.

The stencil of ``b = hess(h) + h I`` and the covariant gradient of
``h = ell * u`` is written once, in ``grid._stencil``: a ghost map X from u
to the ghost-padded h, a phi-weight matrix Phi from three psi blocks of
that h to the frame terms, and a psi table of each block's scale and its
weights by psi offset.  The dense kernel ``grid._u_frame`` evaluates it;
this module reads the same stencil off as linear maps on flattened fields,
so the solver can build an exact Jacobian.  Flattening is row-major over
``(phi, psi)``.  The dense kernel subtracts the row mean before its psi
differences, so the two agree up to rounding, not bit for bit.

Each frame operator has coefficients that depend on phi alone and reads u
at the psi table's offsets (-1, 0 and 1), and at the same around the
antipode for the pole ghost.  :func:`_stencil_table` lists it as a map from
each psi offset o (mod the full grid's Npsi) to the Nphi x Nphi matrix R_o
of its phi-row weights: Phi's blocks times X, each weighted by its block's
psi weight at o times the block's scale.  On the psi
ring of m cells that the solver works on (:func:`capmink.grid._ring`;
m = Npsi is the grid itself), of period P and gather map g, the table gives
the operators ``S A E`` of the full grid's A (S keeps the ring's cells, E is
the gather): cell (i, j) reads cell ``g((j + o) mod P)`` with weight R_o, so
a reflection ring's mirror cells read one cell twice, and a product sums the
two.  One builder, :func:`_build_layout`, turns the table into them (the
table is not cached): a fixed-stride layout on which the solver assembles
the Newton Jacobian and the rounding floor's ``S |A| E`` per step, and the
psi-Fourier symbols ``sum_o R_o exp(2 pi i k o / P)`` of the period.
:func:`_ring_layout` caches it once per solver ring.  :func:`u_system`,
which no solver path calls, reads its operators off a layout of its own and
caches nothing: each call returns fresh matrices, and the grid holds no
memory for them after the call.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
import scipy.sparse as sp

from .grid import CapGeometry, _ell, _stencil

# the stencil operators that enter the Newton Jacobian, each weighted per
# cell, in the order of the frame terms of grid._stencil
JACOBIAN_TERMS = ("b11", "b12", "b22", "g1", "g2")

_Layout = namedtuple("_Layout", "indices indptr W F rows cols pair_W omega")


def _stencil_table(geom: CapGeometry):
    """The Jacobian terms as one psi-offset table, uncached: read once per ring layout.

    Returns ``(rows, cols, offsets, R)``: the phi-row pairs ``(i, i')`` that
    carry a weight, in column-major order; the psi offsets, mod the full
    grid's Npsi, in the order of the stencil's psi table and then the pole
    ghost's around the antipode (an offset met twice, as at Npsi = 4, is one
    offset); and ``R[pair, offset, t]``, the weight that row ``(i, j)`` of
    term t (the :data:`JACOBIAN_TERMS`, then the diagonal) gives u at
    ``(i', j + offset)``, each psi weight times its block's scale (exact for
    the table's weights).  geom may be a ring of the grid: the table depends
    only on the grid's dpsi.
    """
    st, N = _stencil(geom), geom.Nphi
    npsi = round(2.0 * math.pi / geom.dpsi)  # the full grid's Npsi, also on a ring of it
    antipode = npsi // 2
    offsets = list(dict.fromkeys((s + o) % npsi for s in (0, antipode) for o in st.offsets))
    # Phi's blocks times X: column i' < N is u at offset 0, column N row 0 at the antipode
    A = (st.Phi @ sp.block_diag([st.X] * len(st.psi))).tocoo()
    term, row = np.divmod(A.row, N)
    block, col = np.divmod(A.col, N + 1)
    entries = []  # (pair key, offset, term, weight) arrays
    for b, (scale, psi_weights) in enumerate(st.psi):
        on = block == b
        for o, w in psi_weights.items():
            at = np.where(col[on] < N, offsets.index(o % npsi),
                          offsets.index((antipode + o) % npsi))
            entries.append(((col[on] % N) * N + row[on], at, term[on], w * scale * A.data[on]))
    keys, offset, term, weight = (np.concatenate(x) for x in zip(*entries))
    keys, pair = np.unique(keys, return_inverse=True)
    R = np.zeros((len(keys), len(offsets), len(JACOBIAN_TERMS) + 1))
    np.add.at(R, (pair, offset, term), weight)
    cols, rows = np.divmod(keys, N)
    R[rows == cols, offsets.index(0), -1] = 1.0
    return rows, cols, offsets, R


def _wrapped(geom: CapGeometry, offsets, R):
    """``(shifts, W)``: table weights R (pairs x offsets x terms) on the ring geom.

    The weights of the offsets that coincide mod the ring's period P (its m
    cells on a periodic ring) are summed, in table order, into the column of
    their shift ``o mod P``.  The offsets come in the order of the stencil's
    psi table, (-1, 0, 1), and then around the antipode; in that order the
    opposite psi weights at -1 and 1, and at the antipode -1 and +1, are
    summed with only the zero b12 and g2 weights at 0 between them, so the
    b12 and g2 weights that cancel on a one-cell ring cancel exactly.
    """
    shifts, slot = np.unique(np.asarray(offsets) % len(geom.gather), return_inverse=True)
    W = np.zeros((R.shape[0], len(shifts), R.shape[2]))
    for o, s in enumerate(slot):
        W[:, s] += R[:, o]
    return shifts, W


def u_system(geom: CapGeometry) -> dict:
    """Operators for the quotient formulation h = ell * u with Neumann ghosts.

    Returns csr matrices mapping the interior u-vector to b11, b12, b22 and
    the covariant gradient of h, plus the interior samples of ell.  On a
    ring of the grid they map the ring's cells, and equal the full grid's
    operators restricted to fields with the ring's symmetry.  Each is read
    off a layout that :func:`_build_layout` builds for this call alone: the
    slots where its weight is nonzero, with sorted column indices, a
    reflection ring's two slots on one cell summed into one.  Nothing
    is cached; every call returns fresh matrices, which the caller may change.
    """
    L = _build_layout(geom)
    cells = L.indices.reshape(geom.Nphi, geom.Npsi, -1)
    ops = {}
    for t, k in enumerate(JACOBIAN_TERMS):
        w = np.broadcast_to(L.W[:, None, t], cells.shape)  # row i's weights in cell (i, j)
        keep = w != 0.0  # the slots of term t, without the padding
        indptr = np.append(0, np.cumsum(np.count_nonzero(keep, axis=2)))
        ops[k] = sp.csr_matrix((w[keep], cells[keep], indptr), shape=(geom.size,) * 2)
        ops[k].sum_duplicates()  # a reflection ring's mirror cells read one cell twice
    ops["ell"] = _ell(geom).ravel()
    return ops


def _ring_layout(geom: CapGeometry) -> _Layout:
    """:func:`_build_layout` of the ring geom, cached on it and read-only.

    Every Jacobian shares the layout's arrays, so an in-place scipy operation
    on one, as ``spsolve``'s ``sum_duplicates``, raises ValueError, not
    rewrites them.
    """
    key = "ring_layout"
    if key not in geom._cache:
        geom._cache[key] = _build_layout(geom)
        for a in geom._cache[key]:
            a.flags.writeable = False
    return geom._cache[key]


def _build_layout(geom: CapGeometry) -> _Layout:
    """Every operator on the ring geom, from one wrap of the stencil table, uncached.

    Cell (i, j) has the (pair, shift) slots and weights of every cell of phi
    row i, slot (pair, s) reading cell ``gather[(j + s) mod P]`` of the pair's
    phi row: ``indices`` and ``indptr`` list E per cell (ELLPACK; Saad,
    *Iterative Methods for Sparse Linear Systems*, 2003, sec. 3.4), a row with
    fewer padded with the cell's diagonal at weight 0.  On a reflection ring
    two slots of a mirror cell can read one cell; a product sums them.
    ``W[i, t, e]`` weights slot e of row i in term t (the
    :data:`JACOBIAN_TERMS`, then the diagonal): cell coefficients C (cells x
    terms) give the data ``matmul(C.reshape(Nphi, m, -1), W)``.  ``F[i, k, e]``
    weights it in the rounding floor's ``|A|`` of b11, 2 b12 and b22, taken
    before the ring wraps the offsets: ``S |A| E`` of the full grid's A (S keeps
    the ring's cells, E gathers the ring onto the grid), where the ring's own
    would add the pole ghost to its cell (even data) or the psi stencil to
    itself (one cell).  With coefficients cbar constant along each phi row, a
    ring Jacobian maps psi mode k of row i' to row i with the weight ``sum_t
    cbar[i, t] sigma_t[i, i'](k)``, ``sigma_t = pair_W[:, :, t] @ omega`` over
    the phi-row pairs ``(rows, cols)``, ``omega[shift, k] = exp(2 pi i k shift
    / P)`` for k = 0 .. P // 2 (the full grid's antipode gives ``(-1)^k``).
    """
    rows, cols, offsets, R = _stencil_table(geom)
    shifts, W = _wrapped(geom, offsets, R)
    F = _wrapped(geom, offsets, np.abs(R))[1]  # no weight cancels: the slots of every term
    p, s = np.nonzero(np.any(F != 0.0, axis=2))  # by pair (col, then row), then shift
    order = np.argsort(rows[p], kind="stable")
    p, s, i = p[order], s[order], rows[p[order]]
    e = np.arange(len(i)) - np.searchsorted(i, i)  # slot within row i
    N, m, E = geom.Nphi, geom.Npsi, int(np.max(e)) + 1
    gather, period = geom.gather, len(geom.gather)
    # slot e of row i reads phi row col at psi shift shift; padding reads the cell
    col, shift = np.repeat(np.arange(N)[:, None], E, axis=1), np.zeros((N, E), int)
    col[i, e], shift[i, e] = cols[p], shifts[s]
    Wrow, Frow = np.zeros((N, W.shape[2], E)), np.zeros((N, 3, E))
    Wrow[i, :, e], Frow[i, :, e] = W[p, s], F[p, s, :3] * [1.0, 2.0, 1.0]
    cells = col[:, None] * m + gather[(np.arange(m)[:, None] + shift[:, None]) % period]
    omega = np.exp(2j * np.pi / period * np.outer(shifts, np.arange(period // 2 + 1)))
    return _Layout(cells.astype(np.int32).ravel(),
                   np.arange(0, geom.size * E + 1, E, dtype=np.int32),
                   Wrow, Frow, rows, cols, W, omega)
