"""The sparse operators realize the dense frame stencil."""

import math

import numpy as np
import pytest

from capmink import build_grid
from capmink.grid import _stencil, _u_frame
from capmink.operators import JACOBIAN_TERMS, u_system

from conftest import fold_pair, ring_of


@pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (8, 16), (16, 32), (128, 256)])
def test_u_system_matches_dense_kernel(Nphi, Npsi):
    g = build_grid(math.pi / 3, Nphi, Npsi)
    u = np.random.default_rng(Nphi).uniform(0.5, 1.5, g.size)
    ops = u_system(g)
    dense = _u_frame(g, u)
    for k, d in zip(JACOBIAN_TERMS, dense):
        # the dense kernel differs only by the rounding of its row-mean
        # subtraction, which the |A| |u| backward-error scale bounds
        bound = 16.0 * np.finfo(float).eps * (abs(ops[k]) @ np.abs(u))
        assert np.all(np.abs(ops[k] @ u - d) <= bound), k


@pytest.mark.parametrize("symmetry", ["none", "even", "mirror", "even_mirror"])
def test_a_five_point_psi_table_reaches_both_kernels(symmetry):
    """The psi weights are stated once, in the stencil's psi table: with Fornberg's
    fourth-order weights swapped into it, the dense kernel and the sparse operators
    both take them, and still agree at test_u_system_matches_dense_kernel's bound."""
    g = build_grid(math.pi / 3, 16, 32)
    ring = ring_of(g, symmetry)
    u = np.random.default_rng(5).uniform(0.5, 1.5, ring.size)
    second_order = _u_frame(ring, u)
    e = g.dpsi
    # each +-o pair summed before the next, so that the first difference, odd under
    # psi -> -psi, vanishes exactly at a reflection ring's fixed cells, as its
    # folded operator weights do
    psi = ((1.0, {0: 1.0}), (1.0 / (12.0 * e), {1: 8.0, -1: -8.0, 2: -1.0, -2: 1.0}),
           (1.0 / (12.0 * e**2), {1: 16.0, -1: 16.0, 2: -1.0, -2: -1.0, 0: -30.0}))
    ring._cache["stencil"] = _stencil(ring)._replace(psi=psi, offsets=(-1, 1, -2, 2, 0))
    ops, dense = u_system(ring), _u_frame(ring, u)
    for k, d in zip(JACOBIAN_TERMS, dense):
        bound = 16.0 * np.finfo(float).eps * (abs(ops[k]) @ np.abs(u))
        assert np.all(np.abs(ops[k] @ u - d) <= bound), k
    assert not np.allclose(dense[2], second_order[2], rtol=0.0, atol=1e-9)  # b22 moved


@pytest.mark.parametrize("symmetry", ["none", "even", "rot", "mirror", "even_mirror"])
@pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (8, 8), (16, 32), (64, 128)])
def test_ring_operators_are_the_full_grid_operators_restricted(Nphi, Npsi, symmetry):
    """Each operator built on the ring of m cells is S A E of the full grid's,
    to rounding, where the pole offsets meet the psi stencil mod Npsi (Npsi = 4)
    or mod m (Npsi = 8) too, and where a reflection ring's mirror cells read
    one cell twice (E its gather); b12 and g2 vanish exactly on the one-cell
    ring."""
    g = build_grid(math.pi / 3, Nphi, Npsi)
    ring = ring_of(g, symmetry)
    S, E = fold_pair(g, ring)
    full, ops = u_system(g), u_system(ring)
    for k in JACOBIAN_TERMS:
        gap = abs(ops[k] - S @ full[k] @ E)
        bound = 4.0 * np.finfo(float).eps * (S @ abs(full[k]) @ E)
        assert (gap - bound).max() <= 0.0, k
    if symmetry == "rot":
        assert ops["b12"].count_nonzero() == ops["g2"].count_nonzero() == 0


def test_u_system_shares_no_state_between_calls():
    """Scaling a returned operator in place leaves the next call's operators those
    of a fresh grid, bit for bit."""
    g = build_grid(1.0, 8, 16)
    u_system(g)["b11"] *= 2.0
    again, fresh = u_system(g), u_system(build_grid(1.0, 8, 16))
    for k in JACOBIAN_TERMS:
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(again[k], name), getattr(fresh[k], name)), (k, name)
