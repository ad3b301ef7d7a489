"""The sparse operators realize the dense frame stencil."""

import math

import numpy as np
import pytest

from capmink import build_grid
from capmink.grid import _u_frame
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
