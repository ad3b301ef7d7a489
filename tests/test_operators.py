"""The sparse operators realize the dense frame stencil."""

import math

import numpy as np
import pytest

from capmink import build_grid
from capmink.grid import _u_frame, extend
from capmink.operators import _extension_matrix, u_system


@pytest.mark.parametrize("Nphi,Npsi", [(8, 16), (16, 32)])
def test_u_system_matches_dense_kernel(Nphi, Npsi):
    g = build_grid(math.pi / 3, Nphi, Npsi)
    u = np.random.default_rng(Nphi).uniform(0.5, 1.5, g.size)
    ops = u_system(g)
    dense = _u_frame(g, u)
    for k, d in zip(("b11", "b12", "b22", "g1", "g2"), dense):
        # the dense kernel differs only by the rounding of its row-mean
        # subtraction, which the |A| |u| backward-error scale bounds
        bound = 16.0 * np.finfo(float).eps * (abs(ops[k]) @ np.abs(u))
        assert np.all(np.abs(ops[k] @ u - d) <= bound), k


def test_extension_matrix_matches_extend():
    g = build_grid(math.pi / 3, 8, 16)
    v = np.random.default_rng(1).standard_normal(g.shape)
    assert np.array_equal(_extension_matrix(g) @ v.ravel(), extend(g, v).ravel())
