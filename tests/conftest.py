import math

import numpy as np
import pytest
from hypothesis import settings

from capmink import ScalarField, build_grid, ell_field
from capmink.grid import bump_profile

# the same examples on every run, and no per-example deadline on a loaded host
settings.register_profile("tier1", deadline=None, derandomize=True, max_examples=10)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def geom_pi3():
    return build_grid(math.pi / 3, 32, 64)


@pytest.fixture(scope="session")
def geom_pi2():
    return build_grid(math.pi / 2, 32, 64)


def neumann_bump(geom, eps=0.1, k=2):
    """A positive field satisfying the homogeneous Neumann condition."""
    phi = geom.phi_nodes[:, None]
    psi = geom.psi_nodes[None, :]
    vals = 1.0 + eps * np.cos(k * psi) * bump_profile(phi, geom.theta)
    return ScalarField(geom, np.broadcast_to(vals, geom.shape).copy())


def robin_bump(geom, eps=0.1, k=2):
    """A positive Robin field: ell times a Neumann bump."""
    u = neumann_bump(geom, eps, k)
    return ScalarField(geom, ell_field(geom).values * u.values)
