import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from capmink import ScalarField, build_grid, ell_field
from capmink.grid import _ring, boundary_values, bump_profile

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


def tangential_mask(geom, u):
    """The boundary nodes where phi_monitor's identity is judged: those whose
    tangential gradient, the centred psi difference of u extrapolated to
    phi = theta, is at least half its max."""
    ub = boundary_values(geom, u.values)[0]
    t = np.abs(np.roll(ub, -1) - np.roll(ub, 1))
    return t >= 0.5 * np.max(t)


def ring_of(g, symmetry):
    """The psi ring of the symmetry: all Npsi cells ("none"), Npsi/2 ("even"), one
    ("rot"), or the reflection ring psi -> -psi of period Npsi ("mirror") or Npsi/2
    ("even_mirror")."""
    return _ring(g, *{"none": (g.Npsi, False), "even": (g.Npsi // 2, False), "rot": (1, False),
                      "mirror": (g.Npsi, True), "even_mirror": (g.Npsi // 2, True)}[symmetry])


def on_ring(ring, values):
    """The first ring.Npsi cells of each phi row of a full-grid field, flattened."""
    return np.reshape(values, (ring.Nphi, -1))[:, :ring.Npsi].ravel()


def fold_pair(g, ring):
    """(S, E): S keeps the ring's cells of the full grid, E is the ring's gather onto it:
    full-grid cell (i, j) takes ring cell (i, gather[j mod period])."""
    cells = np.arange(g.size)
    row, psi = np.divmod(cells, g.Npsi)
    m = ring.Npsi
    first = psi < m
    S = sp.csr_matrix((np.ones(ring.size), (row[first] * m + psi[first], cells[first])),
                      shape=(ring.size, g.size))
    gathered = row * m + ring.gather[psi % len(ring.gather)]
    E = sp.csr_matrix((np.ones(g.size), (cells, gathered)), shape=(g.size, ring.size))
    return S, E
