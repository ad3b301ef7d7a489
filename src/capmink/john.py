"""Sandwiching a capillary convex body between dilates of an ellipsoid cap.

From the body's extents we build the cap with base radius (2/3) R_in and
height H/3; the body then sits between the cap and its dilate by
(3/2) R_out / R_in + 3.  Containment of convex bodies is certified through
the pointwise inequality of capillary support functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import EllipsoidCap, cap_from_RH, cap_support
from .errors import ConfigError, DomainError
from .grid import BodyExtents, CapGeometry, ScalarField, curvature_tensor


@dataclass
class SandwichReport:
    cap: EllipsoidCap
    factor: float
    min_ratio: float
    max_ratio: float
    boundary_min_ratio: float
    boundary_max_ratio: float
    tol: float
    passed: bool
    ratio: np.ndarray  # h / support(cap) per node, which sandwich_ratio.csv carries


def height_ratio_check(extents: BodyExtents, theta: float):
    """H / R_in with its admissibility flag (must stay below tan(theta))."""
    ratio = extents.H / extents.R_in
    st, ct = math.sin(theta), math.cos(theta)
    return ratio, ratio * ct < st


def john_construct(extents: BodyExtents, theta: float):
    """Sandwich cap and outer dilation factor for a body with these extents."""
    ratio, ok = height_ratio_check(extents, theta)
    if not ok:
        raise DomainError(
            f"H/R_in = {ratio:.6g} >= tan(theta); not a capillary convex body"
        )
    cap = cap_from_RH(2.0 / 3.0 * extents.R_in, extents.H / 3.0, theta)
    factor = 1.5 * extents.R_out / extents.R_in + 3.0
    return cap, factor


SANDWICH_TOL = 5.0  # O(grid_eps) truncation tolerance of the ratios, in grid_eps


def verify_sandwich(
    geom: CapGeometry, h: ScalarField, cap: EllipsoidCap, factor: float
) -> SandwichReport:
    """Check support-function sandwiching: 1 <= h / support(cap) <= factor,
    each bound up to the truncation tolerance SANDWICH_TOL * grid_eps.  A
    factor that is not finite, which any body would pass, or is below 1 is a
    ConfigError."""
    if not (math.isfinite(factor) and factor >= 1.0):
        raise ConfigError(f"factor must be finite and at least 1, got {factor}")
    cd = curvature_tensor(geom, h)
    if cd.lambda_min <= 0.0:
        raise DomainError("support function is not strictly convex")
    tol = SANDWICH_TOL * geom.grid_eps()
    w = cap_support(geom, cap).values
    ratio = h.values / w
    min_ratio = float(np.min(ratio))
    max_ratio = float(np.max(ratio))
    passed = (min_ratio >= 1.0 - tol) and (max_ratio <= factor + tol)
    return SandwichReport(
        cap=cap,
        factor=factor,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        boundary_min_ratio=float(np.min(ratio[-1])),
        boundary_max_ratio=float(np.max(ratio[-1])),
        tol=tol,
        passed=passed,
        ratio=ratio,
    )
