"""Closed-form algebra of translated contact-angle ellipsoid caps.

An ellipsoid ``E(a, b) = {a^2 |x'|^2 + b^2 x3^2 <= 1}`` translated down by
``tau_star`` meets the plane ``{x3 = 0}`` at the prescribed contact angle
``theta``; the upper part is the cap ``L(a, b)``.  Everything here is exact
algebra: the forward map to base radius ``R`` and height ``H``, its inverse on
the open wedge ``R/H > 2 cot(theta)``, and the cap's capillary support
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError, WedgeError
from .grid import CapGeometry, ScalarField

_WEDGE_MARGIN = 1e-12


@dataclass(frozen=True)
class EllipsoidCap:
    a: float
    b: float
    theta: float
    eta: float
    tau_star: float
    lam: float
    R: float
    H: float


def make_cap(a: float, b: float, theta: float) -> EllipsoidCap:
    """Build the translated cap for semi-axis reciprocals (a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"semi-axis reciprocals must be positive, got ({a}, {b})")
    if not (0.0 < theta <= math.pi / 2.0 + 1e-15):
        raise DomainError(f"theta must lie in (0, pi/2], got {theta}")
    eta = a / b
    st, ct = math.sin(theta), math.cos(theta)
    root = math.sqrt(eta**2 * ct**2 + st**2)
    lam = eta * ct / root
    tau_star = lam / b
    R = st / (a * root)
    # 1 - lam = st^2 / (root (root + eta ct)), stable for lam near 1
    one_minus_lam = st**2 / (root * (root + eta * ct))
    H = one_minus_lam / b
    # closed forms must agree with the lambda-parametrized ones
    if abs(R - math.sqrt(one_minus_lam * (1.0 + lam)) / a) > 1e-12 * R:
        raise AssertionError("inconsistent R(a, b)")
    return EllipsoidCap(a, b, theta, eta, tau_star, lam, R, H)


def cap_from_RH(R: float, H: float, theta: float) -> EllipsoidCap:
    """Invert (R, H) -> (a, b); defined exactly on the open wedge."""
    if R <= 0.0 or H <= 0.0:
        raise DomainError(f"R and H must be positive, got ({R}, {H})")
    st, ct = math.sin(theta), math.cos(theta)
    # R/H > 2 cot(theta), strictly, with a relative margin
    if R * st <= 2.0 * H * ct * (1.0 + _WEDGE_MARGIN):
        raise WedgeError(
            f"(R, H) = ({R}, {H}) lies outside the wedge R/H > 2 cot(theta)"
        )
    denom = R * st - H * ct
    lam = H * ct / denom
    # 1 - lam = (R st - 2 H ct) / denom, stable for lam near 1 (small theta)
    one_minus_lam = (R * st - 2.0 * H * ct) / denom
    a = math.sqrt(one_minus_lam * (1.0 + lam)) / R
    b = one_minus_lam / H
    return make_cap(a, b, theta)


def cap_support(geom: CapGeometry, cap: EllipsoidCap) -> ScalarField:
    """Capillary support function of the cap, sampled on the grid.

    In the chart: sqrt(sin(phi)^2/a^2 + cos(phi)^2/b^2) - tau_star * cos(phi).
    """
    if abs(cap.theta - geom.theta) > 1e-12:
        raise UsageError(
            f"cap angle {cap.theta} does not match grid angle {geom.theta}"
        )
    sin2 = geom.sin_phi**2
    cos_ = geom.cos_phi
    vals = np.sqrt(sin2 / cap.a**2 + cos_**2 / cap.b**2) - cap.tau_star * cos_
    return ScalarField(geom, np.repeat(vals[:, None], geom.Npsi, axis=1))
