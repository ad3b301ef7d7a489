import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmink import (
    DomainError,
    UsageError,
    WedgeError,
    build_grid,
    cap_from_RH,
    cap_support,
    curvature_tensor,
    make_cap,
    robin_residual,
)
from capmink.problem_io import write_json_report


class TestMakeCap:
    def test_sphere_cap_closed_form(self):
        """a = b = 1 reproduces the translated unit sphere."""
        theta = math.pi / 3
        cap = make_cap(1.0, 1.0, theta)
        assert cap.eta == pytest.approx(1.0)
        assert cap.lam == pytest.approx(math.cos(theta))
        assert cap.R == pytest.approx(math.sin(theta))
        assert cap.H == pytest.approx(1.0 - math.cos(theta))

    def test_hemisphere_has_no_translation(self):
        cap = make_cap(2.0, 0.7, math.pi / 2)
        assert cap.lam == pytest.approx(0.0, abs=1e-15)
        assert cap.tau_star == pytest.approx(0.0, abs=1e-15)
        assert cap.R == pytest.approx(1.0 / 2.0)
        assert cap.H == pytest.approx(1.0 / 0.7)

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_axes_rejected(self, a, b):
        with pytest.raises(DomainError):
            make_cap(a, b, 1.0)

    def test_bad_theta_rejected(self):
        with pytest.raises(DomainError):
            make_cap(1.0, 1.0, math.pi / 2 + 0.2)

    def test_wedge_membership(self):
        """Every forward image satisfies the strict wedge inequality."""
        for a, b, theta in [(0.3, 2.0, 0.4), (5.0, 0.2, 1.3), (1.0, 1.0, 0.9)]:
            cap = make_cap(a, b, theta)
            assert cap.R / cap.H > 2.0 * math.cos(theta) / math.sin(theta)

    def test_json_writes_lam_as_lambda(self, tmp_path):
        write_json_report(tmp_path / "cap.json", make_cap(1.0, 2.0, 1.0), {})
        d = json.loads((tmp_path / "cap.json").read_text())
        assert "lambda" in d and "lam" not in d


class TestInverse:
    # the inverse map's relative condition number is (1 + lam) / (1 - lam);
    # the ranges keep lam away from 1 so one ulp of (R, H) stays below 1e-12
    @given(
        a=st.floats(0.4, 2.5),
        b=st.floats(0.4, 2.5),
        theta=st.floats(0.35, math.pi / 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, a, b, theta):
        cap = make_cap(a, b, theta)
        back = cap_from_RH(cap.R, cap.H, theta)
        assert abs(back.a - a) <= 1e-12 * a
        assert abs(back.b - b) <= 1e-12 * b

    def test_wedge_boundary_rejected(self):
        theta = math.pi / 4
        R, H = 1.0, math.tan(theta) / 2.0  # exactly on R/H = 2 cot(theta)
        with pytest.raises(WedgeError):
            cap_from_RH(R, H, theta)

    def test_outside_wedge_rejected(self):
        with pytest.raises(WedgeError):
            cap_from_RH(0.5, 2.0, math.pi / 4)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            cap_from_RH(-1.0, 1.0, 1.0)

    def test_hemisphere_wedge_is_everything(self):
        # at theta = pi/2 the wedge constraint is vacuous
        cap = cap_from_RH(0.01, 100.0, math.pi / 2)
        assert cap.a > 0 and cap.b > 0


class TestSupport:
    def test_unit_sphere_cap_support_is_ell(self):
        theta = math.pi / 3
        geom = build_grid(theta, 32, 64)
        cap = make_cap(1.0, 1.0, theta)
        w = cap_support(geom, cap)
        ell = 1.0 - geom.cos_theta * geom.cos_phi
        assert np.max(np.abs(w.values - ell[:, None])) < 1e-14

    def test_support_satisfies_robin(self):
        theta = 1.1
        geom = build_grid(theta, 48, 96)
        cap = make_cap(0.8, 1.7, theta)
        res = robin_residual(geom, cap_support(geom, cap))
        assert np.max(np.abs(res)) < 20.0 * geom.grid_eps()

    def test_support_is_convex(self):
        theta = 1.1
        geom = build_grid(theta, 48, 96)
        cap = make_cap(0.8, 1.7, theta)
        cd = curvature_tensor(geom, cap_support(geom, cap))
        assert cd.lambda_min > 0.0

    def test_angle_mismatch_rejected(self):
        geom = build_grid(1.0, 16, 32)
        cap = make_cap(1.0, 1.0, 1.2)
        with pytest.raises(UsageError):
            cap_support(geom, cap)
