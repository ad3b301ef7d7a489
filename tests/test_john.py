import json
import math

import numpy as np
import pytest

from capmink import (
    ConfigError,
    DomainError,
    ScalarField,
    build_grid,
    ell_field,
    embed_body,
    height_ratio_check,
    john_construct,
    verify_sandwich,
)
from capmink.problem_io import write_json_report
from conftest import robin_bump


@pytest.fixture(scope="module")
def unit_cap_body():
    geom = build_grid(math.pi / 3, 48, 96)
    h = ell_field(geom)
    return geom, h, embed_body(geom, h)


class TestHeightRatio:
    def test_unit_cap_admissible(self, unit_cap_body):
        geom, _, body = unit_cap_body
        ratio, ok = height_ratio_check(body.extents, geom.theta)
        assert ok
        # exact extents: H / R_in = (1 - cos) / sin = tan(theta / 2)
        assert ratio == pytest.approx(math.tan(geom.theta / 2.0), abs=1e-2)

    def test_flat_pancake_rejected_construct(self):
        from capmink.grid import BodyExtents

        ext = BodyExtents(R_out=1.0, R_in=1.0, H=5.0,
                          boundary_plane_defect=0.0)
        with pytest.raises(DomainError):
            john_construct(ext, math.pi / 4)


class TestConstruct:
    def test_rotationally_symmetric_factor_is_nine_halves(self, unit_cap_body):
        geom, _, body = unit_cap_body
        cap, factor = john_construct(body.extents, geom.theta)
        # R_out == R_in for a rotationally symmetric body
        assert factor == pytest.approx(4.5, abs=1e-6)

    def test_cap_dimensions(self, unit_cap_body):
        geom, _, body = unit_cap_body
        cap, _ = john_construct(body.extents, geom.theta)
        assert cap.R == pytest.approx(2.0 / 3.0 * body.extents.R_in)
        assert cap.H == pytest.approx(body.extents.H / 3.0)


class TestVerify:
    def test_unit_cap_sandwich_passes(self, unit_cap_body):
        geom, h, body = unit_cap_body
        cap, factor = john_construct(body.extents, geom.theta)
        report = verify_sandwich(geom, h, cap, factor)
        assert report.passed
        assert report.min_ratio >= 1.0 - report.tol
        assert report.max_ratio <= factor + report.tol

    def test_bump_sandwich_passes(self):
        geom = build_grid(1.2, 48, 96)
        h = robin_bump(geom, eps=0.05)
        body = embed_body(geom, h)
        cap, factor = john_construct(body.extents, geom.theta)
        report = verify_sandwich(geom, h, cap, factor)
        assert report.passed

    def test_ratio_is_the_checked_ratio(self):
        """``ratio`` is h / support(cap) per node, the array whose extremes are the
        reported ratios, bit for bit."""
        from capmink.ellipsoid import cap_support

        geom = build_grid(1.2, 16, 32)
        h = robin_bump(geom, eps=0.05)
        cap, factor = john_construct(embed_body(geom, h).extents, geom.theta)
        report = verify_sandwich(geom, h, cap, factor)
        assert np.array_equal(report.ratio, h.values / cap_support(geom, cap).values)
        assert (report.min_ratio, report.max_ratio) == (np.min(report.ratio),
                                                        np.max(report.ratio))
        assert (report.boundary_min_ratio, report.boundary_max_ratio) == (
            np.min(report.ratio[-1]), np.max(report.ratio[-1]))

    def test_boundary_ratios_within_global(self, unit_cap_body):
        geom, h, body = unit_cap_body
        cap, factor = john_construct(body.extents, geom.theta)
        report = verify_sandwich(geom, h, cap, factor)
        assert report.min_ratio <= report.boundary_min_ratio
        assert report.boundary_max_ratio <= report.max_ratio

    def test_too_small_factor_fails(self, unit_cap_body):
        geom, h, body = unit_cap_body
        cap, _ = john_construct(body.extents, geom.theta)
        # the inner cap alone cannot contain the body
        report = verify_sandwich(geom, h, cap, 1.0)
        assert not report.passed

    @pytest.mark.parametrize("factor", [math.inf, math.nan, 0.999, -2.0])
    def test_bad_factor_rejected(self, unit_cap_body, factor):
        """A factor of inf would pass any body, and one below 1 none."""
        geom, h, body = unit_cap_body
        cap, _ = john_construct(body.extents, geom.theta)
        with pytest.raises(ConfigError):
            verify_sandwich(geom, h, cap, factor)

    def test_nonconvex_h_rejected(self, unit_cap_body):
        geom, _, body = unit_cap_body
        cap, factor = john_construct(body.extents, geom.theta)
        phi = geom.phi_nodes[:, None]
        wiggly = ScalarField(
            geom,
            np.broadcast_to(
                1.0 + 0.5 * np.cos(40.0 * phi), geom.shape
            ).copy(),
        )
        with pytest.raises(DomainError):
            verify_sandwich(geom, wiggly, cap, factor)

    def test_report_json_has_pass_key(self, unit_cap_body, tmp_path):
        """The JSON writer writes the report's passed as "pass" and its cap's lam as
        "lambda"."""
        geom, h, body = unit_cap_body
        cap, factor = john_construct(body.extents, geom.theta)
        path = tmp_path / "sandwich.json"
        write_json_report(path, verify_sandwich(geom, h, cap, factor), {})
        doc = json.loads(path.read_text())
        assert doc["pass"] is True and "passed" not in doc
        assert doc["cap"]["lambda"] == pytest.approx(cap.lam)
