import math

import numpy as np
import pytest

from capmink import (
    ConfigError,
    DomainError,
    ScalarField,
    UsageError,
    build_grid,
    curvature_tensor,
    ell_field,
    ell_grad_sq,
    embed_body,
    evenness_defect,
    grad_field,
    grad_sq,
    robin_residual,
    symmetrize_even,
)
from capmink.grid import (
    boundary_values,
    bump_profile,
    extend,
    field_from_csv,
    field_to_csv,
    hessian_frame,
    top_ghost_coeffs,
)

from conftest import robin_bump


class TestGeometry:
    def test_nodes_cell_centered(self, geom_pi3):
        g = geom_pi3
        assert g.phi_nodes[0] == pytest.approx(g.dphi / 2)
        assert g.phi_nodes[-1] == pytest.approx(g.theta - g.dphi / 2)
        assert g.psi_nodes[0] == 0.0
        assert len(g.psi_nodes) == g.Npsi

    def test_area_weights_sum_to_cap_area(self):
        g = build_grid(math.pi / 3, 200, 8)
        exact = 2.0 * math.pi * (1.0 - math.cos(g.theta))
        assert np.sum(g.area_weights) == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize(
        "theta,Nphi,Npsi",
        [(-0.1, 8, 8), (0.0, 8, 8), (math.pi / 2 + 0.1, 8, 8)],
    )
    def test_bad_theta_rejected(self, theta, Nphi, Npsi):
        with pytest.raises(DomainError):
            build_grid(theta, Nphi, Npsi)

    @pytest.mark.parametrize("Nphi,Npsi", [(3, 8), (8, 7), (8, 2)])
    def test_bad_resolution_rejected(self, Nphi, Npsi):
        with pytest.raises(ConfigError):
            build_grid(1.0, Nphi, Npsi)

    def test_field_shape_mismatch_rejected(self, geom_pi3):
        with pytest.raises(UsageError):
            ScalarField(geom_pi3, np.ones((3, 3)))

    def test_field_nonfinite_rejected(self, geom_pi3):
        vals = np.ones(geom_pi3.shape)
        vals[0, 0] = np.nan
        with pytest.raises(DomainError):
            ScalarField(geom_pi3, vals)


class TestOperators:
    def test_ell_satisfies_robin(self, geom_pi3):
        res = robin_residual(geom_pi3, ell_field(geom_pi3))
        assert np.max(np.abs(res)) < 5.0 * geom_pi3.grid_eps()

    def test_ell_identity_b_equals_I(self, geom_pi3):
        cd = curvature_tensor(geom_pi3, ell_field(geom_pi3))
        tol = 5.0 * geom_pi3.grid_eps()
        assert np.max(np.abs(cd.b11 - 1.0)) < tol
        assert np.max(np.abs(cd.b22 - 1.0)) < tol
        assert np.max(np.abs(cd.b12)) < tol
        assert cd.lambda_min > 0.9

    def test_ell_gradient_matches_analytic(self, geom_pi3):
        g = geom_pi3
        gsq = grad_sq(g, ell_field(g))
        assert np.max(np.abs(gsq - ell_grad_sq(g))) < 10.0 * g.grid_eps()

    def test_constant_field_has_zero_gradient(self, geom_pi3):
        one = ScalarField(geom_pi3, np.ones(geom_pi3.shape))
        g1, g2 = grad_field(geom_pi3, one)
        assert np.max(np.abs(g1.values)) == 0.0
        assert np.max(np.abs(g2.values)) == 0.0

    def test_constant_is_neumann_exact(self, geom_pi3):
        one = np.ones(geom_pi3.shape)
        ext = extend(geom_pi3, one, "neumann")
        assert np.max(np.abs(ext - 1.0)) < 1e-14

    def test_hessian_second_order(self):
        """b(ell) - I decays at second order under grid doubling."""
        theta = math.pi / 4
        sups = []
        for N in (16, 32, 64):
            g = build_grid(theta, N, 2 * N)
            b11, b12, b22, _, _ = hessian_frame(g, ell_field(g).values, "robin")
            sups.append(
                max(
                    np.max(np.abs(b11 - 1.0)),
                    np.max(np.abs(b22 - 1.0)),
                    np.max(np.abs(b12)),
                )
            )
        assert sups[0] / sups[1] > 3.0
        assert sups[1] / sups[2] > 3.0

    def test_top_ghost_enforces_robin(self, geom_pi3):
        g = geom_pi3
        h = robin_bump(g)
        ext = extend(g, h.values, "robin")
        # cubic through the four values collocated at phi = theta
        from capmink.grid import _W_DERIV, _W_VALUE

        stack = np.stack([ext[-4], ext[-3], ext[-2], ext[-1]])
        val = np.einsum("i,ij->j", _W_VALUE, stack)
        der = np.einsum("i,ij->j", _W_DERIV, stack) / g.dphi
        assert np.max(np.abs(der - g.cot_theta * val)) < 1e-12

    def test_top_ghost_unknown_bc(self, geom_pi3):
        with pytest.raises(ConfigError):
            top_ghost_coeffs(geom_pi3, "dirichlet")

    def test_boundary_values_exact_on_quadratic(self, geom_pi3):
        g = geom_pi3
        vals = np.repeat(((g.phi_nodes - g.theta) ** 2)[:, None], g.Npsi, axis=1)
        val, der = boundary_values(g, vals)
        assert np.max(np.abs(val)) < 1e-12
        assert np.max(np.abs(der)) < 1e-10


class TestSymmetry:
    def test_symmetrize_even_is_projection(self, geom_pi3):
        rng = np.random.default_rng(7)
        s = ScalarField(geom_pi3, rng.uniform(1.0, 2.0, geom_pi3.shape))
        e = symmetrize_even(geom_pi3, s)
        assert evenness_defect(geom_pi3, e.values) < 1e-15
        e2 = symmetrize_even(geom_pi3, e)
        assert np.max(np.abs(e2.values - e.values)) < 1e-15

    def test_evenness_defect_detects_odd_mode(self, geom_pi3):
        g = geom_pi3
        s = ScalarField.from_function(g, lambda phi, psi: 1.0 + 0.1 * np.cos(psi))
        assert evenness_defect(g, s.values) > 0.01

    def test_even_modes_have_zero_defect(self, geom_pi3):
        g = geom_pi3
        s = ScalarField.from_function(
            g, lambda phi, psi: 1.0 + 0.1 * np.cos(2 * psi) * np.sin(phi)
        )
        assert evenness_defect(g, s.values) < 1e-15


class TestEmbedding:
    def test_unit_cap_embeds_to_unit_sphere_cap(self, geom_pi3):
        g = geom_pi3
        body = embed_body(g, ell_field(g))
        # the unit cap has base radius sin(theta) and height 1 - cos(theta)
        assert body.extents.R_out == pytest.approx(g.sin_theta, abs=5e-3)
        assert body.extents.R_in == pytest.approx(g.sin_theta, abs=5e-3)
        assert body.extents.H == pytest.approx(1.0 - g.cos_theta, abs=5e-3)

    def test_boundary_plane_defect_second_order(self):
        sups = []
        for N in (16, 32, 64):
            g = build_grid(math.pi / 3, N, 2 * N)
            h = robin_bump(g, eps=0.05)
            body = embed_body(g, h)
            sups.append(body.extents.boundary_plane_defect)
        assert sups[0] / sups[1] > 2.5
        assert sups[1] / sups[2] > 2.5

    def test_nonpositive_h_rejected(self, geom_pi3):
        with pytest.raises(DomainError):
            embed_body(geom_pi3, ScalarField(geom_pi3, np.full(geom_pi3.shape, 0.0) - 1.0))


class TestSerialization:
    def test_csv_round_trip(self, geom_pi3, tmp_path):
        s = robin_bump(geom_pi3)
        path = tmp_path / "field.csv"
        field_to_csv(s, path, "unit test")
        back = field_from_csv(path, geom_pi3.theta)
        assert back.geometry.shape == geom_pi3.shape
        assert np.max(np.abs(back.values - s.values)) < 1e-15

    def test_csv_comment_preserved(self, geom_pi3, tmp_path):
        path = tmp_path / "field.csv"
        field_to_csv(ell_field(geom_pi3), path, "provenance line")
        assert open(path).readline() == "# provenance line\n"

    @pytest.mark.parametrize(
        "edit", ["drop_20_rows", "drop_last_ring", "duplicate_cell", "negative_j",
                 "other_theta", "bad_value"]
    )
    def test_csv_malformed_rejected(self, tmp_path, edit):
        g = build_grid(math.pi / 3, 8, 16)
        path = tmp_path / "field.csv"
        field_to_csv(ell_field(g), path)
        header, *rows = path.read_text().splitlines()
        theta = g.theta
        if edit == "drop_20_rows":
            rows = rows[:50] + rows[70:]
        elif edit == "drop_last_ring":
            rows = rows[: -g.Npsi]
        elif edit == "duplicate_cell":
            rows[5] = rows[4]
        elif edit == "negative_j":
            rows[3] = ",".join(["1", "-1"] + rows[3].split(",")[2:])
        elif edit == "other_theta":
            theta = math.pi / 4
        else:
            rows[7] = ",".join(rows[7].split(",")[:4] + ["nan?"])
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ConfigError):
            field_from_csv(path, theta)


def test_bump_profile_neumann_at_theta():
    theta = math.pi / 3
    phi = np.linspace(theta - 1e-5, theta, 7)
    vals = bump_profile(phi, theta)
    slope = (vals[-1] - vals[-2]) / (phi[-1] - phi[-2])
    assert abs(slope) < 1e-4
