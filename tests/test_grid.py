import copy
import csv
import dataclasses
import math
import pickle

import numpy as np
import pytest

import capmink.grid as grid_module
from capmink import (
    ConfigError,
    DomainError,
    ProblemSpec,
    ScalarField,
    UsageError,
    build_grid,
    continuation_solve,
    curvature_tensor,
    ell_bump_f_exact,
    ell_bump_field,
    ell_field,
    ell_grad_sq,
    embed_body,
    evenness_defect,
    gradient_quotient,
    john_construct,
    noncollapse_check,
    phi_monitor,
    q_monitor,
    robin_residual,
    verify_sandwich,
)
from capmink.grid import (
    _W_DERIV,
    _psi_period,
    _ring,
    _stencil,
    _tiled,
    _u_frame,
    boundary_values,
    bump_profile,
    field_from_csv,
    field_to_csv,
)

from conftest import neumann_bump, ring_of, robin_bump


class TestGeometry:
    def test_nodes_cell_centered(self, geom_pi3):
        g = geom_pi3
        assert g.phi_nodes[0] == pytest.approx(g.dphi / 2)
        assert g.phi_nodes[-1] == pytest.approx(g.theta - g.dphi / 2)
        assert g.psi_nodes[0] == 0.0
        assert len(g.psi_nodes) == g.Npsi

    @pytest.mark.parametrize(
        "theta,Nphi,Npsi",
        [(-0.1, 8, 8), (0.0, 8, 8), (math.pi / 2 + 0.1, 8, 8)],
    )
    def test_bad_theta_rejected(self, theta, Nphi, Npsi):
        with pytest.raises(DomainError):
            build_grid(theta, Nphi, Npsi)

    @pytest.mark.parametrize("Nphi,Npsi", [(3, 8), (8, 7), (8, 2), (8, 10**30), (10**30, 8)])
    def test_bad_resolution_rejected(self, Nphi, Npsi):
        """Too coarse, odd, or too large for a float64 field to be addressed."""
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


class TestImmutableField:
    def test_values_cannot_be_written(self, geom_pi3):
        h = ell_field(geom_pi3)
        with pytest.raises(ValueError):
            h.values[0, 0] = 2.0

    def test_values_cannot_be_assigned(self, geom_pi3):
        h = ell_field(geom_pi3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.values = np.ones(geom_pi3.shape)

    def test_writing_the_input_array_leaves_the_field_unchanged(self, geom_pi3):
        vals = np.ones(geom_pi3.shape)
        h = ScalarField(geom_pi3, vals)
        vals[0, 0] = 2.0
        assert np.all(h.values == 1.0)

    def test_frame_is_kept_read_only_with_the_field(self, geom_pi3):
        """Later calls return the one frame, bitwise the frame of the same values
        in a fresh field; neither its arrays nor its attributes can be written."""
        h = robin_bump(geom_pi3)
        cd = curvature_tensor(geom_pi3, h)
        assert curvature_tensor(geom_pi3, h) is cd
        fresh = curvature_tensor(geom_pi3, ScalarField(geom_pi3, h.values))
        for name in ("b11", "b12", "b22", "sigma1", "g1", "g2"):
            arr = getattr(cd, name)
            assert np.array_equal(arr, getattr(fresh, name))
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        assert cd.lambda_min == fresh.lambda_min
        with pytest.raises(dataclasses.FrozenInstanceError):
            cd.g1 = np.zeros(geom_pi3.shape)

    def test_equality_and_hash_are_identity(self, geom_pi3):
        """Fields compare by identity, without comparing their arrays, and can be
        set members and dict keys."""
        h = ell_field(geom_pi3)
        twin = ScalarField(geom_pi3, h.values)
        assert h == h and h != twin and not (h == twin)
        assert len({h, twin, h}) == 2
        assert {h: 1, twin: 2}[h] == 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda h: pickle.loads(pickle.dumps(h))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_is_read_only_and_evaluates_its_own_frame(self, clone):
        """A copy is built anew from its geometry and values: it cannot be
        written, and its frame is its own, equal to the original's bitwise."""
        g = build_grid(1.0, 16, 32)
        h = robin_bump(g)
        cd = curvature_tensor(g, h)
        twin = clone(h)
        assert not twin.values.flags.writeable
        assert np.array_equal(twin.values, h.values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.values = np.ones(g.shape)
        twin_cd = curvature_tensor(g, twin)
        assert twin_cd is not cd
        for name in ("b11", "b12", "b22", "sigma1", "g1", "g2"):
            assert np.array_equal(getattr(twin_cd, name), getattr(cd, name))

    def test_a_kept_frame_still_checks_the_grid(self, geom_pi3):
        h = ell_field(geom_pi3)
        curvature_tensor(geom_pi3, h)
        with pytest.raises(UsageError, match="not on the grid"):
            curvature_tensor(build_grid(1.0, 32, 64), h)


def test_certificates_of_one_field_evaluate_one_frame(monkeypatch):
    """The John sandwich, the non-collapsing estimate and the trace function all
    read the frame that the first curvature_tensor call on h evaluated."""
    geom = build_grid(1.0, 16, 32)
    h = ell_bump_field(geom, 0.05)
    calls, real = [], grid_module._u_frame
    monkeypatch.setattr(grid_module, "_u_frame", lambda *a: calls.append(a) or real(*a))
    cap, factor = john_construct(embed_body(geom, h).extents, geom.theta)
    assert verify_sandwich(geom, h, cap, factor).passed
    n = gradient_quotient(geom, h, 1.0).N_observed
    assert noncollapse_check(geom, h, 1.0, n, factor).passed
    q_monitor(geom, h, 2.0)
    assert len(calls) == 1


def _sandwich(geom, h):
    cap, factor = john_construct(embed_body(geom, ell_field(geom)).extents, geom.theta)
    return verify_sandwich(geom, h, cap, factor)


def _quotient(h):
    """u = h / ell on h's own grid: phi_monitor takes a Neumann u, and ell itself is
    not Neumann."""
    return ScalarField(h.geometry, h.values / ell_field(h.geometry).values)


# every certificate that differentiates or samples a field h on the grid it is given
CERTIFICATES = {
    "curvature_tensor": curvature_tensor,
    "embed_body": embed_body,
    "robin_residual": robin_residual,
    "phi_monitor": lambda geom, h: phi_monitor(geom, _quotient(h), 1.0),
    "gradient_quotient": lambda geom, h: gradient_quotient(geom, h, 1.0),
    "noncollapse_check": lambda geom, h: noncollapse_check(geom, h, 1.0, 10.0, 1.0),
    "q_monitor": lambda geom, h: q_monitor(geom, h, 2.0),
    "verify_sandwich": _sandwich,
}


@pytest.mark.parametrize("other", [(0.6, 16, 32), (1.0, 8, 16)], ids=["theta", "shape"])
@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_refuses_a_field_of_another_grid(name, other):
    """A field sampled on another theta or shape, psi-independent or odd in psi,
    is a UsageError, not garbage, a misleading convexity or evenness error or a
    numpy broadcast error."""
    geom = build_grid(1.0, 16, 32)
    CERTIFICATES[name](geom, ell_field(geom))
    for field in (ell_field(build_grid(*other)), ell_bump_field(build_grid(*other), 0.05, 1)):
        with pytest.raises(UsageError, match="not on the grid"):
            CERTIFICATES[name](geom, field)


def padded_u(geom, v):
    """v with its pole and Neumann top ghost rows: the stencil's ghost map X,
    which pads h = ell * v, divided by ell on the padded rows."""
    st = _stencil(geom)
    rows = np.concatenate([v, np.roll(v[:1], geom.antipode, axis=1)])
    return (st.X @ rows) / st.ell[:, None]


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
        """The stencil's grad ell is (cos(theta) sin(phi), 0)."""
        g = geom_pi3
        cd = curvature_tensor(g, ell_field(g))
        assert np.max(np.abs(cd.g1 - g.cos_theta * g.sin_phi[:, None])) < 10.0 * g.grid_eps()
        assert np.all(cd.g2 == 0.0)

    def test_constant_field_has_zero_gradient(self, geom_pi3):
        """phi_monitor's grad u of a constant u is exactly 0, and so is Phi."""
        for c in (1.0, 0.3, 2.5, math.pi, 1e5):
            u = ScalarField(geom_pi3, np.full(geom_pi3.shape, c))
            rep = phi_monitor(geom_pi3, u, 1.0)
            assert np.all(rep.phi_field.values == 0.0)
            assert rep.degenerate

    def test_constant_is_neumann_exact(self, geom_pi3):
        one = np.ones(geom_pi3.shape)
        ext = padded_u(geom_pi3, one)
        assert np.max(np.abs(ext - 1.0)) < 1e-14

    def test_hessian_second_order(self):
        """b(ell) - I decays at second order under grid doubling."""
        theta = math.pi / 4
        sups = []
        for N in (16, 32, 64):
            g = build_grid(theta, N, 2 * N)
            cd = curvature_tensor(g, ell_field(g))
            sups.append(
                max(
                    np.max(np.abs(cd.b11 - 1.0)),
                    np.max(np.abs(cd.b22 - 1.0)),
                    np.max(np.abs(cd.b12)),
                )
            )
        assert sups[0] / sups[1] > 3.0
        assert sups[1] / sups[2] > 3.0

    def test_top_ghost_enforces_neumann(self, geom_pi3):
        g = geom_pi3
        v = np.random.default_rng(2).uniform(0.5, 1.5, g.shape)
        ext = padded_u(g, v)
        # the cubic through the last three rows and the ghost is flat at phi = theta
        der = np.einsum("i,ij->j", _W_DERIV, ext[-4:])
        assert np.max(np.abs(der)) <= 8.0 * np.finfo(float).eps

    @pytest.mark.parametrize("symmetry", ["none", "even", "rot", "mirror", "even_mirror"])
    @pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (16, 32), (33, 18)])
    def test_u_frame_psi_blocks_are_the_second_order_differences(self, Nphi, Npsi, symmetry):
        """The psi blocks that _u_frame hands to Phi, summed from the stencil's psi
        table in its order, are h, (right - left) c1 and ((right - 2 dev) + left) c2
        of the row-mean-subtracted dev, bit for bit, on every ring kind."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        ring = ring_of(g, symmetry)
        st = _stencil(ring)
        seen = []

        class Capture:  # Phi, recording the blocks it is applied to
            def __matmul__(self, blocks):
                seen.append(blocks)
                return st.Phi @ blocks

        ring._cache["stencil"] = st._replace(Phi=Capture())
        u = np.random.default_rng(Nphi + Npsi).uniform(0.5, 1.5, (Nphi, ring.Npsi))
        _u_frame(ring, u)
        h, d1, d2 = seen[0].reshape(3, Nphi + 2, ring.Npsi)
        j, gather = np.arange(ring.Npsi), ring.gather
        left, right, anti = (gather[(j + s) % len(gather)] for s in (-1, 1, ring.antipode))
        ext = st.X @ np.concatenate([u, np.take(u[:1], anti, axis=1)])
        dev = ext - np.mean(np.take(ext, gather, axis=1), axis=1, keepdims=True)
        left, right = np.take(dev, left, axis=1), np.take(dev, right, axis=1)
        assert np.array_equal(h, ext)
        assert np.array_equal(d1, (right - left) * (1.0 / (2.0 * g.dpsi)))
        assert np.array_equal(d2, ((right - 2.0 * dev) + left) * (1.0 / g.dpsi**2))

    def test_boundary_values_exact_on_quadratic(self, geom_pi3):
        g = geom_pi3
        vals = np.repeat(((g.phi_nodes - g.theta) ** 2)[:, None], g.Npsi, axis=1)
        val, der = boundary_values(g, vals)
        assert np.max(np.abs(val)) < 1e-12
        assert np.max(np.abs(der)) < 1e-10


class TestSymmetry:
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

    @pytest.mark.parametrize("Nphi,Npsi", [(8, 4), (8, 16), (16, 32), (128, 256)])
    @pytest.mark.parametrize("kind", ["even", "psi_independent", "mirror", "even_mirror"])
    def test_u_frame_on_ring_is_the_full_frame_restricted(self, Nphi, Npsi, kind):
        """A field with a ring's symmetry is its first m columns on the ring: the
        frame there is the full-grid frame's first m columns (its psi differences
        of the row-mean-subtracted field see the same neighbours, through the
        ring's gather, and the pole ghost the same antipode).  For a smooth field
        they agree bit for bit.  The mean of a padded row and that of one period
        can round apart, so on a rough field, 1 + 0.3 N(0, 1) on the ring's
        cells, they agree to rounding of the frame's scale."""
        g = build_grid(math.pi / 3, Nphi, Npsi)
        ring = ring_of(g, "rot" if kind == "psi_independent" else kind)
        m = ring.Npsi
        u = neumann_bump(g, eps=0.1, k=1 if kind == "mirror" else 2).values  # cos(k psi)
        if m == 1:
            u = u.mean(axis=1, keepdims=True)
        u = _tiled(g, ring, u[:, :m])
        assert (ring.Npsi, ring.dpsi) == (m, g.dpsi)
        assert ring.antipode == (Npsi // 2) % len(ring.gather)
        assert ring_of(g, "rot" if kind == "psi_independent" else kind) is ring
        assert _ring(g, Npsi) is g
        for full, on_ring in zip(_u_frame(g, u), _u_frame(ring, u[:, :m])):
            assert np.array_equal(full[:, :m], on_ring)
        rng = np.random.default_rng(Nphi + Npsi)
        for _ in range(10):
            u = _tiled(g, ring, 1.0 + 0.3 * rng.standard_normal((Nphi, m)))
            for full, on_ring in zip(_u_frame(g, u), _u_frame(ring, u[:, :m])):
                bound = 4.0 * np.finfo(float).eps * np.max(np.abs(full))
                assert np.all(np.abs(full[:, :m] - on_ring) <= bound)

    def test_reflection_ring_is_taken_where_it_is_smaller(self):
        """The reflection ring of period P has P // 2 + 1 cells, gather
        min(j, P - j) and orbits 2 but at the mirror's fixed cells; at P = 2 it
        would have no fewer cells, and the periodic ring stands in."""
        g = build_grid(1.0, 8, 12)
        ring = _ring(g, 12, True)
        assert ring.Npsi == 7 and ring.antipode == 6
        assert ring.gather.tolist() == [0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]
        assert ring.orbit.tolist() == [1, 2, 2, 2, 2, 2, 1]
        odd = _ring(build_grid(1.0, 8, 10), 5, True)  # an odd period has one fixed cell
        assert odd.gather.tolist() == [0, 1, 2, 2, 1]
        assert odd.orbit.tolist() == [1, 2, 2] and odd.antipode == 0
        small = build_grid(1.0, 8, 4)
        assert _ring(small, 2, True) is _ring(small, 2)
        assert _ring(g, 1, True) is _ring(g, 1)

    @pytest.mark.parametrize("even", [True, False])
    def test_u_frame_of_a_solution_on_its_ring_is_bitwise(self, even):
        """The solver's u is tiled from its ring; its ring frame is the full-grid
        frame's first m columns bit for bit: the even ell-bump, cos(2 psi) data, on
        its reflection ring of period Npsi/2, and psi-independent data on its one
        cell."""
        g = build_grid(math.pi / 3, 16, 32)
        ell = ell_field(g).values
        f = (ell_bump_f_exact(g, 2.0, 1.5, 0.05).values if even
             else ell ** (-1.2) * (ell**2 + ell_grad_sq(g)) ** (-0.1))
        result = continuation_solve(ProblemSpec(p=2.0, q=1.5, theta=g.theta,
                                                f=ScalarField(g, f), even=True), g)
        assert result.converged
        u = result.u.values
        assert _psi_period(u) == ((g.Npsi // 2, True) if even else (1, True))
        ring = _ring(g, *_psi_period(u))
        m = ring.Npsi
        assert m == (g.Npsi // 4 + 1 if even else 1)
        for full, on_ring in zip(_u_frame(g, u), _u_frame(ring, u[:, :m])):
            assert np.array_equal(full[:, :m], on_ring)


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


def csv_writer_reference(s, path, header_comment=None):
    """field_to_csv as one csv.writer row per cell: the text it must reproduce."""
    g = s.geometry
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "phi", "psi", "value"])
        for i in range(g.Nphi):
            for j in range(g.Npsi):
                writer.writerow([i + 1, j, f"{g.phi_nodes[i]:.17g}",
                                 f"{g.psi_nodes[j]:.17g}", f"{s.values[i, j]:.17g}"])


def special_field(Nphi, Npsi):
    """A field with tiny, round, signed-zero and random values."""
    g = build_grid(math.pi / 3, Nphi, Npsi)
    vals = np.random.default_rng(Nphi).uniform(-2.0, 2.0, g.shape)
    vals[0, :4] = [1e-300, 1.0, -0.0, 1e300]
    vals[-1, -1] = -1.0 / 3.0
    return ScalarField(g, vals)


class TestSerialization:
    @pytest.mark.parametrize("header", [None, 'config={"theta": 1.0}'])
    @pytest.mark.parametrize("Nphi, Npsi", [(8, 16), (16, 32)])
    def test_csv_bytes_match_csv_writer(self, tmp_path, Nphi, Npsi, header):
        s = special_field(Nphi, Npsi)
        field_to_csv(s, tmp_path / "fast.csv", header)
        csv_writer_reference(s, tmp_path / "ref.csv", header)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("cells", ["one", "half"])
    @pytest.mark.parametrize("edit, periodic", [
        (None, True), ("signed_zero_pair", False), ("equal_signed_zeros", True),
        ("nan_in_one_half", False), ("nan_in_both_halves", True)])
    def test_csv_bytes_of_a_periodic_field_match_csv_writer(self, tmp_path, cells, edit,
                                                            periodic):
        """A field tiled from m cells is written from its first m columns; an edit
        that breaks the period bitwise (0.0 against -0.0) sends it down the plain
        path, and either way the bytes are those of csv.writer.  The period of an
        array is bitwise too (a NaN in one half only breaks it), but no field
        holds a NaN."""
        base = special_field(16, 32)
        g, half = base.geometry, base.geometry.Npsi // 2
        m = 1 if cells == "one" else half
        vals = np.tile(base.values[:, :m], (1, 32 // m))
        if edit == "signed_zero_pair":
            vals[3, 2], vals[3, 2 + half] = 0.0, -0.0
        elif edit == "equal_signed_zeros":
            vals[3] = -0.0
            vals[4] = 0.0
        elif edit == "nan_in_one_half":
            vals[5, 7] = math.nan
        elif edit == "nan_in_both_halves":
            vals[5] = math.nan
        assert _psi_period(vals)[0] == (m if periodic else 32)
        if edit is not None and edit.startswith("nan"):
            with pytest.raises(DomainError):
                ScalarField(g, vals)
            return
        s = ScalarField(g, vals)
        field_to_csv(s, tmp_path / "fast.csv")
        csv_writer_reference(s, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("data, m", [("ell_bump", 16), ("ell_power", 1)])
    def test_csv_bytes_of_a_solution_match_csv_writer(self, tmp_path, data, m):
        """The solver tiles its solution from its psi ring: half the columns for
        the even ell-bump, one for the psi-independent ell-power density."""
        g = build_grid(math.pi / 3, 16, 32)
        if data == "ell_bump":
            f = ell_bump_f_exact(g, 2.0, 1.5, eps=0.05)
        else:
            ell = ell_field(g).values
            f = ScalarField(g, ell**-1.2 * (ell**2 + ell_grad_sq(g)) ** -0.1)
        result = continuation_solve(ProblemSpec(p=2.0, q=1.5, theta=g.theta, f=f, even=True), g)
        assert result.converged and _psi_period(result.h.values)[0] == m
        field_to_csv(result.h, tmp_path / "fast.csv", "solution")
        csv_writer_reference(result.h, tmp_path / "ref.csv", "solution")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("mirror", ["bitwise", "to_rounding", "signed_zeros"])
    def test_csv_bytes_of_a_mirror_field_match_csv_writer(self, tmp_path, mirror):
        """A field bitwise invariant under psi -> -psi is written from the first
        Npsi/2 + 1 values of each row, each column taking its mirror cell's text.
        One mirror-symmetric only to rounding (cos(psi) as evaluated), or with
        0.0 against -0.0 at two mirror cells, has no reflection ring and is
        written from every value.  Either way the bytes are csv.writer's."""
        g = build_grid(math.pi / 3, 16, 32)
        ring = _ring(g, g.Npsi, True)
        vals = _tiled(g, ring, np.random.default_rng(3).uniform(-2.0, 2.0, (16, ring.Npsi)))
        if mirror == "to_rounding":
            vals = 1.0 + 0.3 * g.sin_phi[:, None] * np.cos(g.psi_nodes)[None, :]
            reflected = np.roll(vals[:, ::-1], 1, axis=1)
            assert 0.0 < np.max(np.abs(vals - reflected)) <= 4.0 * np.finfo(float).eps
        elif mirror == "signed_zeros":
            vals[3, 5], vals[3, g.Npsi - 5] = 0.0, -0.0
        assert _psi_period(vals) == (g.Npsi, mirror == "bitwise")
        s = ScalarField(g, vals)
        field_to_csv(s, tmp_path / "fast.csv")
        csv_writer_reference(s, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("Nphi, Npsi", [(8, 16), (16, 32)])
    def test_csv_round_trip_is_exact(self, tmp_path, Nphi, Npsi):
        s = special_field(Nphi, Npsi)
        field_to_csv(s, tmp_path / "field.csv", "round trip")
        back = field_from_csv(tmp_path / "field.csv", s.geometry.theta)
        assert back.geometry.shape == s.geometry.shape
        assert np.array_equal(back.values, s.values)
        assert np.signbit(back.values[0, 2])

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
