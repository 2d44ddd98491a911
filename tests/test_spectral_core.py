"""Grids, spectral fields, calculus operators, and snapshot I/O."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab.fields import (
    SpectralField1,
    SpectralField2,
    VectorField2,
    Workspace,
    l2_inner,
    resample,
    to_coeffs,
    to_values,
)
from eulerlab.grids import Grid1, Grid2
from eulerlab.selfsim import ProfileProblem
from eulerlab.operators import (
    biot_savart,
    curl,
    dealias,
    divergence,
    dx,
    dy,
    gradient_sup,
    hilbert_transform,
    inv_laplacian,
    laplacian,
    leray_project,
    perp_gradient,
    transport_coeffs,
)
from eulerlab.snapshots import read_snapshot, write_snapshot


def random_field(grid: Grid2, seed: int, kmax: int | None = None) -> SpectralField2:
    rng = np.random.default_rng(seed)
    f = SpectralField2.from_values(grid, rng.standard_normal(grid.shape))
    f = dealias(f).project_mean_free()
    if kmax is not None:
        c = f.coeffs.copy()
        c[(np.abs(grid.mx)[:, None] > kmax) | (np.abs(grid.my)[None, :] > kmax)] = 0.0
        f = SpectralField2.from_coeffs(grid, c)
    return f


class TestGrids:
    @pytest.mark.parametrize("bad", [6, 7, 9, 0, -8])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError, match="even integer"):
            Grid2(bad, 16)
        with pytest.raises(ValueError, match="even integer"):
            Grid1(bad)

    # the checks read "not 0 < x < inf", so a NaN length fails them too
    @pytest.mark.parametrize("make, match", [
        (lambda: Grid2(8, 8, lx=np.nan), "domain lengths must be positive"),
        (lambda: Grid2(8, 8, ly=np.nan), "domain lengths must be positive"),
        (lambda: Grid1(8, length=np.nan), "length must be positive"),
        (lambda: ProfileProblem(64, L=np.nan), "L must be at least 10"),
        (lambda: Grid2(8, 8, lx=np.inf), "domain lengths must be positive and finite"),
        (lambda: Grid1(8, length=np.inf), "length must be positive and finite"),
        (lambda: ProfileProblem(64, L=np.inf), "L must be at least 10 .*finite"),
    ])
    def test_rejects_nan_lengths(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_wavenumber_layout(self):
        g = Grid2(16, 12, lx=2 * np.pi, ly=4.0)
        assert list(g.mx[:3]) == [0, 1, 2] and g.mx[8] == -8
        assert list(g.my) == [0, 1, 2, 3, 4, 5, 6]
        assert g.coeff_shape == (16, 7) == g.k2.shape == g.dealias_mask.shape
        np.testing.assert_allclose(g.kx, g.mx * (2 * np.pi / g.lx))
        np.testing.assert_allclose(g.ky, g.my * (2 * np.pi / g.ly))
        g1 = Grid1(12)
        assert list(g1.m) == [0, 1, 2, 3, 4, 5, 6]

    def test_parseval_weight_row(self):
        assert list(Grid2(16, 12).weight) == [1, 2, 2, 2, 2, 2, 1]
        assert list(Grid1(8).weight) == [1, 2, 2, 2, 1]

    def test_cell_geometry(self):
        g = Grid2(16, 32, lx=1.0, ly=2.0)
        assert g.dx == pytest.approx(1.0 / 16)
        assert g.dy == pytest.approx(2.0 / 32)
        assert g.cell_area == pytest.approx(g.dx * g.dy)
        assert g.x.shape == (16,) and g.y.shape == (32,)

    def test_dealias_mask_cutoff(self):
        g = Grid2(24, 24)
        assert g.dealias_mask[8, 0] and not g.dealias_mask[9, 0]
        g1 = Grid1(24)
        assert g1.dealias_mask[8] and not g1.dealias_mask[9]


class TestSpectralField2:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_round_trip(self, seed):
        g = Grid2(16, 24, lx=1.0, ly=3.0)
        vals = np.random.default_rng(seed).standard_normal(g.shape)
        f = SpectralField2.from_values(g, vals)
        assert np.max(np.abs(f.values - vals)) < 1e-13 * np.max(np.abs(vals))

    def test_accepts_only_the_half_spectrum(self):
        g = Grid2(8, 8)
        assert SpectralField2.from_coeffs(g, np.zeros((8, 5))).coeffs.shape == (8, 5)
        with pytest.raises(ValueError, match="does not match"):
            SpectralField2.from_coeffs(g, np.zeros(g.shape, dtype=complex))

    def test_mean_flag_and_projection(self):
        g = Grid2(16, 16)
        f = SpectralField2.from_values(g, np.cos(g.meshgrid()[1]) + 0.5)
        assert not f.mean_free
        assert f.mean == pytest.approx(0.5)
        p = f.project_mean_free()
        assert p.mean_free and p.mean == 0.0

    @pytest.mark.parametrize("cls, grid", [(SpectralField1, Grid1(16)),
                                           (SpectralField2, Grid2(16, 16))])
    def test_a_field_times_zero_is_mean_free(self, cls, grid):
        c = np.zeros(grid.coeff_shape, dtype=complex)
        c.flat[0], c.flat[1] = 0.5, 1.0
        f = cls.from_coeffs(grid, c)
        assert not f.mean_free
        assert (f * 0.0).mean_free and (0.0 * f).mean_free

    def test_parseval(self):
        g = Grid2(32, 16, lx=2.0, ly=5.0)
        f = random_field(g, seed=3)
        phys = np.sqrt(np.sum(f.values**2) * g.cell_area)
        assert f.norm_l2() == pytest.approx(phys, rel=1e-12)

    def test_arithmetic_matches_pointwise(self):
        g = Grid2(16, 16)
        a, b = random_field(g, 1), random_field(g, 2)
        np.testing.assert_allclose((a + b).values, a.values + b.values, atol=1e-13)
        np.testing.assert_allclose((a - b).values, a.values - b.values, atol=1e-13)
        np.testing.assert_allclose((2.5 * a).values, 2.5 * a.values, atol=1e-13)

    def test_eval_at_collocation_points(self):
        g = Grid2(16, 12)
        f = random_field(g, 5)
        xx, yy = g.meshgrid()
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        np.testing.assert_allclose(f.eval_at(pts), f.values.ravel(), atol=1e-12)

    def test_resample_round_trip(self):
        g = Grid2(16, 16)
        f = random_field(g, 9)
        up = resample(f, 24, 32)
        back = resample(up, 16, 16)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14
        # refinement keeps the trigonometric interpolant
        pts = np.array([[0.3, 1.1], [4.0, 2.2]])
        np.testing.assert_allclose(up.eval_at(pts), f.eval_at(pts), atol=1e-12)


class TestSpectralField1:
    def test_round_trip_and_norms(self):
        g = Grid1(64)
        vals = np.cos(3 * g.x) - 0.25 * np.sin(g.x)
        f = SpectralField1.from_values(g, vals)
        assert np.max(np.abs(f.values - vals)) < 1e-14
        assert f.norm_inf() == pytest.approx(np.max(np.abs(vals)))
        assert f.norm_l2() == pytest.approx(
            np.sqrt(np.sum(vals**2) * g.dx), rel=1e-12)

    def test_eval_at_matches_interpolant(self):
        g = Grid1(32)
        f = SpectralField1.from_values(g, np.sin(2 * g.x))
        xs = np.array([0.1, 1.7, 5.1])
        np.testing.assert_allclose(f.eval_at(xs), np.sin(2 * xs), atol=1e-13)

    def test_shares_the_arithmetic_of_the_2d_field(self):
        g = Grid1(16)
        f = SpectralField1.from_values(g, 0.5 + np.cos(g.x))
        h = -(2.0 * f - f)
        assert isinstance(h, SpectralField1) and h.mean == pytest.approx(-0.5)
        np.testing.assert_allclose(h.values, -0.5 - np.cos(g.x), atol=1e-15)
        p = f.project_mean_free()
        assert isinstance(p, SpectralField1) and p.mean_free and p.mean == 0.0
        assert (f + SpectralField1.zeros(g)).norm_l2() == pytest.approx(f.norm_l2())
        with pytest.raises(ValueError, match="value shape"):
            SpectralField1.from_values(g, np.zeros(17))
        with pytest.raises(ValueError, match="different grids"):
            f + SpectralField1.zeros(Grid1(32))

    def test_accepts_only_the_half_spectrum(self):
        c = np.zeros(9, dtype=complex)
        c[2] = 1.0j
        f = SpectralField1.from_coeffs(Grid1(16), c)
        np.testing.assert_allclose(f.values, -2.0 * np.sin(2 * Grid1(16).x), atol=1e-15)
        with pytest.raises(ValueError, match="does not match"):
            SpectralField1.from_coeffs(Grid1(16), np.zeros(16, dtype=complex))


class TestSpectralCalculus:
    def test_single_mode_examples(self):
        g = Grid2(16, 16)
        f = SpectralField2.from_values(g, np.cos(g.meshgrid()[1]))
        lap = laplacian(f)
        np.testing.assert_allclose(lap.values, -f.values, atol=1e-13)
        inv = inv_laplacian(f)
        np.testing.assert_allclose(inv.values, -f.values, atol=1e-13)

    def test_zero_field_maps_to_zero(self):
        g = Grid2(16, 16)
        z = SpectralField2.zeros(g)
        for op in (dx, dy, laplacian, inv_laplacian):
            assert op(z).norm_l2() == 0.0
        pg = perp_gradient(z)
        assert isinstance(pg, VectorField2) and pg.norm_l2() == 0.0

    def test_perp_gradient_orientation(self):
        g = Grid2(16, 16)
        xx, yy = g.meshgrid()
        psi = SpectralField2.from_values(g, np.sin(xx) * np.sin(yy))
        v = perp_gradient(psi)
        np.testing.assert_allclose(v.u1.values, -np.sin(xx) * np.cos(yy), atol=1e-13)
        np.testing.assert_allclose(v.u2.values, np.cos(xx) * np.sin(yy), atol=1e-13)

    def test_inv_laplacian_requires_mean_free(self):
        g = Grid2(16, 16)
        f = SpectralField2.from_values(g, 1.0 + np.cos(g.meshgrid()[0]))
        with pytest.raises(ValueError, match="nonzero mean"):
            inv_laplacian(f)

    @pytest.mark.parametrize("n,kmax", [(16, 5), (64, 21), (128, 4), (128, 42)])
    def test_gradient_sup_equals_the_max_of_hypot(self, n, kmax):
        g, work = Grid2(n, n), Workspace()
        for seed in range(20):
            for scale in (1.0, 1e-160, 1e160):  # the squares underflow or overflow
                c = scale * random_field(g, seed, kmax=kmax).coeffs
                want = float(np.max(np.hypot(to_values(g.ikx * c), to_values(g.iky * c))))
                assert gradient_sup(c, g, work) == want

    @pytest.mark.parametrize("nx, ny", [(48, 32), (96, 96)])
    def test_transport_of_a_dealiased_field_matches_the_masked_path(self, nx, ny):
        # transport_coeffs reads its input as dealiased: on a dealiased field it
        # gives the bits of the path that masks its input first
        g, work = Grid2(nx, ny), Workspace()
        rng = np.random.default_rng(nx + ny)
        u1, u2 = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        for seed in range(3):
            c = random_field(g, seed).coeffs
            fc = c * g.dealias_mask
            adv = to_coeffs(u1 * to_values(g.ikx * fc) + u2 * to_values(g.iky * fc))
            want = -(adv * g.dealias_mask)
            got = transport_coeffs(c, u1, u2, g, np.empty(g.coeff_shape, complex), work)
            assert got.tobytes() == want.tobytes()

    def test_derivative_composition(self):
        g = Grid2(32, 32)
        f = random_field(g, 12, kmax=9)
        lap = laplacian(f)
        ddx = dx(dx(f))
        ddy = dy(dy(f))
        assert (lap - ddx - ddy).norm_l2() < 1e-12 * max(lap.norm_l2(), 1.0)


class TestBiotSavart:
    def test_shear_mode(self):
        g = Grid2(16, 16)
        yy = g.meshgrid()[1]
        u = biot_savart(SpectralField2.from_values(g, np.cos(yy)))
        np.testing.assert_allclose(u.u1.values, -np.sin(yy), atol=1e-13)
        np.testing.assert_allclose(u.u2.values, np.zeros(g.shape), atol=1e-13)

    def test_cellular_vorticity(self):
        g = Grid2(32, 32)
        xx, yy = g.meshgrid()
        u = biot_savart(SpectralField2.from_values(g, -2.0 * np.cos(xx) * np.cos(yy)))
        np.testing.assert_allclose(u.u1.values, np.cos(xx) * np.sin(yy), atol=1e-13)
        np.testing.assert_allclose(u.u2.values, -np.sin(xx) * np.cos(yy), atol=1e-13)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_curl_round_trip_and_divergence(self, seed):
        g = Grid2(64, 64)
        w = random_field(g, seed)
        u = biot_savart(w)
        assert (curl(u) - w).norm_inf() < 1e-12 * max(w.norm_inf(), 1.0)
        assert divergence(u).norm_inf() < 1e-13 * max(w.norm_l2(), 1.0)

    def test_rejects_nonzero_mean(self):
        g = Grid2(16, 16)
        f = SpectralField2.from_values(g, 1.0 + np.cos(g.meshgrid()[1]))
        with pytest.raises(ValueError, match="mean-free"):
            biot_savart(f)


class TestHilbertTransform:
    def test_trig_pairs(self):
        g = Grid1(64)
        s = SpectralField1.from_values(g, np.sin(g.x))
        c = SpectralField1.from_values(g, np.cos(g.x))
        np.testing.assert_allclose(hilbert_transform(s).values, -np.cos(g.x), atol=1e-13)
        np.testing.assert_allclose(hilbert_transform(c).values, np.sin(g.x), atol=1e-13)

    def test_kills_constants(self):
        g = Grid1(32)
        f = SpectralField1.from_values(g, np.full(32, 4.2))
        assert hilbert_transform(f).norm_inf() < 1e-15

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_squares_to_minus_identity(self, seed):
        g = Grid1(256)
        vals = np.random.default_rng(seed).standard_normal(256)
        f = SpectralField1.from_values(g, vals)
        hh = hilbert_transform(hilbert_transform(f))
        expect = -(vals - np.mean(vals))
        assert np.max(np.abs(hh.values - expect)) < 1e-12 * max(1.0, np.max(np.abs(vals)))


class TestLerayProjection:
    def test_fixes_divergence_free_fields(self):
        g = Grid2(32, 32)
        u = biot_savart(random_field(g, 21))
        pu = leray_project(u)
        assert (pu - u).norm_inf() < 1e-13 * max(u.norm_inf(), 1.0)

    def test_annihilates_gradients(self):
        g = Grid2(32, 32)
        xx, yy = g.meshgrid()
        grad = VectorField2(
            SpectralField2.from_values(g, -np.sin(xx) * np.cos(yy)),
            SpectralField2.from_values(g, -np.cos(xx) * np.sin(yy)),
        )
        assert leray_project(grad).norm_inf() < 1e-13

    def test_buoyancy_curl_identity(self):
        # projecting (0, -cos x) leaves curl sin x, i.e. minus the x-derivative
        # of the density that generated the forcing
        g = Grid2(32, 32)
        xx = g.meshgrid()[0]
        v = VectorField2(
            SpectralField2.zeros(g),
            SpectralField2.from_values(g, -np.cos(xx)),
        )
        pv = leray_project(v)
        np.testing.assert_allclose(curl(pv).values, np.sin(xx), atol=1e-13)

    def test_idempotent_and_difference_is_gradient(self):
        g = Grid2(32, 32)
        rng = np.random.default_rng(31)
        v = VectorField2(
            dealias(SpectralField2.from_values(g, rng.standard_normal(g.shape))),
            dealias(SpectralField2.from_values(g, rng.standard_normal(g.shape))),
        )
        pv = leray_project(v)
        ppv = leray_project(pv)
        assert (ppv - pv).norm_inf() < 1e-13 * max(pv.norm_inf(), 1.0)
        assert divergence(pv).norm_inf() < 1e-12
        assert curl(v - pv).norm_inf() < 1e-12


class TestDealias:
    def test_band_limited_field_unchanged(self):
        g = Grid2(24, 24)
        f = random_field(g, 41, kmax=7)
        assert (dealias(f) - f).norm_inf() < 1e-15

    def test_mode_above_cutoff_removed(self):
        g = Grid2(24, 24)
        f = SpectralField2.from_values(g, np.cos(9 * g.meshgrid()[0]))
        assert dealias(f).norm_inf() < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        g = Grid2(16, 16)
        f = SpectralField2.from_values(
            g, np.random.default_rng(seed).standard_normal(g.shape))
        once = dealias(f)
        assert (dealias(once) - once).norm_inf() < 1e-15

    def test_works_on_circle_fields(self):
        g = Grid1(24)
        f = SpectralField1.from_values(g, np.cos(9 * g.x))
        assert dealias(f).norm_inf() < 1e-13

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="spectral field"):
            dealias(np.zeros(8))


class TestInnerProduct:
    def test_matches_physical_quadrature(self):
        g = Grid2(16, 16)
        a, b = random_field(g, 51), random_field(g, 52)
        quad = np.sum(a.values * b.values) * g.cell_area
        assert l2_inner(a, b) == pytest.approx(quad, rel=1e-12)


even_size = st.integers(4, 8).map(lambda h: 2 * h)


class TestHalfSpectrumLayout:
    """Properties of the one layout, on white noise (Nyquist lines included)."""

    @settings(max_examples=25, deadline=None)
    @given(nx=even_size, ny=even_size, seed=st.integers(0, 2**31 - 1))
    def test_round_trip_and_parseval_2d(self, nx, ny, seed):
        g = Grid2(nx, ny, lx=1.5, ly=2.5)
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        assert to_coeffs(a).shape == g.coeff_shape
        np.testing.assert_allclose(to_values(to_coeffs(a)), a, atol=1e-13)
        fa, fb = SpectralField2.from_values(g, a), SpectralField2.from_values(g, b)
        assert fa.norm_l2() == pytest.approx(np.sqrt(np.sum(a * a) * g.cell_area), rel=1e-12)
        assert l2_inner(fa, fb) == pytest.approx(np.sum(a * b) * g.cell_area,
                                                 rel=1e-10, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32).map(lambda h: 2 * h), seed=st.integers(0, 2**31 - 1))
    def test_round_trip_norm_and_eval_1d(self, n, seed):
        g = Grid1(n)
        v = np.random.default_rng(seed).standard_normal(n)
        f = SpectralField1.from_values(g, v)
        assert f.coeffs.shape == (n // 2 + 1,)
        np.testing.assert_allclose(f.values, v, atol=1e-13)
        assert f.norm_l2() == pytest.approx(np.sqrt(np.sum(v * v) * g.dx), rel=1e-12)
        np.testing.assert_allclose(f.eval_at(g.x), v, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(nx=even_size, ny=even_size, up=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    def test_resample_up_then_down_and_eval_at_nodes(self, nx, ny, up, seed):
        g = Grid2(nx, ny)
        f = SpectralField2.from_values(g, np.random.default_rng(seed).standard_normal(g.shape))
        back = resample(resample(f, nx + 2 * up, ny + 4 * up), nx, ny)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-14)
        xx, yy = g.meshgrid()
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        np.testing.assert_allclose(f.eval_at(pts), f.values.ravel(), atol=1e-12)

    def test_leray_projects_each_entry_with_its_own_wavevector(self):
        # the Nyquist row is mx = -4 (kx = -4), the Nyquist column my = +4
        g = Grid2(8, 8)
        c = np.zeros(g.coeff_shape, dtype=complex)
        row = c.copy()
        row[4, 1] = 1.0  # u2 at (mx, my) = (-4, 1)
        col = c.copy()
        col[1, 4] = 1.0  # u1 at (1, 4)
        p = leray_project(VectorField2(SpectralField2(g, c), SpectralField2(g, row)))
        assert p.u1.coeffs[4, 1] == pytest.approx(4.0 / 17.0)
        assert p.u2.coeffs[4, 1] == pytest.approx(1.0 - 1.0 / 17.0)
        p = leray_project(VectorField2(SpectralField2(g, col), SpectralField2(g, c)))
        assert p.u1.coeffs[1, 4] == pytest.approx(1.0 - 1.0 / 17.0)
        assert p.u2.coeffs[1, 4] == pytest.approx(-4.0 / 17.0)

    def test_odd_derivatives_vanish_on_their_own_nyquist_line(self):
        # the row mx = -nx/2 for d/dx, the column my = ny/2 for d/dy
        g = Grid2(16, 16)
        f = SpectralField2.from_values(g, np.random.default_rng(3).standard_normal(g.shape))
        assert np.min(np.abs(f.coeffs[g.nx // 2, :])) > 0.0
        assert np.min(np.abs(f.coeffs[:, -1])) > 0.0
        assert np.all(dx(f).coeffs[g.nx // 2, :] == 0.0)
        assert np.all(dy(f).coeffs[:, -1] == 0.0)
        np.testing.assert_array_equal(dx(f).coeffs[:g.nx // 2], (1j * g.kx[:g.nx // 2, None])
                                      * f.coeffs[:g.nx // 2])

    def test_leray_is_a_projection_on_white_noise(self):
        g = Grid2(16, 12)
        rng = np.random.default_rng(7)
        v = VectorField2.from_values(g, rng.standard_normal(g.shape),
                                     rng.standard_normal(g.shape))
        pv = leray_project(v)
        np.testing.assert_allclose(leray_project(pv).u1.coeffs, pv.u1.coeffs, atol=1e-15)
        np.testing.assert_allclose(leray_project(pv).u2.coeffs, pv.u2.coeffs, atol=1e-15)
        div = g.kx[:, None] * pv.u1.coeffs + g.ky[None, :] * pv.u2.coeffs
        assert np.max(np.abs(div)) < 1e-13


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        fields = [rng.standard_normal((12, 8)), rng.standard_normal((12, 8))]
        path = tmp_path / "state.eulb"
        write_snapshot(path, fields, time=1.375)
        back, t = read_snapshot(path)
        assert t == 1.375
        assert len(back) == 2
        for a, b in zip(fields, back):
            np.testing.assert_array_equal(a, b)

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "state.eulb"
        write_snapshot(path, [np.zeros((8, 8))], time=0.0)
        write_snapshot(path, [np.ones((8, 8))], time=2.0)
        back, t = read_snapshot(path)
        assert t == 2.0 and back[0][0, 0] == 1.0

    def test_rejects_mixed_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="share one shape"):
            write_snapshot(tmp_path / "x.eulb",
                           [np.zeros((8, 8)), np.zeros((8, 10))], time=0.0)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "x.eulb"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "x.eulb"
        write_snapshot(path, [np.zeros((8, 8))], time=0.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="length"):
            read_snapshot(path)
