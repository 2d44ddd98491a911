"""Tests for particle advection, flow-map diagnostics, and scalar transport."""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from eulerlab import euler2d as e2, lagrangian as lag
from eulerlab.fields import (SpectralField2, VectorField2, Workspace, mode_power, resample,
                             resample_coeffs, to_coeffs, to_values)
from eulerlab.grids import Grid2
from eulerlab.operators import dx, dy

TWO_PI = 2.0 * np.pi


def sampler_of(u):
    """The spline sampler of the velocity field ``u``."""
    return lag.VelocitySampler(u.grid, u.u1.coeffs, u.u2.coeffs)


def field(g, fn):
    X, Y = g.meshgrid()
    return SpectralField2.from_values(g, fn(X, Y)).project_mean_free()


def random_band(g, seed, kmax, rms):
    rng = np.random.default_rng(seed)
    c = to_coeffs(rng.normal(size=g.shape))
    band = (np.abs(g.mx)[:, None] <= kmax) & (np.abs(g.my)[None, :] <= kmax)
    c *= band
    c[0, 0] = 0.0
    f = SpectralField2.from_coeffs(g, c)
    return f * (rms / math.sqrt(np.sum(mode_power(g, f.coeffs))))


def cell_velocity(t, pts):
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)], axis=-1)


def vortex_velocity(t, pts):
    # stream function sin(x)sin(y): a center sits at (pi/2, pi/2)
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([-np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)], axis=-1)


def vortex_paths(lifts0, t):
    """Where the cellular flow of :func:`vortex_velocity` carries ``lifts0``
    by time ``t``: scipy's adaptive integrator at tolerance 1e-12."""
    from scipy.integrate import solve_ivp

    m = len(lifts0)

    def rhs(_, z):
        x, y = z[:m], z[m:]
        return np.concatenate([-np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)])

    sol = solve_ivp(rhs, (0.0, t), np.concatenate([lifts0[:, 0], lifts0[:, 1]]),
                    rtol=1e-12, atol=1e-13)
    z = sol.y[:, -1]
    return np.stack([z[:m], z[m:]], axis=1)


def seeded(points):
    """A particle set at ``points`` (at least four), at t = 0."""
    pts = np.array(points, dtype=float)
    return lag.ParticleSet(pts.copy(), pts.copy(), 0.0)


class TestVelocitySampler:
    def test_direct_summation_is_spectrally_exact(self):
        # the exact point values that the spline sampler is held against
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, TWO_PI, size=(200, 2))
        got = e2.EulerState(w, 0.0).velocity().eval_at(pts)
        want = np.stack([np.cos(pts[:, 0]) * np.sin(pts[:, 1]),
                         -np.sin(pts[:, 0]) * np.cos(pts[:, 1])], axis=-1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_small_grids_converge_at_fourth_order(self):
        # the spline sampler serves every grid, the smallest ones included:
        # halving h cuts its gap to the exact point values about 16-fold
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, TWO_PI, size=(200, 2))
        gaps = []
        for n in (16, 32):
            w = field(Grid2(n, n), lambda X, Y: -2 * np.cos(X) * np.cos(Y))
            u = e2.EulerState(w, 0.0).velocity()
            gaps.append(np.max(np.abs(sampler_of(u)(pts) - u.eval_at(pts))))
        assert gaps[1] < 1e-6
        assert gaps[0] / gaps[1] > 12

    def test_interpolation_mode_stays_accurate(self):
        g = Grid2(128, 128)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        sampler = sampler_of(e2.EulerState(w, 0.0).velocity())
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, TWO_PI, size=(400, 2))
        got = sampler(pts)
        want = np.stack([np.cos(pts[:, 0]) * np.sin(pts[:, 1]),
                         -np.sin(pts[:, 0]) * np.cos(pts[:, 1])], axis=-1)
        assert np.max(np.abs(got - want)) < 1e-4

    def test_fourier_prefilter_matches_the_spline_filter(self):
        # white noise, so the Nyquist row and column of the velocity count
        g = Grid2(96, 80)
        rng = np.random.default_rng(3)
        u = VectorField2.from_values(g, rng.standard_normal(g.shape),
                                     rng.standard_normal(g.shape))
        sampler = sampler_of(u)
        pts = rng.uniform(-1.0, 7.0, size=(500, 2))
        coords = np.stack([pts[:, 0] * (2 * g.nx / g.lx), pts[:, 1] * (2 * g.ny / g.ly)])
        got = sampler(pts)
        for i, comp in enumerate((u.u1, u.u2)):
            fine = resample(comp, 2 * g.nx, 2 * g.ny).values
            want = ndimage.map_coordinates(fine, coords, order=3, mode="grid-wrap",
                                           prefilter=True)
            assert np.max(np.abs(got[:, i] - want)) < 1e-13 * np.max(np.abs(fine))

    def test_workspace_sampler_matches_the_full_padded_transform_bit_for_bit(self):
        # the x pass runs over the nonzero columns only; the Nyquist lines count
        g = Grid2(96, 80)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.0, 7.0, size=(300, 2))
        coords = np.stack([pts[:, 0] * (2 * g.nx / g.lx), pts[:, 1] * (2 * g.ny / g.ly)])
        inverse = lag._bspline_inverse_symbol(2 * g.nx, 2 * g.ny)
        work = Workspace()
        for _ in range(2):  # the second build reuses the first one's arrays
            u = VectorField2.from_values(g, rng.standard_normal(g.shape),
                                         rng.standard_normal(g.shape))
            got = lag.VelocitySampler(g, u.u1.coeffs, u.u2.coeffs, work)(pts)
            for i, comp in enumerate((u.u1, u.u2)):
                fine = to_values(resample_coeffs(comp.coeffs, 2 * g.nx, 2 * g.ny) * inverse)
                want = ndimage.map_coordinates(fine, coords, order=3, mode="grid-wrap",
                                               prefilter=False)
                assert got[:, i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("nx, ny", [(96, 80), (128, 96)])
    def test_stencil_gather_matches_map_coordinates_bit_for_bit(self, nx, ny):
        # lifts far off the fundamental cell, and points on and next to its seams
        g = Grid2(nx, ny)
        rng = np.random.default_rng(nx + ny)
        seams = np.array([-0.0, 0.0, -1e-17, 1e-17, -5e-324, 5e-324, TWO_PI,
                          np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0), np.pi,
                          -np.pi, 2e4 * np.pi, -2e4 * np.pi, np.nextafter(2e4 * np.pi, 0.0)])
        sx, sy = np.meshgrid(seams, seams, indexing="ij")
        pts = np.concatenate([rng.uniform(-2e4 * np.pi, 2e4 * np.pi, size=(4000, 2)),
                              rng.uniform(-1.0, 7.0, size=(1000, 2)),
                              np.column_stack([sx.ravel(), sy.ravel()])])
        coords = np.stack([pts[:, 0] * (2 * g.nx / g.lx), pts[:, 1] * (2 * g.ny / g.ly)])
        inverse = lag._bspline_inverse_symbol(2 * g.nx, 2 * g.ny)
        work, out = Workspace(), np.empty((pts.shape[0], 2))
        for _ in range(2):  # the second build and sample reuse the first one's arrays
            u = VectorField2.from_values(g, rng.standard_normal(g.shape),
                                         rng.standard_normal(g.shape))
            got = lag.VelocitySampler(g, u.u1.coeffs, u.u2.coeffs, work)(pts, out)
            for i, comp in enumerate((u.u1, u.u2)):
                fine = to_values(resample_coeffs(comp.coeffs, 2 * g.nx, 2 * g.ny) * inverse)
                want = ndimage.map_coordinates(fine, coords, order=3, mode="grid-wrap",
                                               prefilter=False)
                assert got[:, i].tobytes() == want.tobytes()

    def test_scratch_holds_one_component_of_taps(self):
        # u1 and u2 are gathered in turn through one (16, p) tap scratch
        g, work, p = Grid2(96, 96), Workspace(), 4096
        u = VectorField2.from_values(g, *np.random.default_rng(6).standard_normal((2, *g.shape)))
        pts = np.random.default_rng(7).uniform(0.0, TWO_PI, size=(p, 2))
        lag.VelocitySampler(g, u.u1.coeffs, u.u2.coeffs, work)(pts)
        assert work._arrays["sampler.tap_index"].size <= 16 * p
        assert work._arrays["sampler.taps"].size <= 16 * p

    def test_a_sum_of_negative_zeros_is_positive_zero(self):
        # the spline sum starts from +0.0, as map_coordinates' does
        g = Grid2(96, 96)
        zero = np.zeros(g.coeff_shape, np.complex128)
        sampler = lag.VelocitySampler(g, zero, zero)
        sampler._spline[:] = -0.0
        got = sampler(np.random.default_rng(5).uniform(0.0, TWO_PI, size=(50, 2)))
        assert not np.any(np.signbit(got))

    @pytest.mark.parametrize("n", [32, 96])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_rejected(self, n, bad):
        g = Grid2(n, n)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        sampler = sampler_of(e2.EulerState(w, 0.0).velocity())
        pts = np.random.default_rng(6).uniform(0.0, TWO_PI, size=(20, 2))
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite sample point"):
            sampler(pts)

    def test_points_outside_fundamental_cell_wrap(self):
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        sampler = sampler_of(e2.EulerState(w, 0.0).velocity())
        pts = np.array([[0.3, 0.8]])
        shifted = pts + np.array([[6 * np.pi, -4 * np.pi]])
        assert np.allclose(sampler(pts), sampler(shifted), atol=1e-12)


class TestAdvection:
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2), steps=st.integers(1, 7))
    @settings(max_examples=15, deadline=None)
    def test_constant_velocity_translates_exactly(self, a, b, steps):
        p = lag.ParticleSet.lattice(8)

        def u(t, pts):
            return np.broadcast_to(np.array([a, b]), pts.shape).copy()

        q = lag.advect(p, u, 0.37, n_steps=steps)
        want = p.lifts0 + 0.37 * steps * np.array([a, b])
        assert np.max(np.abs(q.lifts - want)) < 1e-12
        assert q.t == pytest.approx(0.37 * steps)

    def test_positions_stay_wrapped(self):
        p = lag.ParticleSet.lattice(8)

        def u(t, pts):
            return np.broadcast_to(np.array([5.0, -3.0]), pts.shape).copy()

        q = lag.advect(p, u, 1.0, n_steps=13)
        assert np.all(q.positions >= 0.0) and np.all(q.positions < TWO_PI)

    def test_time_dependent_callable_sees_stage_times(self):
        # dx/dt = t has exact solution x0 + T^2/2 under RK4 (polynomial degree < 4)
        p = lag.ParticleSet.lattice(4)

        def u(t, pts):
            out = np.zeros(pts.shape)
            out[..., 0] = t
            return out

        q = lag.advect(p, u, 0.5, n_steps=8)
        assert np.max(np.abs(q.lifts[:, 0] - p.lifts0[:, 0] - 0.5 * 4.0 ** 2)) < 1e-12

    def test_rejects_unusable_velocity_source(self):
        p = lag.ParticleSet.lattice(4)
        with pytest.raises(TypeError, match="velocity_source"):
            lag.advect(p, object(), 0.1)

    def test_gate_07_shape_makes_one_velocity_call_per_stage(self):
        calls = []

        def u(t, pts):
            calls.append(t)
            y = pts[..., 1]
            return np.stack([y, np.zeros_like(y)], axis=-1)

        T = 100.0 * np.pi
        q = lag.advect(lag.ParticleSet.lattice(32), u, T / 64, n_steps=64)
        assert len(calls) == 256
        assert q.t == pytest.approx(T, rel=1e-15)

    def test_a_long_horizon_takes_exactly_n_steps(self):
        # a thousand steps of 0.1 sum to more than 1e-12 short of 100.0, so a
        # run to the horizon n_steps * dt would take a 1001st, tiny step
        calls = []

        def u(t, pts):
            calls.append(t)
            return np.ones(pts.shape)

        q = lag.advect(lag.ParticleSet.lattice(2), u, 0.1, n_steps=1000)
        assert len(calls) == 4000
        assert 100.0 - q.t > 1e-12
        assert calls[-1] == q.t

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_a_step_that_cannot_advance_is_rejected(self, dt):
        def hang(signum, frame):
            raise TimeoutError(f"dt = {dt} did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match="dt"):
                lag.advect(lag.ParticleSet.lattice(2), cell_velocity, dt, n_steps=3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_stage_times_start_at_the_particles_time(self):
        calls = []

        def u(t, pts):
            calls.append(t)
            return np.zeros(pts.shape)

        p = lag.advect(lag.ParticleSet.lattice(2), u, 0.5, n_steps=2)
        q = lag.advect(p, u, 0.5)
        assert calls[8:] == [1.0, 1.25, 1.25, 1.5]
        assert q.t == 1.5


class TestOrbits:
    """Closed orbits of steady flows, against their periods and an ODE oracle."""

    @pytest.mark.parametrize("y0", [0.7, 1.2, np.pi / 2])
    def test_shear_orbits_wrap_once_in_their_reciprocal_speed_period(self, y0):
        def u(t, pts):
            y = pts[..., 1]
            return np.stack([np.sin(y), np.zeros_like(y)], axis=-1)

        period = TWO_PI / np.sin(y0)
        p = seeded([[x, y0] for x in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)])
        q = lag.advect(p, u, period / 1000, n_steps=1000)
        assert q.t == pytest.approx(period, rel=1e-12)
        assert np.max(np.abs(q.lifts - p.lifts0 - [TWO_PI, 0.0])) < 1e-12

    def test_cellular_orbits_match_the_ode_oracle(self):
        s = np.linspace(0.1, 1.0, 10)
        p = seeded(np.stack([np.pi / 2 + s, np.full(10, np.pi / 2)], axis=1))
        q = lag.advect(p, vortex_velocity, 1e-3, n_steps=5000)
        assert np.max(np.abs(q.lifts - vortex_paths(p.lifts0, q.t))) < 1e-10

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0])
    def test_a_cellular_orbit_closes_after_its_oracle_period(self, s):
        from scipy.integrate import solve_ivp

        def rhs(t, z):
            return [-np.sin(z[0]) * np.cos(z[1]), np.cos(z[0]) * np.sin(z[1])]

        def section(t, z):
            return z[1] - np.pi / 2
        section.direction = -1.0

        seed = [np.pi / 2 + s, np.pi / 2]
        sol = solve_ivp(rhs, (0.0, 40.0), seed, rtol=1e-12, atol=1e-13, events=section)
        period = [t for t in sol.t_events[0] if t > 1.0][0]
        n = math.ceil(period / 4e-3)
        p = seeded([seed] * 4)
        q = lag.advect(p, vortex_velocity, period / n, n_steps=n)
        assert np.max(np.abs(q.lifts - p.lifts0)) < 1e-9

    def test_stagnation_points_stay_put(self):
        # the saddles at the corners of each cell and the four cell centers
        pts = [[a * np.pi, b * np.pi] for a in (0, 1) for b in (0, 1)]
        pts += [[a * np.pi, b * np.pi] for a in (0.5, 1.5) for b in (0.5, 1.5)]
        p = seeded(pts)
        q = lag.advect(p, vortex_velocity, 1e-2, n_steps=500)
        assert np.max(np.abs(q.lifts - p.lifts0)) < 1e-12


class TestMarkerPaths:
    """Markers of a run whose vorticity is steady follow the steady flow's paths."""

    def test_unperturbed_shear_markers_drift_with_the_profile(self):
        g = Grid2(64, 64)
        w = field(g, lambda X, Y: np.cos(Y))
        res = e2.run(w, 2.0, diag_every=0.5, casimirs=(), marker_lattice=32)
        assert len(res.marker_snapshots) == 5
        # vorticity cos y integrates to the drift profile u1 = -sin y
        for snap in res.marker_snapshots:
            x0, y0 = snap.lifts0[:, 0], snap.lifts0[:, 1]
            assert np.max(np.abs(snap.lifts[:, 0] - (x0 - np.sin(y0) * snap.t))) < 1e-12
            assert np.max(np.abs(snap.lifts[:, 1] - y0)) < 1e-12

    def test_steady_cellular_markers_follow_the_ode_oracle(self):
        # vorticity -2 sin x sin y is steady and moves fluid with vortex_velocity;
        # the markers read it through the spline sampler, fourth order in the grid
        errs = {}
        for n in (32, 64):
            g = Grid2(n, n)
            w = field(g, lambda X, Y: -2.0 * np.sin(X) * np.sin(Y))
            res = e2.run(w, 2.0, diag_every=0.5, casimirs=(), marker_lattice=8)
            errs[n] = max(np.max(np.abs(snap.lifts - vortex_paths(snap.lifts0, snap.t)))
                          for snap in res.marker_snapshots)
        assert errs[64] < 1e-6
        assert errs[32] / errs[64] > 10.0


class TestTransportIdentity:
    def test_vorticity_rides_the_flow_map(self):
        g = Grid2(128, 128)
        w0 = random_band(g, 7, 4, 0.2)
        res = e2.run(w0, 3.0, cfl=0.4, diag_every=1.0, casimirs=(), marker_lattice=64)
        snap = res.marker_snapshots[-1]
        err = np.max(np.abs(res.final.omega.eval_at(snap.positions)
                            - w0.eval_at(snap.lifts0)))
        assert err < 2e-6


class TestFlowMapJacobian:
    def test_cellular_flow_stays_volume_preserving(self):
        devs = {}
        for m in (128, 256):
            p = lag.ParticleSet.lattice(m)
            q = lag.advect(p, cell_velocity, 0.01, n_steps=100)
            jd = lag.jacobian_det(q)
            devs[m] = jd["max_abs_dev_from_1"]
        assert devs[128] < 5e-3
        assert devs[128] / devs[256] > 3.0  # second-order lattice differences

    def test_deformation_magnitude_is_reported(self):
        p = lag.ParticleSet.lattice(128)
        q = lag.advect(p, cell_velocity, 0.01, n_steps=100)
        jd = lag.jacobian_det(q)
        assert jd["grad_norm_inf"] == pytest.approx(2.715, abs=0.05)

    def test_folded_lattice_is_rejected(self):
        m = 16
        p = lag.ParticleSet.lattice(m)
        lifts = p.lifts0.copy()
        grid_idx = np.arange(m * m).reshape(m, m)
        # swap two columns one apart: the centered stencil between them sees
        # a reversed orientation, so the determinant check must fail loudly
        # (adjacent swaps cancel out of central differences entirely)
        lifts[grid_idx[:, 3]], lifts[grid_idx[:, 5]] = (
            p.lifts0[grid_idx[:, 5]], p.lifts0[grid_idx[:, 3]])
        folded = lag.ParticleSet(lifts, p.lifts0.copy(), 1.0, TWO_PI, TWO_PI)
        with pytest.raises(ValueError, match="folding"):
            lag.jacobian_det(folded)


class TestWinding:
    def test_linear_shear_winding_is_exact(self):
        def u(t, pts):
            y = pts[..., 1]
            return np.stack([y, np.zeros_like(y)], axis=-1)

        m = 32
        T = 100.0 * np.pi
        p = lag.advect(lag.ParticleSet.lattice(m), u, T / 64, n_steps=64)
        rec = lag.winding(p)
        # lattice heights are 2*pi*j/m, so the spread of y is 2*pi*(m-1)/m
        target = T * (m - 1) / m
        assert abs(rec.spread - target) / target < 1e-12
        assert np.max(np.abs(rec.numbers - p.lifts0[:, 1] * T / TWO_PI)) < 1e-9

    def test_rigid_translation_has_no_spread(self):
        def u(t, pts):
            return np.stack([np.full(pts.shape[:-1], 0.7),
                             np.zeros(pts.shape[:-1])], axis=-1)

        p = lag.advect(lag.ParticleSet.lattice(8), u, 1.0, n_steps=50)
        rec = lag.winding(p)
        assert rec.spread < 1e-12
        assert np.max(np.abs(rec.numbers - 0.7 * 50.0 / TWO_PI)) < 1e-12
        assert np.all(rec.integer_numbers == 5)

    def test_twisting_series_from_run(self):
        g = Grid2(64, 64)
        w = field(g, lambda X, Y: np.cos(Y))
        res = e2.run(w, 2.0, diag_every=0.5, casimirs=(), marker_lattice=16)
        ts, spreads = lag.twisting_series(res)
        assert np.allclose(ts, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-9)
        assert spreads[0] == 0.0
        assert np.all(np.diff(spreads) > 0)
        with pytest.raises(ValueError, match="snapshot"):
            lag.twisting_series([])


def envelope_exponent(ts, p, lo=10.0, hi=80.0, nbin=7):
    """log-log slope of per-bin maxima of |p|: the oscillation-proof decay fit."""
    edges = np.linspace(lo, hi, nbin + 1)
    mids, tops = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (ts >= a) & (ts <= b)
        if m.any():
            mids.append(0.5 * (a + b))
            tops.append(np.max(np.abs(p[m])))
    return np.polyfit(np.log(mids), np.log(tops), 1)[0]


class TestMixing:
    def setup_method(self):
        self.g = Grid2(16, 512)
        X, Y = self.g.meshgrid()
        self.u_shear = VectorField2.from_values(self.g, np.sin(Y), np.zeros_like(Y))
        self.u_const = VectorField2.from_values(self.g, np.ones_like(Y), np.zeros_like(Y))
        self.f0 = SpectralField2.from_values(self.g, np.cos(X))
        # amplitude vanishing to second order at the shear's turning points:
        # the pairing has the closed form 2*pi^2*(J1(t)+J3(t))
        self.phi = SpectralField2.from_values(
            self.g, 2.0 * (1.0 + np.cos(2 * Y)) * np.cos(X))

    def test_shear_pairing_matches_bessel_series(self):
        from scipy.special import jv

        res = lag.passive_scalar_evolve(self.u_shear, self.f0, 80.0,
                                        test_functions=[self.phi],
                                        cfl=0.4, diag_every=1.0)
        pex = 2 * np.pi ** 2 * (jv(1, res.times) + jv(3, res.times))
        assert np.max(np.abs(res.pairings[0] - pex)) < 5e-4

    def test_shear_pairing_envelope_decays(self):
        res = lag.passive_scalar_evolve(self.u_shear, self.f0, 80.0,
                                        test_functions=[self.phi],
                                        cfl=0.4, diag_every=1.0)
        assert envelope_exponent(res.times, res.pairings[0]) <= -0.8

    def test_uniform_flow_pairing_never_decays(self):
        res = lag.passive_scalar_evolve(self.u_const, self.f0, 80.0,
                                        test_functions=[self.phi],
                                        cfl=0.4, diag_every=1.0)
        p = res.pairings[0]
        pex = 4 * np.pi ** 2 * np.sin(res.times)
        assert np.max(np.abs(p - pex)) < 0.05
        assert abs(envelope_exponent(res.times, p)) < 0.1
        late = np.max(np.abs(p[res.times >= 70.0]))
        early = np.max(np.abs(p[res.times <= 10.0]))
        assert late > 0.5 * early

    def test_shear_scalar_and_its_gradient_follow_the_closed_form(self):
        # f = cos(x - t sin y); its gradient peaks at sqrt(1 + t^2) on the node
        # (pi/2, 0), where the shear does not move the dye
        X, Y = self.g.meshgrid()
        res = lag.passive_scalar_evolve(self.u_shear, self.f0, 10.0, cfl=0.4,
                                        diag_every=2.0, store_fields=True)
        assert len(res.fields) == 6
        for t, f in zip(res.times, res.fields):
            assert np.max(np.abs(f.values - np.cos(X - t * np.sin(Y)))) < 1e-4
            grad = np.hypot(dx(f).values, dy(f).values)
            assert abs(np.max(grad) - math.sqrt(1.0 + t * t)) < 1e-10

    def test_a_fluid_at_rest_leaves_the_scalar_as_it_was(self):
        X, _ = self.g.meshgrid()
        rest = VectorField2.from_values(self.g, np.zeros_like(X), np.zeros_like(X))
        res = lag.passive_scalar_evolve(rest, self.f0, 5.0, diag_every=1.0)
        assert res.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert res.final.coeffs.tobytes() == lag.dealias(self.f0).coeffs.tobytes()

    def test_test_functions_leave_the_scalar_unchanged(self, monkeypatch):
        # the pairings read the first stage of the next step; only the final
        # record, which no step follows, evaluates the tendency outside a
        # step, and the scalar keeps the bits of a run with no pairings
        g = Grid2(16, 64)
        X, Y = g.meshgrid()
        u = VectorField2.from_values(g, np.sin(Y), 0.3 * np.cos(X))
        f0 = SpectralField2.from_values(g, np.cos(X) * np.sin(2 * Y))
        phi = SpectralField2.from_values(g, np.cos(X) * (1.0 + np.cos(2 * Y)))
        real, outside_steps = lag.transport_coeffs, []

        def counting(*args):
            if args[4] is None:
                outside_steps.append(1)
            return real(*args)

        monkeypatch.setattr(lag, "transport_coeffs", counting)
        bare = lag.passive_scalar_evolve(u, f0, 3.0, cfl=0.4, diag_every=0.5)
        assert outside_steps == []
        paired = lag.passive_scalar_evolve(u, f0, 3.0, test_functions=[phi],
                                           cfl=0.4, diag_every=0.5)
        assert len(outside_steps) == 1 and len(paired.times) == 7
        assert paired.final.coeffs.tobytes() == bare.final.coeffs.tobytes()

    def test_pairings_match_a_fresh_tendency_per_record(self):
        g = Grid2(16, 64)
        X, Y = g.meshgrid()
        u = VectorField2.from_values(g, np.sin(Y), 0.3 * np.cos(X))
        f0 = SpectralField2.from_values(g, np.cos(X) * np.sin(2 * Y))
        phis = [SpectralField2.from_values(g, np.cos(X) * (1.0 + np.cos(2 * Y))),
                SpectralField2.from_values(g, np.sin(X + Y))]
        res = lag.passive_scalar_evolve(u, f0, 3.0, test_functions=phis, cfl=0.4,
                                        diag_every=0.5, store_fields=True)
        u1v, u2v = u.u1.values, u.u2.values
        want = [[lag.l2_inner(SpectralField2(g, -lag.transport_coeffs(f.coeffs, u1v, u2v, g)),
                              phi) for f in res.fields] for phi in phis]
        assert res.pairings.shape == (2, 7)
        assert res.pairings.tobytes() == np.array(want).tobytes()

    def test_grid_mismatch_rejected(self):
        other = SpectralField2.zeros(Grid2(16, 16))
        with pytest.raises(ValueError, match="grids"):
            lag.passive_scalar_evolve(self.u_shear, other, 1.0)
