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

TWO_PI = 2.0 * np.pi


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


class TestVelocitySampler:
    def test_direct_summation_is_spectrally_exact(self):
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        sampler = lag.VelocitySampler.from_field(e2.EulerState(w, 0.0).velocity())
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, TWO_PI, size=(200, 2))
        got = sampler(pts)
        want = np.stack([np.cos(pts[:, 0]) * np.sin(pts[:, 1]),
                         -np.sin(pts[:, 0]) * np.cos(pts[:, 1])], axis=-1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_interpolation_mode_stays_accurate(self):
        g = Grid2(128, 128)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        sampler = lag.VelocitySampler.from_field(e2.EulerState(w, 0.0).velocity())
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
        sampler = lag.VelocitySampler.from_field(u)
        assert sampler.method == "bicubic"
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

    def test_a_sum_of_negative_zeros_is_positive_zero(self):
        # the spline sum starts from +0.0, as map_coordinates' does
        g = Grid2(96, 96)
        zero = np.zeros(g.coeff_shape, np.complex128)
        sampler = lag.VelocitySampler(g, zero, zero)
        sampler._spline[:] = -0.0
        got = sampler(np.random.default_rng(5).uniform(0.0, TWO_PI, size=(50, 2)))
        assert not np.any(np.signbit(got))

    @pytest.mark.parametrize("n", [32, 96])  # the spectral and the bicubic branch
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_rejected(self, n, bad):
        g = Grid2(n, n)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        sampler = lag.VelocitySampler.from_field(e2.EulerState(w, 0.0).velocity())
        pts = np.random.default_rng(6).uniform(0.0, TWO_PI, size=(20, 2))
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite sample point"):
            sampler(pts)

    def test_points_outside_fundamental_cell_wrap(self):
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        sampler = lag.VelocitySampler.from_field(e2.EulerState(w, 0.0).velocity())
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

    def test_stage_times_start_at_the_particles_time(self):
        calls = []

        def u(t, pts):
            calls.append(t)
            return np.zeros(pts.shape)

        p = lag.advect(lag.ParticleSet.lattice(2), u, 0.5, n_steps=2)
        q = lag.advect(p, u, 0.5)
        assert calls[8:] == [1.0, 1.25, 1.25, 1.5]
        assert q.t == 1.5


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


class TestStabilityMetrics:
    def test_unperturbed_shear_has_zero_drift(self):
        g = Grid2(64, 64)
        w = field(g, lambda X, Y: np.cos(Y))
        res = e2.run(w, 2.0, diag_every=0.5, casimirs=(), marker_lattice=32)
        # vorticity cos y integrates to the drift profile u1 = -sin y
        met = lag.lagrangian_stability_metrics(res, lambda y: -np.sin(y))
        assert np.max(met["m1"]) < 1e-12
        assert np.max(met["m2"]) < 1e-12


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


def vortex_velocity(t, pts):
    # stream function sin(x)sin(y): a center sits at (pi/2, pi/2)
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([-np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)], axis=-1)


class TestPeriodFunction:
    def test_shear_orbits_have_reciprocal_speed_periods(self):
        def u(t, pts):
            y = pts[..., 1]
            return np.stack([np.sin(y), np.zeros_like(y)], axis=-1)

        seeds = np.array([[0.0, 0.7], [0.0, 1.2], [0.0, np.pi / 2]])
        per = np.asarray(lag.period_function(u, seeds, dt=1e-3))
        exact = TWO_PI / np.abs(np.sin(seeds[:, 1]))
        assert np.max(np.abs(per - exact)) < 1e-10

    def test_cellular_orbit_periods_match_ode_oracle(self):
        from scipy.integrate import solve_ivp

        svals = np.linspace(0.1, 1.0, 10)
        seeds = np.stack([np.pi / 2 + svals, np.full(10, np.pi / 2)], axis=1)
        per = np.asarray(lag.period_function(vortex_velocity, seeds, dt=1e-3))

        def rhs(t, z):
            return [-np.sin(z[0]) * np.cos(z[1]), np.cos(z[0]) * np.sin(z[1])]

        def section(t, z):
            return z[1] - np.pi / 2
        section.direction = -1.0

        oracle = []
        for s in svals:
            sol = solve_ivp(rhs, (0.0, 40.0), [np.pi / 2 + s, np.pi / 2],
                            rtol=1e-11, atol=1e-12, events=section)
            oracle.append([t for t in sol.t_events[0] if t > 1.0][0])
        assert np.max(np.abs(per - np.asarray(oracle))) < 1e-5
        # the period is nowhere locally constant: strictly monotone in orbit size,
        # approaching the harmonic value 2*pi at the cell center
        assert np.all(np.diff(per) > 0)
        assert 1.0 < per[0] / TWO_PI < 1.01

    def test_stagnation_points_never_return(self):
        seeds = np.array([[0.0, 0.0], [np.pi / 2, np.pi / 2]])
        per = lag.period_function(vortex_velocity, seeds, dt=1e-3, t_max=5.0)
        assert all(math.isinf(p) for p in per)

    def test_the_oracle_seeds_step_together(self):
        # one state for all ten seeds: four velocity calls per step until the
        # longest orbit is back, where the seeds one after another take ten times that
        calls = []

        def counting(t, pts):
            calls.append(t)
            return vortex_velocity(t, pts)

        svals = np.linspace(0.1, 1.0, 10)
        seeds = np.stack([np.pi / 2 + svals, np.full(10, np.pi / 2)], axis=1)
        dt = 1e-3
        per = lag.period_function(counting, seeds, dt=dt)
        assert len(calls) <= 4 * (math.ceil(max(per) / dt) + 2)

    def test_a_mixed_batch_keeps_each_seeds_first_return(self):
        # the center never returns, so the batch runs to t_max past three
        # returns of the orbit, which keeps its first
        orbit = [np.pi / 2 + 0.5, np.pi / 2]
        (alone,) = lag.period_function(vortex_velocity, [orbit], dt=4e-3, tol=1e-2)
        per = lag.period_function(vortex_velocity, [[np.pi / 2, np.pi / 2], orbit],
                                  dt=4e-3, t_max=3.2 * alone, tol=1e-2)
        assert math.isinf(per[0])
        assert per[1] == alone
        assert 1.0 < alone / TWO_PI < 1.1

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_a_step_that_cannot_advance_is_rejected(self, dt):
        def hang(signum, frame):
            raise TimeoutError(f"dt = {dt} did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match="dt"):
                lag.period_function(vortex_velocity, [[2.0, np.pi / 2]], dt=dt, t_max=1.0)
            with pytest.raises(ValueError, match="dt"):
                lag.advect(lag.ParticleSet.lattice(2), vortex_velocity, dt, n_steps=3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestGradientGrowth:
    def test_shear_gradient_grows_like_its_closed_form(self):
        g = Grid2(16, 512)
        X, Y = g.meshgrid()
        w = SpectralField2.from_values(g, np.cos(Y)).project_mean_free()
        f0 = SpectralField2.from_values(g, np.cos(X))
        res = e2.run(w, 80.0, cfl=0.4, diag_every=2.0, casimirs=(),
                     scalars={"dye": f0})
        gr = lag.gradient_growth(res, fit_window=(10.0, 80.0))
        exact = np.sqrt(1.0 + gr["t"] ** 2)
        assert np.max(np.abs(gr["series"]["dye"] - exact)) < 1e-10

    def test_quiescent_flow_freezes_the_gradient(self):
        g = Grid2(32, 32)
        X, _ = g.meshgrid()
        res = e2.run(SpectralField2.zeros(g), 20.0, diag_every=2.0, casimirs=(),
                     scalars={"dye": SpectralField2.from_values(g, np.cos(X))})
        gr = lag.gradient_growth(res, fit_window=(2.0, 20.0))
        assert abs(gr["rates"]["dye"]) < 1e-15
        assert np.ptp(gr["series"]["dye"]) < 1e-12

    def test_cellular_perturbed_flow_stretches_the_dye(self):
        g = Grid2(64, 64)
        X, Y = g.meshgrid()
        w = SpectralField2.from_values(
            g, -2 * np.cos(X) * np.cos(Y) + 0.3 * np.cos(2 * X) * np.cos(Y)
        ).project_mean_free()
        f0 = SpectralField2.from_values(g, np.cos(X))
        res = e2.run(w, 10.0, diag_every=1.0, casimirs=(), scalars={"dye": f0})
        gr = lag.gradient_growth(res, fit_window=(1.0, 10.0))
        assert gr["rates"]["dye"] > 0.05
        assert gr["series"]["dye"][-1] / gr["series"]["dye"][0] > 5.0

    def test_run_without_scalars_is_rejected(self):
        g = Grid2(32, 32)
        _, Y = g.meshgrid()
        res = e2.run(SpectralField2.from_values(g, np.cos(Y)).project_mean_free(),
                     1.0, diag_every=0.5, casimirs=())
        with pytest.raises(ValueError, match="scalar"):
            lag.gradient_growth(res)
