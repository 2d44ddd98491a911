"""Tests for the 2D Euler solver, diagnostics, and steady-state tools."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import euler2d as e2
from eulerlab import lagrangian as lag
from eulerlab import presets, stepping
from eulerlab.fields import (SpectralField2, VectorField2, Workspace, l2_inner, mode_power,
                             to_coeffs, to_values)
from eulerlab.grids import Grid2
from eulerlab.operators import biot_savart, stream_velocity
from eulerlab.snapshots import read_snapshot, write_snapshot

TWO_PI = 2.0 * np.pi


def field(g, fn):
    X, Y = g.meshgrid()
    return SpectralField2.from_values(g, fn(X, Y)).project_mean_free()


class Writer:
    """A run's ``snapshot`` callable: writes each field into ``directory``
    and keeps the names in the order it got them."""

    def __init__(self, directory):
        self.directory, self.names = directory, []

    def __call__(self, name, fields, t):
        write_snapshot(self.directory / name, fields, t)
        self.names.append(name)


def random_band(g, seed, kmax, rms):
    rng = np.random.default_rng(seed)
    c = to_coeffs(rng.normal(size=g.shape))
    band = (np.abs(g.mx)[:, None] <= kmax) & (np.abs(g.my)[None, :] <= kmax)
    c *= band
    c[0, 0] = 0.0
    f = SpectralField2.from_coeffs(g, c)
    return f * (rms / math.sqrt(np.sum(mode_power(g, f.coeffs))))


def tendency(w):
    """The vorticity tendency -u.grad(omega) of one Euler stage, dealiased and mean-free."""
    (k,) = e2._StageEval(w.grid)(0.0, (w.coeffs,), (None,))
    return SpectralField2(w.grid, k)


class TestVorticityTendency:
    def test_matches_brute_force_transform(self):
        """Cross-check against an explicit full-spectrum DFT-matrix evaluation,
        whose first n/2 + 1 columns are the half spectrum."""
        n = 16
        g = Grid2(n, n)
        x = g.x
        m = g.mx  # FFT ordering of all n modes, on both axes
        E = np.exp(-1j * np.outer(m, x))
        Einv = np.exp(1j * np.outer(x, m))

        def brute_rhs(vals):
            c = E @ vals @ E.T / n ** 2
            k2 = m[:, None] ** 2 + m[None, :] ** 2
            psi = np.where(k2 > 0, -c / np.where(k2 > 0, k2, 1), 0.0)
            ikx = 1j * m[:, None] * np.ones((1, n))
            iky = 1j * m[None, :] * np.ones((n, 1))
            u1 = (Einv @ (-iky * psi) @ Einv.T).real
            u2 = (Einv @ (ikx * psi) @ Einv.T).real
            wx = (Einv @ (ikx * c) @ Einv.T).real
            wy = (Einv @ (iky * c) @ Einv.T).real
            adv = E @ (u1 * wx + u2 * wy) @ E.T / n ** 2
            adv *= (np.abs(m)[:, None] <= n // 3) & (np.abs(m)[None, :] <= n // 3)
            adv[0, 0] = 0.0
            return -adv[:, :n // 2 + 1]

        for fn in (lambda X, Y: np.cos(X) + np.cos(2 * Y),
                   lambda X, Y: np.cos(X) + 0.5 * np.cos(2 * Y) + 0.3 * np.sin(X + Y)):
            w = field(g, fn)
            ours = tendency(w).coeffs
            assert np.max(np.abs(ours - brute_rhs(w.values))) < 1e-13

    def test_cellular_state_is_steady(self):
        g = Grid2(64, 64)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        rhs = tendency(w)
        assert np.max(np.abs(rhs.coeffs)) < 1e-14

    @given(seed=st.integers(0, 50), kmax=st.integers(1, 5))
    @settings(max_examples=12, deadline=None)
    def test_tendency_orthogonal_to_energy_and_enstrophy(self, seed, kmax):
        g = Grid2(32, 32)
        w = random_band(g, seed, kmax, 0.5)
        rhs = tendency(w)
        psi = SpectralField2(g, g.inv_minus_k2 * w.coeffs)
        assert abs(l2_inner(rhs, w)) < 1e-12
        assert abs(l2_inner(rhs, psi)) < 1e-12


class TestStepping:
    def test_rejects_cfl_out_of_range(self):
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: np.cos(Y))
        with pytest.raises(ValueError, match="cfl"):
            e2.run(w, 0.1, cfl=0.9)

    def test_no_step_exceeds_the_cfl_bound(self, monkeypatch):
        # every step is at most the CFL bound of the state it starts from,
        # and a step that no output time cuts takes the whole bound
        g = Grid2(32, 32)
        w = random_band(g, 3, 4, 0.5)
        ratios, real = [], stepping.rk4_step

        def checked(rhs, t, y, dt, k1=None, work=None):
            u1c, u2c = stream_velocity(y[0], g)
            ratios.append(dt / stepping.cfl_dt(g, to_values(u1c), to_values(u2c), 0.4))
            return real(rhs, t, y, dt, k1, work)

        monkeypatch.setattr(stepping, "rk4_step", checked)
        e2.run(w, 2.0, cfl=0.4, diag_every=0.5, casimirs=())
        assert len(ratios) > 8
        assert max(ratios) <= 1.0
        assert sum(r == 1.0 for r in ratios) >= len(ratios) - 4

    def test_preserves_steady_state(self):
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        s = e2.run(w, 0.4, cfl=0.1, diag_every=0.4, casimirs=()).final
        assert np.max(np.abs(s.omega.values - w.values)) < 1e-12
        assert s.t == pytest.approx(0.4)


class TestRunDiagnostics:
    def test_cellular_closed_form_diagnostics(self):
        g = Grid2(64, 64)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        res = e2.run(w, 2.0, diag_every=0.5, casimirs=(4,))
        rec0 = res.diagnostics[0]
        assert rec0.energy == pytest.approx(np.pi ** 2, rel=1e-12)
        assert rec0.enstrophy == pytest.approx(4 * np.pi ** 2, rel=1e-12)
        assert rec0.casimirs["omega^4"] == pytest.approx(9 * np.pi ** 2, rel=1e-12)
        assert rec0.palinstrophy == pytest.approx(8 * np.pi ** 2, rel=1e-12)
        assert rec0.omega_max == pytest.approx(2.0, abs=1e-12)
        assert rec0.bkm_integral == 0.0
        # the state is steady: sup |omega| integrates to 2t
        recT = res.diagnostics[-1]
        assert recT.t == pytest.approx(2.0)
        assert recT.bkm_integral == pytest.approx(4.0, rel=1e-10)
        assert np.max(np.abs(res.final.omega.values - w.values)) < 1e-11

    def test_cadence_and_determinism(self):
        g = Grid2(64, 64)
        w = random_band(g, 2, 3, 0.3)
        r1 = e2.run(w, 2.0, diag_every=0.5, casimirs=(4,))
        r2 = e2.run(w, 2.0, diag_every=0.5, casimirs=(4,))
        assert np.allclose(r1.times, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-9)
        for a, b in zip(r1.diagnostics, r2.diagnostics):
            assert a.energy == b.energy and a.enstrophy == b.enstrophy

    def test_records_match_diagnostics_from_the_coefficients(self, tmp_path):
        # the run reads the samples its steps made; a record made afresh from
        # the coefficients, and the snapshot of the same time, have its bits
        g = Grid2(32, 32)
        w = random_band(g, 4, 4, 0.5)
        states = []
        res = e2.run(w, 1.0, diag_every=0.25, casimirs=(2, 3, 4),
                     snapshot=Writer(tmp_path), snapshot_every=0.25,
                     observer=lambda s: states.append((s.t, s.omega.coeffs.copy())))
        assert len(res.diagnostics) == len(states) == 5
        for rec, (t, c) in zip(res.diagnostics, states):
            assert rec == e2._diagnostics(g, c, t, rec.bkm_integral, (2, 3, 4), to_values(c),
                                          Workspace())
        for i, (t, c) in enumerate(states[1:]):
            blocks, t_read = read_snapshot(tmp_path / f"snap_{i:05d}.eulb")
            assert t_read == t and blocks[0].tobytes() == to_values(c).tobytes()

    def test_quadratic_invariants_drift(self):
        g = Grid2(64, 64)
        w = random_band(g, 2, 3, 0.3)
        res = e2.run(w, 2.0, diag_every=0.5, casimirs=())
        e0 = res.diagnostics[0].energy
        z0 = res.diagnostics[0].enstrophy
        for rec in res.diagnostics:
            assert abs(rec.energy - e0) / e0 < 1e-8
            assert abs(rec.enstrophy - z0) / z0 < 5e-8

    def test_snapshot_files_roundtrip(self, tmp_path):
        g = Grid2(64, 64)
        w = random_band(g, 2, 3, 0.3)
        writer = Writer(tmp_path)
        res = e2.run(w, 1.0, diag_every=0.5, casimirs=(), snapshot=writer, snapshot_every=0.25)
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 4
        assert writer.names == names
        fields_read, t_read = read_snapshot(tmp_path / names[-1])
        assert t_read == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(fields_read[0], res.final.omega.values)

    def test_rejects_bad_arguments(self):
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: np.cos(Y))
        with pytest.raises(ValueError):
            e2.run(w, -1.0)
        with pytest.raises(ValueError):
            e2.run(w, 1.0, cfl=0.8)
        mean_full = SpectralField2.from_values(g, np.cos(g.meshgrid()[1]) + 1.0)
        with pytest.raises(ValueError):
            e2.run(mean_full, 1.0)


def poison_after(monkeypatch, module, calls):
    """Make ``module.transport_coeffs`` return NaN from call ``calls + 1`` on."""
    real = module.transport_coeffs
    count = [0]

    def poisoned(*args):
        count[0] += 1
        out = real(*args)
        return out * np.nan if count[0] > calls else out

    monkeypatch.setattr(module, "transport_coeffs", poisoned)


class TestWorkspace:
    def test_runs_in_one_process_are_bit_identical(self):
        # 72^2 samples markers through the spline path, whose arrays are reused
        g = Grid2(72, 72)
        w = random_band(g, 5, 6, 0.5)
        scalars = {"a": field(g, lambda X, Y: np.cos(X + Y)),
                   "b": field(g, lambda X, Y: np.sin(2 * X) * np.cos(Y))}
        first, second = (e2.run(w, 0.5, diag_every=0.25, casimirs=(), marker_lattice=8,
                                scalars=scalars) for _ in range(2))
        assert first.final.omega.coeffs.tobytes() == second.final.omega.coeffs.tobytes()
        for name in scalars:
            assert first.scalars[name].coeffs.tobytes() == second.scalars[name].coeffs.tobytes()
        for a, b in zip(first.marker_snapshots, second.marker_snapshots):
            assert a.lifts.tobytes() == b.lifts.tobytes()
        assert len(first.marker_snapshots) == 3

    def test_steps_allocate_no_grid_sized_arrays(self, monkeypatch):
        """After the first diagnostics interval, the steps between two diagnostics
        allocate less than two coefficient arrays at their peak (stages with
        fresh arrays peak at about fourteen)."""
        g = Grid2(64, 64)
        w = random_band(g, 2, 6, 0.5)
        windows, state = [], {"base": 0, "steps": 0}
        real_diag, real_cfl = e2._diagnostics, e2.cfl_dt

        def diagnostics(*args):
            windows.append((tracemalloc.get_traced_memory()[1] - state["base"],
                            state["steps"]))
            return real_diag(*args)

        def counting_cfl(*args):
            state["steps"] += 1
            return real_cfl(*args)

        def observer(_):  # the end of each diagnostics call opens a window
            tracemalloc.reset_peak()
            state.update(base=tracemalloc.get_traced_memory()[0], steps=0)

        monkeypatch.setattr(e2, "_diagnostics", diagnostics)
        monkeypatch.setattr(e2, "cfl_dt", counting_cfl)
        tracemalloc.start()
        try:
            e2.run(w, 3.0, cfl=0.4, diag_every=1.0, casimirs=(), observer=observer,
                   scalars={"s": field(g, lambda X, Y: np.cos(X + 2 * Y))})
        finally:
            tracemalloc.stop()
        bound = 2 * 16 * g.coeff_shape[0] * g.coeff_shape[1]
        steady = windows[2:]  # t = 0, then the interval that builds the workspace
        assert len(steady) == 2 and all(steps >= 10 for _, steps in steady)
        assert all(peak < bound for peak, _ in steady), (steady, bound)


class TestBlowup:
    def test_nonfinite_step_raises_typed_error_and_checkpoints_last_finite_state(
            self, tmp_path, monkeypatch):
        g = Grid2(16, 16)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        poison_after(monkeypatch, e2, 4 * 3)  # four stages a step: step 4 goes bad
        with pytest.raises(e2.BlowupError) as info:
            e2.run(w, 2.0, diag_every=0.25, casimirs=(), snapshot=Writer(tmp_path))
        exc = info.value
        assert exc.step == 4
        assert exc.last_record is not None and exc.last_record.t < exc.t < 0.75
        assert "numerical blow-up detected" in str(exc)
        fields_read, t_read = read_snapshot(tmp_path / "checkpoint_abort.eulb")
        assert np.all(np.isfinite(fields_read[0]))
        assert exc.last_record.t < t_read < exc.t
        # the state is steady, so the checkpoint is the initial field
        assert np.max(np.abs(fields_read[0] - w.values)) < 1e-12

    def test_nonfinite_initial_state(self, tmp_path):
        g = Grid2(16, 16)
        c = np.zeros(g.coeff_shape, dtype=complex)
        c[1, 0] = c[-1, 0] = np.nan
        writer = Writer(tmp_path)
        with pytest.raises(e2.BlowupError) as info:
            e2.run(SpectralField2(g, c), 1.0, snapshot=writer)
        assert info.value.step == 0 and info.value.last_record is None
        assert os.listdir(tmp_path) == []
        assert writer.names == []

    def test_snapshot_callable_gets_each_field_in_order_then_the_checkpoint(
            self, monkeypatch):
        g = Grid2(16, 16)
        w = field(g, lambda X, Y: -2 * np.cos(X) * np.cos(Y))
        got = []
        poison_after(monkeypatch, e2, 4 * 7)  # four stages a step: step 8 goes bad
        with pytest.raises(e2.BlowupError) as info:
            e2.run(w, 2.0, diag_every=0.5, casimirs=(), snapshot_every=0.25,
                   snapshot=lambda name, fields, t: got.append((name, fields[0].copy(), t)))
        assert info.value.step == 8
        names = [name for name, _, _ in got]
        assert len(names) >= 3
        assert names == [f"snap_{i:05d}.eulb" for i in range(len(names) - 1)] \
            + ["checkpoint_abort.eulb"]
        times = [t for _, _, t in got]
        assert times[:-1] == pytest.approx(0.25 * np.arange(1, len(names)), abs=1e-12)
        assert times[-2] <= times[-1] < info.value.t
        assert all(np.all(np.isfinite(vals)) for _, vals, _ in got)


class TestShearBandEvolution:
    def test_single_mode_closed_forms(self):
        ts = np.linspace(10, 100, 181)
        out = e2.couette_linear_evolve([(1, 0.0, 1.0)], ts)
        base = e2.couette_linear_evolve([(1, 0.0, 1.0)], [0.0])
        ratio = out["u2_l2"] / base["u2_l2"][0]
        assert np.max(np.abs(ratio - 1.0 / (1.0 + ts ** 2))) < 1e-14
        assert np.max(np.abs(out["u1_l2"] - ts / (1.0 + ts ** 2))) < 1e-14

    def test_multi_mode_decay_exponents(self):
        ts = np.linspace(10, 100, 181)
        modes = [(1, 0.3, 1.0), (2, -0.7, 0.6), (3, 1.1, 0.25), (1, -1.4, 0.4)]
        out = e2.couette_linear_evolve(modes, ts)
        s1 = np.polyfit(np.log(ts), np.log(out["u1_l2"]), 1)[0]
        s2 = np.polyfit(np.log(ts), np.log(out["u2_l2"]), 1)[0]
        assert abs(s1 + 1.0) < 0.01
        assert abs(s2 + 2.0) < 0.001

    def test_vorticity_h1_grows_linearly(self):
        # late window: the constant-offset curvature decays like 1/t
        ts = np.linspace(100, 1000, 181)
        out = e2.couette_linear_evolve([(1, 0.3, 1.0)], ts)
        slope = np.polyfit(np.log(ts), np.log(out["omega_h1"]), 1)[0]
        assert abs(slope - 1.0) < 0.01

    def test_streamwise_band_is_frozen(self):
        ts = np.array([0.0, 5.0, 50.0])
        out = e2.couette_linear_evolve([(0, 2.0, 0.5)], ts)
        assert np.ptp(out["shear_u1_l2"]) == 0.0
        assert np.max(out["u2_l2"]) == 0.0

    def test_rejects_constant_mode(self):
        with pytest.raises(ValueError, match="mode"):
            e2.couette_linear_evolve([(0, 0.0, 1.0)], [0.0, 1.0])


class TestSteadyStates:
    def test_residual_vanishes_for_steady_streams(self):
        g = Grid2(64, 64)
        shear = field(g, lambda X, Y: np.cos(Y))
        cell = field(g, lambda X, Y: np.cos(X) * np.cos(Y))
        assert e2.steady_residual(shear) < 1e-11
        assert e2.steady_residual(cell) < 1e-11

    def test_residual_pinned_value_and_grid_independence(self):
        val64 = e2.steady_residual(
            field(Grid2(64, 64), lambda X, Y: np.cos(X) * np.cos(Y) + 0.3 * np.cos(2 * X)))
        val128 = e2.steady_residual(
            field(Grid2(128, 128), lambda X, Y: np.cos(X) * np.cos(Y) + 0.3 * np.cos(2 * X)))
        assert val64 == pytest.approx(2.665729762895, rel=1e-10)
        assert val128 == pytest.approx(val64, rel=1e-12)

    def test_eigen_datum_converges_instantly(self):
        g = Grid2(32, 32)
        guess = field(g, lambda X, Y: np.cos(X) * np.cos(Y))
        st_ = e2.semilinear_solve(lambda s: -2 * s, lambda s: -2 * np.ones_like(s), guess)
        assert st_.converged and st_.iterations == 0
        # the solver normalizes the guess (mean-free projection), so the
        # comparison survives one transform roundtrip, not bitwise
        assert np.max(np.abs(st_.psi.values - guess.values)) < 1e-14

    def test_cubic_balance_selects_flat_solution(self):
        g = Grid2(32, 32)
        guess = field(g, lambda X, Y: np.cos(X) * np.cos(Y))
        st_ = e2.semilinear_solve(lambda s: -2 * s + 0.1 * s ** 3,
                                  lambda s: -2 + 0.3 * s ** 2, guess, tol=1e-11)
        assert st_.converged
        assert st_.equation_residual < 1e-10
        assert st_.psi.norm_inf() < 1e-2

    def test_contractive_zero_limit(self):
        g = Grid2(32, 32)
        guess = field(g, lambda X, Y: 0.4 * np.cos(X) + 0.2 * np.sin(Y))
        st_ = e2.semilinear_solve(lambda s: s, lambda s: np.ones_like(s), guess)
        assert st_.converged
        assert st_.psi.norm_l2() < 1e-11

    def test_degenerate_linearization_is_reported(self):
        g = Grid2(32, 32)
        guess = field(g, lambda X, Y: np.cos(X + Y) + np.cos(X) + np.cos(Y))
        with pytest.raises(ValueError, match="degenerate linearization"):
            e2.semilinear_solve(lambda s: -2 * s + s ** 2,
                                lambda s: -2 * np.ones_like(s), guess)


class TestKernelProbe:
    def test_shifted_laplacian_gap(self):
        g = Grid2(16, 16)
        st_ = e2.SteadyState(SpectralField2.zeros(g), lambda s: s,
                             lambda s: np.ones_like(s), 0.0, 0.0, True, 0)
        probe = e2.kernel_probe(st_)
        assert not probe["kernel"]
        assert np.allclose(probe["smallest_singular_values"], [2, 2, 2, 2, 3, 3], atol=1e-9)

    def test_resonant_shift_is_flagged(self):
        g = Grid2(16, 16)
        guess = field(g, lambda X, Y: np.cos(X) * np.cos(Y))
        st_ = e2.SteadyState(guess, lambda s: -2 * s,
                             lambda s: -2 * np.ones_like(s), 0.0, 0.0, True, 0)
        probe = e2.kernel_probe(st_)
        assert probe["kernel"]
        assert probe["smallest_singular_values"][0] < 1e-12

    def test_cubic_limit_keeps_resonant_kernel(self):
        g = Grid2(32, 32)
        guess = field(g, lambda X, Y: np.cos(X) * np.cos(Y))
        st_ = e2.semilinear_solve(lambda s: -2 * s + 0.1 * s ** 3,
                                  lambda s: -2 + 0.3 * s ** 2, guess, tol=1e-11)
        probe = e2.kernel_probe(st_)
        assert probe["kernel"]

    def test_guards(self):
        g = Grid2(128, 128)
        st_ = e2.SteadyState(SpectralField2.zeros(g), lambda s: s,
                             lambda s: np.ones_like(s), 0.0, 0.0, True, 0)
        with pytest.raises(ValueError, match="too large"):
            e2.kernel_probe(st_)
        bad = e2.SteadyState(SpectralField2.zeros(Grid2(16, 16)), lambda s: s,
                             lambda s: np.ones_like(s), 1.0, 1.0, False, 3)
        with pytest.raises(ValueError, match="converged"):
            e2.kernel_probe(bad)


class TestStabilityCertificate:
    def test_monotone_profile_is_certified(self):
        g = Grid2(64, 64)
        st_ = e2.SteadyState(SpectralField2.zeros(g), lambda s: s,
                             lambda s: np.ones_like(s), 0.0, 0.0, True, 0)
        cert = e2.arnold_certificate(st_, epsilon=1e-3, t_end=20.0)
        assert cert["certified"]
        assert cert["min_Fprime"] == pytest.approx(1.0)
        assert cert["h2_max"] / cert["h2_initial"] < 1.5

    def test_resonant_profile_is_not_certified(self):
        g = Grid2(64, 64)
        guess = field(g, lambda X, Y: np.cos(X) * np.cos(Y))
        st_ = e2.SteadyState(guess, lambda s: -2 * s,
                             lambda s: -2 * np.ones_like(s), 0.0, 0.0, True, 0)
        cert = e2.arnold_certificate(st_, epsilon=1e-3, t_end=5.0)
        assert not cert["certified"]
        assert cert["min_Fprime"] == pytest.approx(-2.0)
        assert cert["h2_max"] / cert["h2_initial"] < 2.0


class TestMarkerSteps:
    """Markers take one RK4 step per two flow steps, sampled on the flow's
    step boundaries, and one when a diagnostics time ends the first."""

    @staticmethod
    def lifts(res):
        return res.marker_snapshots[-1].lifts

    def test_equal_steps_in_a_steady_flow_advect_with_twice_the_step(self, monkeypatch):
        # the cellular flow is steady, so its CFL steps are equal and each
        # marker step's mid-time velocity is its shared boundary's
        g = Grid2(128, 128)
        w = presets.taylor_green(g)
        u1c, u2c = stream_velocity(w.coeffs, g)
        dt = stepping.cfl_dt(g, to_values(u1c), to_values(u2c), 0.4)
        n, dts, real = 6, [], e2.cfl_dt

        def recording(*args):
            dts.append(real(*args))
            return dts[-1]

        monkeypatch.setattr(e2, "cfl_dt", recording)
        res = e2.run(w, 2 * n * dt, cfl=0.4, diag_every=2 * n * dt, casimirs=(),
                     marker_lattice=16)
        assert dts == [dt] * (2 * n)
        sampler = lag.VelocitySampler(g, u1c, u2c)
        assert sampler.method == "bicubic"
        lattice = lag.ParticleSet.lattice(16)
        want = lag.advect(lattice, sampler, 2 * dt, n_steps=n).lifts
        scale = np.max(np.abs(want))
        assert np.max(np.abs(self.lifts(res) - want)) <= 1e-12 * scale
        # one marker step per flow step would be another map
        single = lag.advect(lattice, sampler, dt, n_steps=2 * n).lifts
        assert np.max(np.abs(self.lifts(res) - single)) > 1e-10 * scale

    def test_lifts_are_fourth_order_in_time(self):
        # the perturbed cellular flow of gate 06 at 128^2, with diagnostics
        # every few steps so that many marker steps span a single flow step:
        # the markers move by less than 2e-8 from a cfl/8 reference, far
        # below the 4.4e-5 Weber residual of the 128^2 lattice in gate 06
        g = Grid2(128, 128)
        w = presets.taylor_green_perturbed(g, eps=0.3)
        lifts = {cfl: self.lifts(e2.run(w, 0.5, cfl=cfl, diag_every=0.05, casimirs=(),
                                        marker_lattice=32))
                 for cfl in (0.4, 0.2, 0.05)}
        err = {cfl: np.max(np.abs(lifts[cfl] - lifts[0.05])) for cfl in (0.4, 0.2)}
        assert err[0.4] < 2e-8
        assert 10.0 < err[0.4] / err[0.2] < 24.0

    def test_mid_time_value_is_exact_for_cubics_in_time(self):
        # the Hermite value through coefficients and tendencies reproduces
        # any cubic in time, in either flow step of a pair
        g = Grid2(16, 16)
        rng = np.random.default_rng(4)
        a, b, c, d = (rng.normal(size=g.coeff_shape) + 1j * rng.normal(size=g.coeff_shape)
                      for _ in range(4))
        nodes = [(t, (a + t * (b + t * (c + t * d)), b + t * (2 * c + 3 * t * d)))
                 for t in (0.3, 0.37, 0.52)]
        track = lag.MarkerTrack(g, lag.ParticleSet.lattice(8).lifts)
        for offset in (0.0, 0.02, 0.07, 0.11, 0.22):
            t = 0.3 + offset
            want = a + t * (b + t * (c + t * d))
            assert np.max(np.abs(track._hermite(nodes, offset) - want)) < 1e-13

    def test_snapshots_sit_on_diagnostics_times_after_odd_intervals(self, monkeypatch):
        # three flow steps per diagnostics interval: the third is a marker
        # step of its own, so the lifts reach each diagnostics time exactly;
        # in the shear u1 = -sin y they move by exactly -t sin y0
        g = Grid2(32, 32)
        w = field(g, lambda X, Y: np.cos(Y))
        dt = 0.4 * g.dx
        counts, real = [0], e2.cfl_dt

        def counting(*args):
            counts[-1] += 1
            return real(*args)

        monkeypatch.setattr(e2, "cfl_dt", counting)
        res = e2.run(w, 4 * 2.9 * dt, cfl=0.4, diag_every=2.9 * dt, casimirs=(),
                     marker_lattice=8, observer=lambda state: counts.append(0))
        assert counts[1:-1] == [3, 3, 3, 3]
        assert [s.t for s in res.marker_snapshots] == list(res.times)
        for p in res.marker_snapshots:
            drift = p.lifts - p.lifts0
            assert np.max(np.abs(drift[:, 0] + p.t * np.sin(p.lifts0[:, 1]))) < 1e-13
            assert np.max(np.abs(drift[:, 1])) < 1e-13


class TestWeberResidual:
    def test_steady_shear_pullback_is_exact(self):
        g = Grid2(128, 128)
        w = field(g, lambda X, Y: np.cos(Y))
        u0 = e2.EulerState(w, 0.0).velocity()
        res = e2.run(w, 2.0, diag_every=0.5, casimirs=(), marker_lattice=128)
        r = e2.weber_residual(res.final, res.marker_snapshots[-1], u0)
        assert r < 1e-10

    def test_time_mismatch_is_rejected(self):
        g = Grid2(64, 64)
        w = field(g, lambda X, Y: np.cos(Y))
        u0 = e2.EulerState(w, 0.0).velocity()
        res = e2.run(w, 1.0, diag_every=0.5, casimirs=(), marker_lattice=32)
        with pytest.raises(ValueError, match="time"):
            e2.weber_residual(res.final, res.marker_snapshots[0], u0)
