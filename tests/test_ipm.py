"""Tests for the porous-medium density transport system."""

import numpy as np
import pytest

from eulerlab import ipm
from eulerlab.fields import SpectralField2, to_coeffs
from eulerlab.grids import Grid2
from eulerlab.operators import dealias
from eulerlab.presets import heavy_over_light, light_over_heavy, stratified_rest


def band_noise(g, seed, kmax):
    rng = np.random.default_rng(seed)
    c = to_coeffs(rng.normal(size=g.shape))
    c *= (np.abs(g.mx)[:, None] <= kmax) & (np.abs(g.my)[None, :] <= kmax)
    return SpectralField2.from_coeffs(g, c)


class TestConstitutiveLaw:
    def test_curl_of_velocity_is_minus_rho_x(self):
        g = Grid2(64, 64)
        rho = band_noise(g, 5, 6)
        u = ipm.ipm_velocity(rho)
        curl = (1j * g.kx)[:, None] * u.u2.coeffs - (1j * g.ky)[None, :] * u.u1.coeffs
        target = -(1j * g.kx)[:, None] * rho.coeffs
        target[0, 0] = 0.0
        assert np.max(np.abs(curl - target)) < 1e-13

    def test_velocity_is_divergence_free(self):
        g = Grid2(64, 64)
        u = ipm.ipm_velocity(band_noise(g, 5, 6))
        div = (1j * g.kx)[:, None] * u.u1.coeffs + (1j * g.ky)[None, :] * u.u2.coeffs
        assert np.max(np.abs(div)) < 1e-14

    def test_pure_stratification_is_motionless(self):
        g = Grid2(64, 64)
        _, Y = g.meshgrid()
        u = ipm.ipm_velocity(SpectralField2.from_values(
            g, np.cos(2 * Y) - 0.3 * np.sin(Y) + 0.7))
        assert u.u1.norm_inf() == 0.0
        assert u.u2.norm_inf() == 0.0

    def test_horizontal_density_wave_falls_straight_down(self):
        g = Grid2(64, 64)
        X, _ = g.meshgrid()
        u = ipm.ipm_velocity(SpectralField2.from_values(g, np.cos(X)))
        assert u.u1.norm_inf() == 0.0
        assert np.max(np.abs(u.u2.values + np.cos(X))) < 1e-14


class TestRun:
    def test_stratified_rest_state_is_preserved_exactly(self):
        g = Grid2(64, 64)
        _, Y = g.meshgrid()
        rest = SpectralField2.from_values(g, -np.sin(Y) + 0.2 * np.cos(2 * Y))
        res = ipm.ipm_run(rest, 10.0, diag_every=1.0)
        # the run starts from the dealiased density (round-off modes above
        # the 2/3 cut removed) and must hold it bit for bit
        assert np.max(np.abs(res.final.rho.values - dealias(rest).values)) == 0.0
        assert not res.under_resolved
        assert np.allclose(res.times, np.arange(0.0, 10.5, 1.0), atol=1e-9)

    def test_modes_above_the_cut_are_dropped_on_entry(self):
        g = Grid2(48, 48)
        X, Y = g.meshgrid()
        rho = heavy_over_light(g, eps=0.05) + SpectralField2.from_values(
            g, 0.3 * np.cos(20 * X) + 0.2 * np.sin(22 * Y))
        assert np.max(np.abs(rho.coeffs * ~g.dealias_mask)) > 0.09
        res = ipm.ipm_run(rho, 1.0, diag_every=0.25)
        ref = ipm.ipm_run(dealias(rho), 1.0, diag_every=0.25)
        assert res.diagnostics == ref.diagnostics
        np.testing.assert_array_equal(res.final.rho.coeffs, ref.final.rho.coeffs)

    def test_heavy_interface_destabilizes_and_stratifies(self):
        g = Grid2(128, 128)
        res = ipm.ipm_run(heavy_over_light(g, eps=0.05), 10.0,
                          cfl=0.4, diag_every=0.5)
        grads = np.array([r.grad_sup for r in res.diagnostics])
        e_pot = np.array([r.e_pot for r in res.diagnostics])
        mass = np.array([r.mass for r in res.diagnostics])
        c2 = np.array([r.casimirs["rho^2"] for r in res.diagnostics])
        assert grads[-1] / grads[0] > 5.0
        assert np.all(np.diff(grads) > 0.0)
        assert np.all(np.diff(e_pot) < 0.0)  # released into stratification
        assert np.max(np.abs(mass - mass[0])) < 1e-12
        assert np.max(np.abs(c2 - c2[0])) / c2[0] < 1e-5
        # filaments sharpen past the dealiased band by t = 10: the flag
        # must report it
        assert res.under_resolved
        assert res.diagnostics[-1].tail_fraction > 1e-6
        assert res.diagnostics[10].tail_fraction < 1e-12

    def test_stable_orientation_stays_quiet(self):
        g = Grid2(128, 128)
        res = ipm.ipm_run(light_over_heavy(g, eps=0.05), 10.0,
                          cfl=0.4, diag_every=0.5)
        grads = np.array([r.grad_sup for r in res.diagnostics])
        assert np.max(grads) / grads[0] < 2.0
        assert not res.under_resolved

    def test_default_perturbation_run_is_fully_resolved(self):
        g = Grid2(128, 128)
        res = ipm.ipm_run(heavy_over_light(g, eps=0.01), 10.0,
                          cfl=0.4, diag_every=0.5)
        grads = np.array([r.grad_sup for r in res.diagnostics])
        e_pot = np.array([r.e_pot for r in res.diagnostics])
        assert np.all(np.diff(grads) > 0.0)
        assert np.all(np.diff(e_pot) < 0.0)
        assert grads[-1] / grads[0] > 1.5
        assert not res.under_resolved

    def test_coarse_grid_trips_the_resolution_flag(self):
        g = Grid2(48, 48)
        res = ipm.ipm_run(heavy_over_light(g, eps=0.05), 14.0,
                          cfl=0.4, diag_every=1.0)
        assert res.under_resolved

    def test_argument_validation(self):
        g = Grid2(32, 32)
        rho = stratified_rest(g)
        with pytest.raises(ValueError, match="cfl"):
            ipm.ipm_run(rho, 1.0, cfl=0.9)
        with pytest.raises(ValueError, match="t_end"):
            ipm.ipm_run(rho, -1.0)
        with pytest.raises(ValueError, match="diag_every"):
            ipm.ipm_run(rho, 1.0, diag_every=0.0)

    def test_nonfinite_diagnostics_raise_typed_error(self, monkeypatch):
        g = Grid2(32, 32)
        real = ipm.transport_coeffs
        monkeypatch.setattr(ipm, "transport_coeffs",
                            lambda *args: real(*args) * np.nan)
        with pytest.raises(ipm.BlowupError) as info:
            ipm.ipm_run(heavy_over_light(g), 1.0, diag_every=0.5)
        exc = info.value
        assert exc.t > 0.0 and exc.step >= 1
        assert exc.last_record is not None and exc.last_record.t == 0.0
