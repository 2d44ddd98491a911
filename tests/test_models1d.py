"""Tests for the 1D blow-up models: CLM and its transport variant."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import models1d
from eulerlab.fields import SpectralField1
from eulerlab.grids import Grid1
from eulerlab.models1d import (
    clm_blowup_time,
    clm_exact,
    MODELS,
    locate_blowup_point,
    model_rhs,
    model_run,
    refined_sup,
    selfsim_extract,
)
from eulerlab.operators import hilbert_transform


def cosine(n: int, amp: float = 1.0) -> SpectralField1:
    g = Grid1(n)
    return SpectralField1.from_values(g, amp * np.cos(g.x))


def band_limited(n: int, kmax: int, seed: int, scale: float = 0.2) -> SpectralField1:
    rng = np.random.default_rng(seed)
    c = np.zeros(n // 2 + 1, dtype=complex)
    for m in range(1, kmax + 1):
        c[m] = scale * (rng.normal() + 1j * rng.normal())
    return SpectralField1.from_coeffs(Grid1(n), c)


class TestClmRhs:
    def test_cosine_gives_half_sin_2x(self):
        g = Grid1(128)
        r = model_rhs(SpectralField1.from_values(g, np.cos(g.x)), MODELS["clm"])
        assert np.max(np.abs(r.values - 0.5 * np.sin(2 * g.x))) < 1e-14

    def test_constant_is_annihilated(self):
        g = Grid1(64)
        r = model_rhs(SpectralField1.from_values(g, np.full(64, 2.3)), MODELS["clm"])
        assert r.norm_inf() < 1e-14

    def test_matches_pointwise_product(self):
        # ω = cos x + sin 2x: H(ω) = sin x - cos 2x, both low-order
        # trig polynomials, so the dealiased product is exact.
        g = Grid1(32)
        w = np.cos(g.x) + np.sin(2 * g.x)
        h = np.sin(g.x) - np.cos(2 * g.x)
        r = model_rhs(SpectralField1.from_values(g, w), MODELS["clm"])
        assert np.max(np.abs(r.values - w * h)) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_riccati_structure(self, seed):
        # z = Hω + iω turns the equation into dz/dt = z²/2; for data
        # band-limited below a third of the cutoff the discrete right-hand
        # side satisfies the same algebra exactly.
        w = band_limited(128, kmax=21, seed=seed)
        r = model_rhs(w, MODELS["clm"])
        z = hilbert_transform(w).values + 1j * w.values
        lhs = hilbert_transform(r).values + 1j * r.values
        scale = max(1.0, float(np.max(np.abs(z))) ** 2)
        assert np.max(np.abs(lhs - z * z / 2)) < 1e-12 * scale


class TestClmExact:
    def test_time_zero_returns_datum(self):
        w = cosine(256)
        assert np.max(np.abs(clm_exact(w, 0.0).values - w.values)) < 1e-14

    def test_cosine_closed_form_at_t1(self):
        g = Grid1(256)
        w = SpectralField1.from_values(g, np.cos(g.x))
        expect = 4 * np.cos(g.x) / ((2 - np.sin(g.x)) ** 2 + np.cos(g.x) ** 2)
        assert np.max(np.abs(clm_exact(w, 1.0).values - expect)) < 1e-12

    def test_matches_time_stepping(self):
        res = model_run(cosine(256), "clm", t_end=1.0, cfl=0.01)
        xg = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        expect = 4 * np.cos(xg) / ((2 - np.sin(xg)) ** 2 + np.cos(xg) ** 2)
        assert np.max(np.abs(res.final.omega.eval_at(xg) - expect)) < 1e-7

    def test_sup_grows_toward_blowup(self):
        w = cosine(1024)
        sups = [clm_exact(w, t).norm_inf() for t in (1.0, 1.5, 1.9, 1.99)]
        assert all(np.diff(sups) > 0)
        assert sups[-1] > 90.0

    def test_rejects_time_past_blowup(self):
        w = cosine(256)
        for t in (2.0, 2.5):
            with pytest.raises(ValueError, match="past blow-up"):
                clm_exact(w, t)


def scan_sup(omega: SpectralField1, rounds: int = 3, points: int = 17) -> float:
    """refined_sup's zoom with every window point x = x0 + s summed mode by mode.

    x0 = i0 dx is the grid argmax.  Each term's phase is
    e^{2 pi i (m i0 mod n) / n} e^{i k_m s}: the first factor's argument is
    reduced exactly, and |k_m s| stays below about 1.07 pi, so no phase
    is taken of an argument k_m x of thousands of radians.
    """
    g = omega.grid
    vals = np.abs(omega.values)
    i0 = int(np.argmax(vals))
    m = np.arange(g.coeff_shape[0])
    wc = g.weight * omega.coeffs * np.exp(2j * np.pi * ((m * i0) % g.n) / g.n)
    best_s, best, half = 0.0, float(vals[i0]), g.dx
    for _ in range(rounds):
        ss = best_s + np.linspace(-half, half, points)
        cand = np.abs((np.exp(1j * np.outer(ss, g.k)) @ wc).real)
        j = int(np.argmax(cand))
        if cand[j] > best:
            best, best_s = float(cand[j]), float(ss[j])
        half /= points - 1
    return best


class TestRefinedSup:
    def test_matches_direct_scan_on_a_peaked_clm_state(self):
        w = clm_exact(cosine(2048), 1.97)
        direct = scan_sup(w)
        assert direct > (1.0 + 1e-5) * w.norm_inf()  # the zoom beats the grid max
        assert abs(refined_sup(w) - direct) < 1e-13 * direct

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_scan_with_a_nyquist_mode(self, seed):
        g = Grid1(64)
        w = SpectralField1.from_values(g, np.random.default_rng(seed).normal(size=64))
        assert abs(w.coeffs[32]) > 1e-3
        direct = scan_sup(w)
        assert abs(refined_sup(w) - direct) < 1e-13 * direct

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_scan_on_full_band_noise(self, seed):
        # Nyquist content puts the largest carried wavenumber at k dx = pi,
        # where the Taylor order and its round-off bound are largest
        g = Grid1(4096)
        w = SpectralField1.from_values(g, np.random.default_rng(seed).normal(size=4096))
        assert abs(w.coeffs[2048]) > 1e-4  # its spread is 1/sqrt(n); seed 6 draws 2.4e-4
        direct = scan_sup(w)
        assert abs(refined_sup(w) - direct) < 1e-13 * direct

    def test_matches_direct_scan_on_a_circle_of_other_length(self):
        # the phase at the grid argmax comes from integer mode numbers
        g = Grid1(2048, length=3.7)
        w = clm_exact(SpectralField1.from_values(g, np.cos(2 * np.pi * g.x / g.length)), 1.97)
        direct = scan_sup(w)
        assert direct > (1.0 + 1e-5) * w.norm_inf()
        assert abs(refined_sup(w) - direct) < 1e-13 * direct

    def test_matches_direct_scan_on_the_dealiased_clm_state_at_its_cap(self):
        # the CLM run of the solvers-1d benchmark workload, where the sup is monitored
        res = model_run(cosine(65536, 20.0), "clm", t_end=0.2, cfl=0.2, omega_cap=10500.0)
        assert res.report.cap_reached
        w = res.final.omega
        assert np.all(w.coeffs[65536 // 3 + 1:] == 0.0)
        direct = scan_sup(w)
        assert direct > 1e4
        assert abs(refined_sup(w) - direct) < 1e-13 * direct

    @pytest.mark.parametrize("mean", [2.3, -2.3, 0.0])
    def test_a_field_with_no_nonzero_mode_returns_its_mean(self, mean):
        w = SpectralField1.from_values(Grid1(64), np.full(64, mean))
        assert refined_sup(w) == abs(mean)

    def test_finds_an_off_grid_extremum(self):
        g = Grid1(64)
        w = SpectralField1.from_values(g, 0.5 - 2.0 * np.cos(3.0 * (g.x - 0.01)))
        assert w.norm_inf() < 2.5 - 1e-4
        # the last window's spacing is dx / 2048, so the point found is
        # within dx / 4096 of the extremum, where |w''| = 18
        assert -1e-14 < 2.5 - refined_sup(w) < 9.0 * (g.dx / 4096) ** 2


class TestBlowupTime:
    def test_cosine(self):
        assert abs(clm_blowup_time(cosine(256)) - 2.0) < 1e-9

    def test_sine(self):
        g = Grid1(256)
        w = SpectralField1.from_values(g, np.sin(g.x))
        assert abs(clm_blowup_time(w) - 2.0) < 1e-9

    def test_translation_invariance(self):
        g = Grid1(512)
        w = SpectralField1.from_values(g, np.cos(g.x - 0.7))
        assert abs(clm_blowup_time(w) - 2.0) < 1e-9

    def test_positive_datum_is_global(self):
        g = Grid1(256)
        w = SpectralField1.from_values(g, 2.0 + np.cos(g.x))
        assert clm_blowup_time(w) == math.inf

    def test_degenerate_zero_is_global(self):
        # 1 - cos x touches zero at x = 0 where H(ω₀) also vanishes; the
        # denominator of the closed form never reaches zero.
        g = Grid1(256)
        w = SpectralField1.from_values(g, 1.0 - np.cos(g.x))
        assert clm_blowup_time(w) == math.inf


class TestDeGregorioRhs:
    def test_sine_is_steady(self):
        g = Grid1(256)
        r = model_rhs(SpectralField1.from_values(g, np.sin(g.x)), MODELS["degregorio"])
        assert r.norm_inf() < 1e-13

    def test_constant_is_annihilated(self):
        g = Grid1(64)
        r = model_rhs(SpectralField1.from_values(g, np.full(64, -1.7)), MODELS["degregorio"])
        assert r.norm_inf() < 1e-14

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_matches_direct_summation(self, a):
        w = band_limited(64, kmax=10, seed=11)
        g = w.grid
        wv = np.zeros(64)
        hv = np.zeros(64)
        uv = np.zeros(64)
        wxv = np.zeros(64)
        for m in range(1, 11):
            e = np.exp(1j * m * g.x)
            wv += 2 * np.real(w.coeffs[m] * e)
            hv += 2 * np.real(-1j * w.coeffs[m] * e)
            uv += 2 * np.real(-1j * w.coeffs[m] / (1j * m) * e)
            wxv += 2 * np.real(1j * m * w.coeffs[m] * e)
        oracle = wv * hv - a * uv * wxv
        assert np.max(np.abs(model_rhs(w, a).values - oracle)) < 1e-12


class TestModelRun:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            model_run(cosine(64), "surface-quasi-geostrophic", t_end=1.0)

    @pytest.mark.parametrize("dt_max", [0.0, -0.1])
    def test_rejects_a_nonpositive_step_cap(self, dt_max):
        with pytest.raises(ValueError, match="dt_max must be positive"):
            model_run(cosine(64), "clm", t_end=1.0, dt_max=dt_max)

    def test_a_non_finite_state_names_its_step(self, monkeypatch):
        stages = itertools.count()
        rhs = models1d._rhs_coeffs

        def poisoned(c, grid, a, u=None):  # finite for two RK4 steps of four stages each
            return rhs(c, grid, a, u) * (np.nan if next(stages) >= 8 else 1.0)

        monkeypatch.setattr(models1d, "_rhs_coeffs", poisoned)
        with pytest.raises(FloatingPointError, match=r"non-finite state at t = .* \(step 3\)"):
            model_run(cosine(64), "clm", t_end=1.0)

    @pytest.mark.parametrize("model", list(MODELS))
    def test_a_cap_at_or_below_the_initial_sup_takes_no_step(self, model):
        w = cosine(64)
        for cap in (refined_sup(w), 0.5):
            rep = model_run(w, model, t_end=1.0, omega_cap=cap).report
            assert rep.ts.tolist() == [0.0] and rep.cap_reached and not rep.detected

    def test_rejects_bad_cfl(self):
        with pytest.raises(ValueError, match="cfl"):
            model_run(cosine(64), "clm", t_end=1.0, cfl=0.8)

    def test_series_shapes_and_monotonicity(self):
        g = Grid1(256)
        w = SpectralField1.from_values(g, 2.0 + np.cos(g.x))
        res = model_run(w, "clm", t_end=5.0, cfl=0.2)
        rep = res.report
        assert len(rep.ts) == len(rep.omega_max_series) == len(rep.bkm_series)
        assert rep.bkm_series[0] == 0.0
        assert np.all(np.diff(rep.ts) > 0)
        assert np.all(np.diff(rep.bkm_series) >= 0)

    def test_global_datum_not_detected(self):
        g = Grid1(256)
        w = SpectralField1.from_values(g, 2.0 + np.cos(g.x))
        res = model_run(w, "clm", t_end=50.0, cfl=0.2, omega_cap=1e3)
        rep = res.report
        assert not rep.detected
        assert not rep.cap_reached
        assert rep.t_star_estimate is None
        assert rep.ts[-1] == 50.0
        assert rep.omega_max_series[-1] < 5.0

    def test_cos_datum_detects_blowup(self):
        res = model_run(cosine(131072), "clm", t_end=2.5, cfl=0.1,
                        omega_cap=1e3)
        rep = res.report
        assert rep.detected and rep.cap_reached
        assert abs(rep.t_star_estimate - 2.0) < 1e-4
        assert not rep.under_resolved

    def test_undersized_grid_sets_flag(self):
        res = model_run(cosine(1024), "clm", t_end=2.5, cfl=0.1,
                        omega_cap=100.0)
        assert res.report.under_resolved

    def test_resolved_run_does_not_flag(self):
        res = model_run(cosine(8192), "clm", t_end=2.5, cfl=0.1,
                        omega_cap=50.0)
        rep = res.report
        assert not rep.under_resolved
        assert rep.detected
        assert abs(rep.t_star_estimate - 2.0) < 1e-3

    def test_stepping_tracks_exact_solution(self):
        # n = 1024 resolves the amplitude-20 datum up to sup 100; the
        # collocation-grid gap to the closed form stays below 1e-6.
        amp, n = 20.0, 1024
        res = model_run(cosine(n, amp), "clm", t_end=0.2, cfl=0.0125,
                        omega_cap=100.0, store_states=True)
        x = res.final.omega.grid.x
        w0, h0 = amp * np.cos(x), amp * np.sin(x)
        worst = 0.0
        for st_, sup in zip(res.states, res.report.omega_max_series):
            if sup > 100.0:
                continue
            t = st_.t
            expect = 4 * w0 / ((2 - t * h0) ** 2 + (t * w0) ** 2)
            worst = max(worst, float(np.max(np.abs(st_.omega.values - expect))))
        assert worst < 1e-6

    def test_store_factor_thins_states(self):
        res = model_run(cosine(2048), "clm", t_end=2.5, cfl=0.1,
                        omega_cap=30.0, store_states=True, store_factor=2.0)
        sups = [refined_sup(s.omega) for s in res.states]
        assert res.states[0].t == 0.0
        assert all(b / a >= 2.0 for a, b in zip(sups[:-2], sups[1:-1]))
        assert res.states[-1].t == res.report.ts[-1]

    def test_degregorio_sine_steady_to_t10(self):
        g = Grid1(256)
        w = SpectralField1.from_values(g, np.sin(g.x))
        res = model_run(w, "degregorio", t_end=10.0, cfl=0.1)
        dev = SpectralField1.from_coeffs(g, res.final.omega.coeffs - w.coeffs)
        assert refined_sup(dev) < 1e-8

    def test_degregorio_energy_moves_continuously(self):
        # step-to-step jumps of ∫ω² must shrink linearly with dt
        g = Grid1(512)
        w = SpectralField1.from_values(g, np.sin(g.x) + 0.5 * np.cos(2 * g.x))
        jumps = {}
        for dtm in (0.008, 0.004):
            res = model_run(w, "degregorio", t_end=2.0, cfl=0.1,
                            omega_cap=1e3, dt_max=dtm, store_states=True)
            e = np.array([s.omega.norm_l2() ** 2 for s in res.states])
            jumps[dtm] = np.max(np.abs(np.diff(e)))
        assert jumps[0.008] < 2e-2
        assert 1.8 < jumps[0.008] / jumps[0.004] < 2.2


class TestFitTStar:
    def test_recovers_the_blowup_time_of_an_exact_rate(self):
        t_star = 2.0
        ts = np.linspace(0.0, 1.99, 400)
        t_fit = models1d._fit_t_star(ts, 3.0 / (t_star - ts))
        assert abs(t_fit - t_star) <= 1e-10 * t_star

    def test_returns_the_bracket_end_when_the_minimum_lies_outside(self):
        # the fit window is the last 30 samples; the bracket runs from just
        # past the last one to ten window spans beyond it
        ts = np.linspace(0.0, 1.0, 100)
        lo = 1.0 + 1e-12
        hi = 1.0 + 10.0 * (1.0 - ts[70])
        assert models1d._fit_t_star(ts, 1.0 / (1e6 - ts)) == hi
        assert models1d._fit_t_star(ts, 1.0 / (1.0 + 1e-13 - ts)) == lo


class TestBkmGrowth:
    def test_integral_gains_ln10_per_decade_of_cap(self):
        res = model_run(cosine(65536, 20.0), "clm", t_end=0.2, cfl=0.2,
                        omega_cap=1.05e4)
        s = res.report.omega_max_series
        b = res.report.bkm_series
        assert np.all(np.diff(s) > 0)
        at_cap = []
        for cap in (1e2, 1e3, 1e4):
            i = int(np.searchsorted(s, cap))
            f = (math.log(cap) - math.log(s[i - 1])) / (math.log(s[i]) - math.log(s[i - 1]))
            at_cap.append(b[i - 1] + f * (b[i] - b[i - 1]))
        assert at_cap[1] - at_cap[0] >= math.log(10.0)
        assert at_cap[2] - at_cap[1] >= math.log(10.0)


@pytest.fixture(scope="module")
def rescaled_blowup():
    res = model_run(cosine(131072), "clm", t_end=2.5, cfl=0.05,
                    omega_cap=1200.0, store_states=True, store_factor=1.9)
    X = np.linspace(-10.0, 10.0, 401)
    return X, selfsim_extract(res, X=X, n_times=6)


class TestSelfsimExtract:
    def test_profiles_converge_to_algebraic_limit(self, rescaled_blowup):
        X, ss = rescaled_blowup
        limit = -4 * X / (1 + 4 * X**2)
        err_last = np.max(np.abs(ss.profiles[-1] - limit))
        assert ss.t_star - ss.times[-1] <= 1e-3
        assert err_last <= 5e-3

    def test_cauchy_differences_decrease(self, rescaled_blowup):
        _, ss = rescaled_blowup
        assert np.all(np.diff(ss.cauchy_sups) < 0)

    def test_blowup_point_and_time(self, rescaled_blowup):
        _, ss = rescaled_blowup
        assert abs(ss.x_star - np.pi / 2) < 1e-5
        assert abs(ss.t_star - 2.0) < 1e-4

    def test_times_increase_and_shapes_agree(self, rescaled_blowup):
        X, ss = rescaled_blowup
        assert np.all(np.diff(ss.times) > 0)
        assert ss.profiles.shape == (len(ss.times), len(X))
        assert len(ss.cauchy_sups) == len(ss.times) - 1

    def test_refuses_non_blowup_run(self):
        g = Grid1(256)
        w = SpectralField1.from_values(g, 2.0 + np.cos(g.x))
        res = model_run(w, "clm", t_end=5.0, cfl=0.2, store_states=True)
        with pytest.raises(ValueError, match="detected"):
            selfsim_extract(res)

    def test_requires_stored_states(self):
        res = model_run(cosine(8192), "clm", t_end=2.5, cfl=0.1,
                        omega_cap=50.0)
        with pytest.raises(ValueError, match="store"):
            selfsim_extract(res)


class TestLocateBlowupPoint:
    def test_midpoint_of_adjacent_extremes(self):
        g = Grid1(512)
        f = SpectralField1.from_values(g, np.sin(g.x - 5.0))
        expect = (5.0 + np.pi) % (2 * np.pi)
        assert abs(locate_blowup_point(f) - expect) <= g.dx

    def test_late_clm_state_centers_at_half_pi(self):
        w = cosine(1024)
        assert abs(locate_blowup_point(clm_exact(w, 1.9)) - np.pi / 2) < Grid1(1024).dx
