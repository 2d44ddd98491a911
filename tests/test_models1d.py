"""Tests for the 1D blow-up models: CLM and its transport variant."""
import gc
import itertools
import math
import time
import weakref

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
    ResolutionLost,
    model_rhs,
    model_run,
    refined_sup,
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

    def test_a_non_finite_state_names_its_step(self, monkeypatch):
        stages = itertools.count()
        rhs = models1d._rhs_coeffs

        def poisoned(c, grid, a, u=None):  # finite for two RK4 steps of four stages each
            return rhs(c, grid, a, u) * (np.nan if next(stages) >= 8 else 1.0)

        monkeypatch.setattr(models1d, "_rhs_coeffs", poisoned)
        with pytest.raises(FloatingPointError, match=r"non-finite state at t = .* \(step 3\)"):
            model_run(cosine(64), "clm", t_end=1.0)

    def test_the_initial_state_is_freed_by_the_first_steps(self, monkeypatch):
        real, refs, alive = models1d.march, [], []

        # the state goes on from a list and the rest by keyword: a forwarded
        # *args tuple would keep the state alive itself
        def march(rhs, y, t_end, dt_rule, diag_every=math.inf, emit=None, *,
                  after_step, stop, work):
            refs.append(weakref.ref(y))
            box = [y]
            del y

            def after(t, dt, y, y_new, step):
                after_step(t, dt, y, y_new, step)
                if step == 2:
                    alive.append(refs[0]() is not None)

            return real(rhs, box.pop(), t_end=t_end, dt_rule=dt_rule, diag_every=diag_every,
                        emit=emit, after_step=after, stop=stop, work=work)

        monkeypatch.setattr(models1d, "march", march)
        model_run(cosine(64), "clm", t_end=0.5)
        assert alive == [False]

    def test_a_datum_its_caller_does_not_hold_is_freed_before_the_march(self, monkeypatch):
        real, alive = models1d.march, []
        box = [cosine(64)]
        datum = weakref.ref(box[0].coeffs)

        def march(*args, **kwargs):
            gc.collect()
            alive.append(datum() is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(models1d, "march", march)
        model_run(box.pop(), "clm", t_end=0.5)
        assert alive == [False]

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

    def test_a_run_past_blow_up_stops_when_the_grid_loses_the_state(self):
        # amplitude 2 blows up at t = 1; with no cap, dt = cfl / sup shrinks
        # with the growing under-resolved state, and the tail reads over 0.5
        # from about step 50 on
        start = time.perf_counter()
        with pytest.raises(ResolutionLost) as info:
            model_run(cosine(256, 2.0), "clm", t_end=3.0, cfl=0.1)
        assert time.perf_counter() - start < 2.0
        stop = info.value
        assert 1000 < stop.step < 1100 and 1.0 < stop.t < 1.1
        assert f"t = {stop.t:.6g} (step {stop.step})" in str(stop)

    def test_the_stop_skips_a_tail_band_from_mode_1(self):
        # at n = 8 the tail band is modes 1-2, so the tail reads 1 on any field
        res = model_run(cosine(8), "clm", t_end=1.5, cfl=1e-3)
        assert len(res.report.ts) > 1001 and res.final.t == 1.5

    def test_stepping_tracks_exact_solution(self):
        # n = 1024 resolves the amplitude-20 datum up to sup 100; the
        # collocation-grid gap to the closed form stays below 1e-6.
        amp, n = 20.0, 1024
        res = model_run(cosine(n, amp), "clm", t_end=0.2, cfl=0.0125,
                        omega_cap=100.0, store_states=True)
        # one stored state per entry of the series, from t = 0 to the end
        assert [s.t for s in res.states] == res.report.ts.tolist()
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
        for cfl in (0.01, 0.005):
            res = model_run(w, "degregorio", t_end=2.0, cfl=cfl,
                            omega_cap=1e3, store_states=True)
            e = np.array([s.omega.norm_l2() ** 2 for s in res.states])
            jumps[cfl] = np.max(np.abs(np.diff(e)))
        assert jumps[0.01] < 2e-2
        assert 1.8 < jumps[0.01] / jumps[0.005] < 2.2


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
def late_clm_states():
    """The stored states of a cos-datum CLM run from t = 1.9 to its cap."""
    res = model_run(cosine(4096), "clm", t_end=2.5, cfl=0.05, omega_cap=100.0,
                    store_states=True)
    return [s for s in res.states if s.t >= 1.9]


class TestSelfSimilarApproach:
    """Near t* = 2 the stepped state is (t* - t)^-1 Omega((x - pi/2) / (t* - t))
    with Omega(X) = -4X / (1 + 4X^2), the limit of the closed form."""

    def test_rescaled_states_approach_the_algebraic_profile(self, late_clm_states):
        errs = []
        for s in late_clm_states[::8]:
            tau = 2.0 - s.t
            X = (s.omega.grid.x - np.pi / 2) / tau
            near = np.abs(X) <= 3.0
            limit = -4 * X[near] / (1 + 4 * X[near] ** 2)
            errs.append(np.max(np.abs(tau * s.omega.values[near] - limit)))
        assert len(errs) >= 5
        assert np.all(np.diff(errs) < 0)
        assert errs[-1] < 5e-3

    def test_sup_grows_like_the_inverse_time_to_blowup(self, late_clm_states):
        # the profile's sup is 1, at X = -1/2
        scaled = [(2.0 - s.t) * refined_sup(s.omega) for s in late_clm_states]
        assert np.all(np.diff(scaled) < 0)
        assert 1.0 < scaled[-1] < 1.002

    def test_adjacent_extremes_center_on_half_pi(self, late_clm_states):
        for s in late_clm_states:
            x, v = s.omega.grid.x, s.omega.values
            top, bottom = x[np.argmax(v)], x[np.argmin(v)]
            assert top < np.pi / 2 < bottom
            assert abs(0.5 * (top + bottom) - np.pi / 2) <= s.omega.grid.dx
