"""The shared integrator: RK4 order, the output cadence, the CFL rule, blow-up."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eulerlab.fields import Workspace
from eulerlab.grids import Grid2
from eulerlab.stepping import (BlowupError, casimir_integrals, cfl_dt, integer_powers, march,
                               rk4_step)


def mixed_rhs(t, y, out=None):
    """Three independent linear problems of different shapes and dtypes."""
    a, b, c = y
    return (-a, 1j * b, np.cos(t) * np.ones_like(c))


def mixed_exact(t, y0):
    a, b, c = y0
    return (a * math.exp(-t), b * np.exp(1j * t), c + math.sin(t))


def mixed_state():
    return (np.array([1.0, -2.0, 0.5]),
            np.array([[1.0 + 1.0j, 0.5], [-0.25j, 2.0]]),
            np.arange(8.0).reshape(4, 2))


def rk4_errors(n_steps):
    y0 = mixed_state()
    y, t, dt = y0, 0.0, 1.0 / n_steps
    for _ in range(n_steps):
        y = rk4_step(mixed_rhs, t, y, dt)
        t += dt
    return [float(np.max(np.abs(got - want))) for got, want in zip(y, mixed_exact(1.0, y0))]


class TestRk4Step:
    def test_fourth_order_on_mixed_shapes(self):
        coarse, fine = rk4_errors(10), rk4_errors(20)
        for e_coarse, e_fine in zip(coarse, fine):
            assert e_fine > 0.0
            assert 13.0 < e_coarse / e_fine < 19.0

    def test_shapes_and_dtypes_kept(self):
        y = mixed_state()
        out = rk4_step(mixed_rhs, 0.0, y, 0.1)
        assert [(a.shape, a.dtype) for a in out] == [(a.shape, a.dtype) for a in y]

    def test_given_first_stage_is_used(self):
        y = mixed_state()
        k1 = mixed_rhs(0.0, y)
        calls = []

        def counting(t, y, out):
            calls.append(t)
            return mixed_rhs(t, y)

        with_k1 = rk4_step(counting, 0.0, y, 0.1, k1)
        assert calls == [0.05, 0.05, 0.1]
        for a, b in zip(with_k1, rk4_step(mixed_rhs, 0.0, y, 0.1)):
            assert np.array_equal(a, b)


def spectral_state():
    """A complex (n, n/2 + 1) half spectrum and real (p, 2) marker lifts."""
    rng = np.random.default_rng(3)
    c = rng.normal(size=(16, 9)) + 1j * rng.normal(size=(16, 9))
    return (c, rng.uniform(0.0, 2.0 * np.pi, size=(40, 2)))


def coupled_rhs(t, y, out=None):
    """A nonlinear coupled rhs that writes into ``out`` when it is given."""
    c, p = y
    kc = 1j * np.cos(t) * c - 0.1 * c * np.abs(c) + np.mean(np.sin(p))
    kp = np.stack([np.sin(p[:, 1]) + c[1, 1].real, np.cos(p[:, 0]) * c[2, 0].imag], axis=1)
    if out is None:
        return kc, kp
    out[0][...] = kc
    out[1][...] = kp
    return out


def reference_rk4(rhs, t, y, dt):
    """RK4 with fresh arrays in the operation order of :func:`rk4_step`."""
    k1 = rhs(t, y)
    h = 0.5 * dt
    k2 = rhs(t + h, tuple(a + h * k for a, k in zip(y, k1)))
    k3 = rhs(t + h, tuple(a + h * k for a, k in zip(y, k2)))
    k4 = rhs(t + dt, tuple(a + dt * k for a, k in zip(y, k3)))
    w = dt / 6.0
    return tuple(a + w * (p + 2.0 * q + 2.0 * r + s)
                 for a, p, q, r, s in zip(y, k1, k2, k3, k4))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBuffers:
    def test_workspace_steps_match_fresh_arrays_bit_for_bit(self):
        y0 = spectral_state()
        work = Workspace()
        y, want, t, dt = y0, y0, 0.0, 0.037
        for _ in range(5):
            y = rk4_step(coupled_rhs, t, y, dt, work=work)
            want = reference_rk4(coupled_rhs, t, want, dt)
            t += dt
            assert all(same_bits(a, b) for a, b in zip(y, want))
        assert all(same_bits(a, b) for a, b in zip(y0, spectral_state()))

    def test_result_survives_the_next_step(self):
        work = Workspace()
        y1 = rk4_step(coupled_rhs, 0.0, spectral_state(), 0.05, work=work)
        kept = tuple(a.copy() for a in y1)
        y2 = rk4_step(coupled_rhs, 0.05, y1, 0.05, work=work)
        assert all(same_bits(a, b) for a, b in zip(y1, kept))
        assert all(a is not b for a, b in zip(y1, y2))

    def test_march_with_a_workspace_matches_fresh_steps(self):
        steps, emitted = [], []
        t, y = march(coupled_rhs, spectral_state(), 0.12, lambda t, y: 0.05, 1.0,
                     lambda t, y, step, k1: emitted.append(tuple(a.copy() for a in y)),
                     after_step=lambda t, dt, y, y_new, step: steps.append((t, dt)),
                     work=Workspace())
        want = spectral_state()
        for tw, dt in steps:
            want = reference_rk4(coupled_rhs, tw, want, dt)
        assert len(steps) == 3 and t == pytest.approx(0.12)
        assert all(same_bits(a, b) for a, b in zip(y, want))
        assert all(same_bits(a, b) for a, b in zip(emitted[-1], want))


def zero_rhs(t, y, out):
    return tuple(np.zeros_like(a) for a in y)


def run_march(t_end, diag_every, dt, snapshot_every=0.0):
    log = {"emit": [], "snap": [], "dt": []}
    march(zero_rhs, (np.zeros(2),), t_end, lambda t, y: dt, diag_every,
          lambda t, y, step, k1: log["emit"].append((t, step)),
          snapshot_every, lambda t, y, index: log["snap"].append((t, index)),
          lambda t, dt, y, y_new, step: log["dt"].append(dt))
    return log


class TestMarch:
    def test_emits_on_the_cadence_and_at_t_end(self):
        log = run_march(1.0, 0.3, 0.07)
        times = [t for t, _ in log["emit"]]
        np.testing.assert_allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
        steps = [s for _, s in log["emit"]]
        assert steps[0] == 0 and steps == sorted(steps)
        assert steps[-1] == len(log["dt"])
        assert max(log["dt"]) <= 0.07

    def test_snapshot_times(self):
        log = run_march(1.0, 0.3, 0.07, snapshot_every=0.25)
        np.testing.assert_allclose([t for t, _ in log["snap"]], [0.25, 0.5, 0.75, 1.0],
                                   atol=1e-12)
        assert [i for _, i in log["snap"]] == [0, 1, 2, 3]

    def test_no_snapshots_without_a_callback(self):
        log = {"dt": []}
        march(zero_rhs, (np.zeros(2),), 1.0, lambda t, y: 0.7, 0.5,
              lambda t, y, step, k1: None, 0.25, None,
              lambda t, dt, y, y_new, step: log["dt"].append(dt))
        assert log["dt"] == [0.5, 0.5]

    def test_fluid_at_rest_steps_by_the_cadence(self):
        grid = Grid2(8, 8)
        rest = np.zeros(grid.shape)
        assert cfl_dt(grid, rest, rest, 0.4) == math.inf
        log = run_march(1.0, 0.3, cfl_dt(grid, rest, rest, 0.4))
        np.testing.assert_allclose(log["dt"], [0.3, 0.3, 0.3, 0.1], atol=1e-12)

    def test_zero_horizon_emits_once(self):
        log = run_march(0.0, 0.3, 0.07)
        assert log["emit"] == [(0.0, 0)] and log["dt"] == []

    @pytest.mark.parametrize("t_end", [-1.0, math.nan])
    def test_rejects_negative_horizon(self, t_end):
        with pytest.raises(ValueError, match="t_end must be nonnegative"):
            run_march(t_end, 0.3, 0.07)

    def test_emit_gets_the_first_stage_of_the_next_step(self):
        calls, records = [], []

        def counting_rhs(t, y, out):
            calls.append(t)
            return coupled_rhs(t, y, out)

        def emit(t, y, step, k1):
            fresh = coupled_rhs(t, y)
            records.append((step, None if k1 is None
                            else all(same_bits(a, b) for a, b in zip(k1, fresh))))

        march(counting_rhs, spectral_state(), 0.2, lambda t, y: 0.03, 0.05, emit)
        steps = records[-1][0]
        assert [same for _, same in records] == [True] * 4 + [None]
        assert len(calls) == 4 * steps

    def test_returns_final_time_and_state(self):
        t, (y,) = march(lambda t, y, out: (np.ones_like(y[0]),), (np.zeros(3),), 1.0,
                        lambda t, y: 0.1, 0.5, lambda t, y, step, k1: None)
        assert t == pytest.approx(1.0)
        np.testing.assert_allclose(y, 1.0, atol=1e-12)


class TestIntegerPowers:
    def values(self):
        rng = np.random.default_rng(5)
        return rng.normal(size=(32, 32)) * np.exp(rng.uniform(-3.0, 3.0, size=(32, 32)))

    def test_square_has_the_bits_of_the_library_square(self):
        vals = self.values()
        ((p, sq),) = integer_powers(vals, (2,), Workspace())
        assert p == 2 and same_bits(sq, vals**2)

    def test_powers_within_p_minus_1_ulp_of_the_exact_power(self):
        vals = self.values()
        exact_vals = [Fraction(float(v)) for v in vals.ravel()]
        for p, wp in integer_powers(vals, range(3, 9), Workspace()):
            for got, x in zip(wp.ravel(), exact_vals):
                exact = x**p
                assert abs(Fraction(float(got)) - exact) <= (p - 1) * 2.0**-52 * abs(exact)

    def test_casimir_sums_match_exact_sums(self):
        vals = self.values()
        sums = casimir_integrals(vals, range(3, 9), "w", 1.0, Workspace())
        for p in range(3, 9):
            exact = [float(Fraction(float(v))**p) for v in vals.ravel()]
            scale = math.fsum(abs(e) for e in exact)
            assert abs(sums[f"w^{p}"] - math.fsum(exact)) <= 1e-14 * scale

    def test_shared_ladder_gives_each_power_alone(self):
        vals, work = self.values(), Workspace()
        together = casimir_integrals(vals, (2, 3, 4, 7), "w", 0.5, work)
        alone = {k: v for p in (7, 4, 3, 2)
                 for k, v in casimir_integrals(vals, (p,), "w", 0.5, Workspace()).items()}
        assert together == alone


class TestCflDt:
    def test_per_direction_limit(self):
        grid = Grid2(16, 32, lx=2.0, ly=1.0)
        u1 = np.full(grid.shape, 0.5)
        u2 = np.full(grid.shape, -2.0)
        assert cfl_dt(grid, u1, u2, 0.4) == pytest.approx(
            0.4 * min(grid.dx / 0.5, grid.dy / 2.0))


def test_blowup_error_carries_its_context():
    exc = BlowupError(1.25, 17, last_record="rec")
    assert isinstance(exc, RuntimeError)
    assert (exc.t, exc.step, exc.last_record) == (1.25, 17, "rec")
    assert "t=1.25" in str(exc) and "step 17" in str(exc)
