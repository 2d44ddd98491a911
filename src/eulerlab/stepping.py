"""The one time integrator of the lab: classical RK4 over a tuple of arrays.

Each time-stepping system (2D Euler with its scalars and markers, IPM,
passive scalars, particle advection, the 1D models) supplies a right-hand
side ``rhs(t, y)`` over its state tuple ``y`` (field coefficients, scalar
coefficients, marker lifts) and steps it with :func:`rk4_step`.
:func:`march` adds the schedule of the 2D runs: a step-size rule such as
:func:`cfl_dt`, diagnostics and snapshots at fixed cadences, and a
per-step hook.  A run that meets a non-finite state raises
:class:`BlowupError`.
"""

from __future__ import annotations

import math

import numpy as np

#: largest CFL number the RK4 loops accept
MAX_CFL = 0.5

# a time within this distance of a target time counts as reaching it
_TOL = 1e-12


class BlowupError(RuntimeError):
    """A non-finite state at time ``t`` in step ``step``; ``last_record`` is
    the last finite diagnostics record (``None`` if there is none)."""

    def __init__(self, t: float, step: int, last_record=None):
        super().__init__(f"numerical blow-up detected at t={t:.6g} (step {step})")
        self.t, self.step, self.last_record = t, step, last_record


def check_cfl(cfl: float) -> None:
    """Reject a CFL number outside (0, MAX_CFL]; zero (or NaN) never advances."""
    if not 0.0 < cfl <= MAX_CFL:
        raise ValueError(f"cfl must lie in (0, {MAX_CFL}]")


def check_schedule(cfl: float, diag_every: float, snapshot_every: float = 0.0) -> None:
    """Reject a CFL number or output cadence that would stall a 2D time loop.

    The loops step by cfl times the advective limit and stop at every
    diagnostics time, so a zero (or NaN) cadence never advances.
    """
    check_cfl(cfl)
    if not diag_every > 0.0:
        raise ValueError("diag_every must be positive")
    if not snapshot_every >= 0.0:
        raise ValueError("snapshot_every must be nonnegative")


def check_t_end(t_end: float) -> None:
    """Reject a negative (or NaN) horizon; runs start at t = 0."""
    if not t_end >= 0.0:
        raise ValueError("t_end must be nonnegative")


def cfl_dt(grid, u1v: np.ndarray, u2v: np.ndarray, cfl: float) -> float:
    """cfl times the per-direction advective limit; ``inf`` for a fluid at rest."""
    lim = math.inf
    s1 = float(np.max(np.abs(u1v)))
    s2 = float(np.max(np.abs(u2v)))
    if s1 > 0.0:
        lim = grid.dx / s1
    if s2 > 0.0:
        lim = min(lim, grid.dy / s2)
    return cfl * lim


def rk4_step(rhs, t: float, y: tuple, dt: float, k1: tuple | None = None) -> tuple:
    """One RK4 step of the tuple ``y``; ``rhs(t, y)`` gives one tendency per entry.

    A caller that has evaluated the first stage already (to pick ``dt``
    from its velocity) passes it as ``k1``.
    """
    if k1 is None:
        k1 = rhs(t, y)
    h = 0.5 * dt
    k2 = rhs(t + h, tuple(a + h * k for a, k in zip(y, k1)))
    k3 = rhs(t + h, tuple(a + h * k for a, k in zip(y, k2)))
    k4 = rhs(t + dt, tuple(a + dt * k for a, k in zip(y, k3)))
    w = dt / 6.0
    return tuple(a + w * (p + 2.0 * q + 2.0 * r + s)
                 for a, p, q, r, s in zip(y, k1, k2, k3, k4))


def march(rhs, y: tuple, t_end: float, dt_rule, diag_every: float, emit,
          snapshot_every: float = 0.0, snapshot=None, after_step=None) -> tuple:
    """Advance ``y`` from t = 0 to ``t_end``; returns the final (t, y).

    Each step evaluates the first stage ``rhs(t, y)``, then takes
    ``dt_rule(t, y)`` (which may read what that stage left behind, such as
    its velocity) cut to land on the next diagnostics time, snapshot time
    and ``t_end``; with no finite positive rule (a fluid at rest) it steps
    by the cadence.  After the step from (t, y) to (t + dt, y_new) run
    ``after_step(t, dt, y, y_new, step)`` (steps count from 1), then at
    multiples of ``snapshot_every`` ``snapshot(t, y, index)`` (when both are
    set), then at multiples of ``diag_every`` and at ``t_end``
    ``emit(t, y, step)``, which also runs at t = 0.  A time within 1e-12 of
    a target counts as reaching it.
    """
    check_t_end(t_end)
    t, step = 0.0, 0
    emit(t, y, step)
    next_diag = diag_every
    snap_next = snapshot_every if (snapshot is not None and snapshot_every) else math.inf
    snap_idx = 0
    while t < t_end - _TOL:
        k1 = rhs(t, y)
        dt = min(dt_rule(t, y), next_diag - t, snap_next - t, t_end - t)
        if not math.isfinite(dt) or dt <= 0.0:
            dt = min(next_diag - t, t_end - t)
        y_new = rk4_step(rhs, t, y, dt, k1)
        step += 1
        if after_step is not None:
            after_step(t, dt, y, y_new, step)
        t += dt
        y = y_new
        if t >= snap_next - _TOL:
            snapshot(t, y, snap_idx)
            snap_idx += 1
            snap_next += snapshot_every
        if t >= next_diag - _TOL or t >= t_end - _TOL:
            emit(t, y, step)
            while next_diag <= t + _TOL:
                next_diag += diag_every
    return t, y


def casimir_entries(powers, symbol: str) -> list:
    """(name, f) pairs for the moment integrals of the field to each power p."""
    return [(f"{symbol}^{p}", lambda w, p=p: w**p) for p in powers or ()]
