"""The one time integrator of the lab: classical RK4 over one array.

Each time-stepping system (2D Euler, the markers of a 2D Euler run, IPM,
passive scalars, particles, the 1D models) supplies a right-hand side
``rhs(t, y, out)`` over its state array ``y`` and steps it with
:func:`rk4_step`.  :func:`march` is the only time loop, for adaptive
and fixed steps alike (the markers' single steps run inside the flow's):
a step-size rule such as :func:`cfl_dt`, optional diagnostics and
snapshots at fixed cadences, a per-step hook and an optional stop
predicate; its diagnostics callback gets the first stage of the step
that follows, so a record reuses it.  A 2D run that meets a non-finite
state raises :class:`BlowupError`.
:func:`casimir_integrals` gives the moment integrals of the records, by
the binary powering of :func:`integer_powers`.

Buffers.  :func:`rk4_step` keeps its arrays in a
:class:`~eulerlab.fields.Workspace` (its own, unless the caller passes
one): one tendency array, one accumulator, one stage input and two
results, five arrays of the shape and dtype of ``y``.  ``out`` is the
tendency array, and every stage is handed the same one.  The rhs
returns its tendency; it may write it into ``out`` and return that
array, or return an array of its own, but never its input ``y``.  Each
tendency is added into the accumulator as its stage returns, so the
accumulator holds k1, then k1 + 2 k2, then + 2 k3, then + k4, and a
tendency is dead once the next stage input is made from it: a k1 in the
tendency array is overwritten by stage 2.  The stage input is rewritten
before each of stages 2-4 and holds 2 k2 and 2 k3 in between.  The result
of a step goes into whichever result array does not hold ``y``: it stays
valid through the next step, which reads it as its ``y``, and is
overwritten by the step after.  A caller that keeps a state longer copies
it.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Workspace

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


def sup_abs(vals: np.ndarray) -> float:
    """max |vals| as max(max vals, -min vals): the same number, with no temporary."""
    return max(float(np.max(vals)), -float(np.min(vals)))


def cfl_dt(grid, u1v: np.ndarray, u2v: np.ndarray, cfl: float) -> float:
    """cfl times the per-direction advective limit; ``inf`` for a fluid at rest."""
    lim = math.inf
    s1, s2 = sup_abs(u1v), sup_abs(u2v)
    if s1 > 0.0:
        lim = grid.dx / s1
    if s2 > 0.0:
        lim = min(lim, grid.dy / s2)
    return cfl * lim


def rk4_step(rhs, t: float, y: np.ndarray, dt: float, k1: np.ndarray | None = None,
             work: Workspace | None = None) -> np.ndarray:
    """One RK4 step of the array ``y``; ``rhs(t, y, out)`` gives its tendency.

    A caller that has evaluated the first stage already (to pick ``dt``
    from its velocity) passes it as ``k1``.  The buffers live in ``work``
    (see the module docstring for who owns them and for how long).
    """
    work = Workspace() if work is None else work
    k = work.array("rk4.k", y.shape, y.dtype)
    if k1 is None:
        k1 = rhs(t, y, k)
    acc = work.array("rk4.acc", y.shape, y.dtype)
    stage = work.array("rk4.stage", y.shape, y.dtype)
    np.copyto(acc, k1)
    # acc = ((k1 + 2 k2) + 2 k3) + k4 in that order of operations; 2 k2 and
    # 2 k3 go through the stage input once their stages have read it
    kk = k1
    for h, twice in ((0.5 * dt, True), (0.5 * dt, True), (dt, False)):
        kk = rhs(t + h, np.add(y, np.multiply(h, kk, out=stage), out=stage), k)
        acc += np.multiply(2.0, kk, out=stage) if twice else kk
    y_new = work.array("rk4.y0", y.shape, y.dtype)
    if y_new is y:
        y_new = work.array("rk4.y1", y.shape, y.dtype)
    return np.add(y, np.multiply(dt / 6.0, acc, out=acc), out=y_new)


def march(rhs, y: np.ndarray, t_end: float, dt_rule, diag_every: float = math.inf, emit=None,
          snapshot_every: float = 0.0, snapshot=None, after_step=None,
          work: Workspace | None = None, stop=None) -> tuple:
    """Advance ``y`` from t = 0 to ``t_end``; returns the final (t, y).

    Each step from t short of ``t_end`` first asks ``stop(t, y)`` (when
    given): if it is true the run ends there, before any stage.  Then it
    evaluates the first stage k1 = ``rhs(t, y, out)`` and takes
    ``dt_rule(t, y)`` (which may read what that stage left behind, such as
    its velocity) cut to land on the next diagnostics time, snapshot time
    and ``t_end``; with no finite positive rule (a fluid at rest) it steps
    by the cadence.  After the step from (t, y) to (t + dt, y_new) run
    ``after_step(t, dt, y, y_new, step)`` (steps count from 1), then at
    multiples of ``snapshot_every`` ``snapshot(t, y, index)`` (when both are
    set).  ``emit(t, y, step, k1)`` (when given) runs at t = 0, at multiples
    of ``diag_every`` and at the end of the run, where ``k1`` is the first
    stage of the next step, already evaluated at (t, y); at the end no step
    follows and ``k1`` is ``None``.  So within a step the order is ``stop``,
    k1, ``emit``, ``dt_rule``: ``emit`` may read k1 and whatever else the
    stage left behind, but must write none of it.  A time within 1e-12 of a
    target counts as reaching it.  Every step runs in the workspace
    ``work`` (a new one if none is given), so the states the callbacks see
    follow the lifetime rule of :func:`rk4_step`.
    """
    check_t_end(t_end)
    work = Workspace() if work is None else work
    t, step, due = 0.0, 0, True
    next_diag = diag_every
    snap_next = snapshot_every if (snapshot is not None and snapshot_every) else math.inf
    snap_idx = 0
    while True:
        more = t < t_end - _TOL and not (stop is not None and stop(t, y))
        k1 = rhs(t, y, work.array("rk4.k", y.shape, y.dtype)) if more else None
        if emit is not None and (due or not more):
            emit(t, y, step, k1)
        if not more:
            return t, y
        dt = min(dt_rule(t, y), next_diag - t, snap_next - t, t_end - t)
        if not math.isfinite(dt) or dt <= 0.0:
            dt = min(next_diag - t, t_end - t)
        y_new = rk4_step(rhs, t, y, dt, k1, work)
        step += 1
        if after_step is not None:
            after_step(t, dt, y, y_new, step)
        t += dt
        y = y_new
        if t >= snap_next - _TOL:
            snapshot(t, y, snap_idx)
            snap_idx += 1
            snap_next += snapshot_every
        due = t >= next_diag - _TOL or t >= t_end - _TOL
        while next_diag <= t + _TOL:
            next_diag += diag_every


def check_casimir_powers(powers) -> None:
    """Reject a Casimir power below 1: the integral of w^0 is the cell area,
    and a negative power divides by the round-off zeros of w."""
    for p in powers or ():
        if p < 1:
            raise ValueError(f"casimir_powers must be integers >= 1, got {p}")


def integer_powers(vals: np.ndarray, powers, work: Workspace):
    """Yield (p, vals^p) for each integer p >= 1 of ``powers``, in order.

    The powers come by binary powering: a ladder of squares vals^(2^i),
    shared by every p, then the product of the rungs of p's set bits from
    the lowest, so vals^3 = vals^2 * vals and vals^4 = vals^2 * vals^2.  A
    product of correctly rounded multiplications is within about (p - 1)
    ulp of the exact power, on every machine; numpy's ``power`` takes a
    scalar path for p >= 3 on negative bases that is dozens of times
    slower, and its bits depend on the SIMD dispatch.  vals^2 is
    ``vals * vals``, the bits of ``vals**2``.  The arrays live in ``work``:
    the first two rungs in the real arrays of the 2D stage's scratch
    (``("scratch.v", i)``, dead between stages; see
    :class:`~eulerlab.fields.Workspace`), so ``vals`` must not be one of
    them, and the rest under ``"casimir..."``; each is valid until the next
    is yielded.
    """
    ladder = [vals]
    for p in powers or ():
        while 1 << len(ladder) <= p:
            i = len(ladder)
            name = ("scratch.v", i - 1) if i <= 2 else ("casimir.rung", i)
            ladder.append(np.multiply(ladder[-1], ladder[-1], out=work.array(name, vals.shape)))
        term, *rest = (rung for i, rung in enumerate(ladder) if p >> i & 1)
        for rung in rest:
            term = np.multiply(term, rung, out=work.array("casimir.term", vals.shape))
        yield p, term


def casimir_integrals(vals: np.ndarray, powers, symbol: str, cell_area: float,
                      work: Workspace) -> dict:
    """``{f"{symbol}^{p}": cell_area * sum(vals^p)}``: the collocation Casimirs
    of the samples ``vals``, with the powers of :func:`integer_powers`."""
    return {f"{symbol}^{p}": cell_area * float(np.sum(wp))
            for p, wp in integer_powers(vals, powers, work)}
