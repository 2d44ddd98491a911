"""2D incompressible Euler in vorticity form, plus steady-state tooling.

The solver advances the dealiased pseudo-spectral vorticity equation with
RK4 under a CFL-limited adaptive step.  Runs can carry a marker lattice
and emit conservation/BKM diagnostics at a fixed cadence.  The markers do
not act on the flow, so they step apart from it: one RK4 step per two flow
steps (one where a diagnostics time or the end ends the first), with
velocities sampled only at the flow's step boundaries and, for the
mid-time, a cubic Hermite value in time through the velocities and their
time derivatives at the boundaries (dense output, Hairer, Norsett and
Wanner, *Solving ODEs I*, section II.6).  The lifts stay 4th-order in time.

Steady-state tooling covers the stream-function formulation: the residual
under the Euler stage, an inexact-Newton solver for the semilinear balance
``laplacian(psi) = F(psi)`` on mean-free fields, and a dense probe for
kernels of the linearized operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import SpectralField2, VectorField2, Workspace, mode_power, to_coeffs, to_values
from .grids import Grid2
from .lagrangian import (MarkerTrack, ParticleSet, VelocitySampler, _lattice_gradient,
                         check_lattice)
from .operators import (_scratch, _stream_function, _velocity_component, biot_savart, dealias,
                        leray_project, transport_coeffs)
# not called here (a run hands its fields to its ``snapshot`` callable); the
# name stays bound for bench/test_bench.py, which checks that the tracer
# rebinds ``write_snapshot`` in this module
from .snapshots import write_snapshot  # noqa: F401
from .stepping import (BlowupError, casimir_integrals, cfl_dt, check_casimir_powers,
                       check_schedule, march, sup_abs)


@dataclass
class EulerState:
    """Mean-free vorticity field at a given time."""

    omega: SpectralField2
    t: float

    def __post_init__(self) -> None:
        if not self.omega.mean_free:
            raise ValueError("vorticity must be mean-free")

    def velocity(self) -> VectorField2:
        return biot_savart(self.omega)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    energy: float
    enstrophy: float
    casimirs: dict
    omega_max: float
    bkm_integral: float
    palinstrophy: float


@dataclass
class EulerRunResult:
    final: EulerState
    diagnostics: list
    marker_snapshots: list = dc_field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([rec.t for rec in self.diagnostics])


class _StageEval:
    """One RK4 stage of the vorticity coefficients, the state of
    :func:`eulerlab.stepping.march`.

    Everything the stage computes lives in its workspace and is rewritten by
    the next stage: the stream function, in the scratch that the transport
    takes over once the velocity samples are made; one velocity coefficient
    array, which the two components go through in turn; the velocity
    samples, which stay until then for the CFL rule.  The tendency goes
    into ``out``, which may be ``None`` for a freshly allocated one; ``k``
    is the vorticity tendency of the latest stage.
    """

    def __init__(self, grid: Grid2, work: Workspace | None = None):
        self.grid = grid
        self.work = work = Workspace() if work is None else work
        self.uc = work.array("stage.uc", grid.coeff_shape, np.complex128)
        self.u1v, self.u2v = (work.array(("stage.uv", i), grid.shape) for i in range(2))
        self.k = None

    def __call__(self, t: float, c: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        g, w = self.grid, self.work
        psi = _stream_function(c, g, _scratch(g, w)[0])
        u1v, u2v = (to_values(_velocity_component(psi, g, i, self.uc), v)
                    for i, v in enumerate((self.u1v, self.u2v)))
        self.k = k = transport_coeffs(c, u1v, u2v, g, out, w)
        k[0, 0] = 0.0
        return k


def _diagnostics(grid: Grid2, c: np.ndarray, t: float, bkm: float, powers,
                 vals: np.ndarray, work: Workspace) -> DiagnosticsRecord:
    """The record of the vorticity coefficients ``c``, whose samples are
    ``vals``, at time t; ``work`` holds the Casimir powers."""
    area = grid.measure
    p2 = mode_power(grid, c)
    energy = 0.5 * area * float(np.sum(np.divide(p2, grid.k2, out=np.zeros_like(p2),
                                                 where=grid.k2 > 0)))
    enstrophy = area * float(np.sum(p2))
    palinstrophy = area * float(np.sum(grid.k2 * p2))
    cas = casimir_integrals(vals, powers, "omega", grid.cell_area, work)
    return DiagnosticsRecord(t=t, energy=energy, enstrophy=enstrophy, casimirs=cas,
                             omega_max=sup_abs(vals), bkm_integral=bkm,
                             palinstrophy=palinstrophy)


def _check_finite(rec: DiagnosticsRecord) -> bool:
    vals = [rec.energy, rec.enstrophy, rec.omega_max, rec.palinstrophy]
    vals.extend(rec.casimirs.values())
    return all(math.isfinite(v) for v in vals)


def run(omega0: SpectralField2, t_end: float, cfl: float = 0.4,
        diag_every: float = 0.5, casimirs=(4,), marker_lattice: int | None = None,
        snapshot_every: float = 0.0, snapshot=None) -> EulerRunResult:
    """Advance 2D Euler to t_end with diagnostics at a fixed cadence.

    A marker lattice (``marker_lattice`` markers per direction) can ride
    along, its snapshots stored at the diagnostic cadence.  The markers
    take one RK4 step per two flow steps, or one where a diagnostics time or
    t_end ends the first.  A marker step samples the velocity at its ends
    and at its mid-time, there as the cubic Hermite value in time through
    the velocities and their time derivatives (the Biot-Savart velocities
    of the vorticity tendencies) at the ends of the flow step that holds
    it: dense output, E. Hairer, S. P. Norsett and G. Wanner, *Solving
    Ordinary Differential Equations I*, section II.6.  That value is
    3rd-order in the flow step, so the lifts are 4th-order in time.  Every
    field the run saves goes to ``snapshot(name, fields, t)`` (when given),
    with ``fields`` the list of sample blocks: ``snap_NNNNN.eulb`` every
    ``snapshot_every`` (when positive) and, before a non-finite vorticity
    sup after a step or non-finite diagnostics raise :class:`BlowupError`,
    the last finite state as ``checkpoint_abort.eulb``.
    """
    check_schedule(cfl, diag_every, snapshot_every)
    check_casimir_powers(casimirs)
    EulerState(omega0, 0.0)  # rejects a vorticity with a nonzero mean
    grid = omega0.grid
    # popped into march, so that the first step frees the initial state: the
    # run keeps no other reference to it
    start = [dealias(omega0).coeffs]
    del omega0
    records, marker_snapshots = [], []
    markers = ParticleSet.lattice(marker_lattice, grid.lx, grid.ly) if marker_lattice else None
    track = MarkerTrack(grid, markers.lifts.copy()) if markers is not None else None
    work = Workspace()
    stage = _StageEval(grid, work)

    # the samples of the current vorticity: made here for t = 0, then by
    # after_step for each new state; emit and the snapshots read them
    omega = to_values(start[0], work.array("run.omega", grid.shape))
    bkm = 0.0
    sup_prev = sup_abs(omega)

    def checkpoint(name: str, vals: np.ndarray, t: float) -> None:
        if snapshot is not None:
            snapshot(name, [vals], t)

    def emit(t: float, c: np.ndarray, step: int, k1) -> None:
        rec = _diagnostics(grid, c, t, bkm, casimirs, omega, work)
        if not _check_finite(rec):
            if math.isfinite(rec.omega_max):
                checkpoint("checkpoint_abort.eulb", omega, t)
            raise BlowupError(t, step, records[-1] if records else None)
        records.append(rec)
        if track is not None:
            if k1 is None:  # the end of the run, where march makes no first stage
                stage(t, c, None)
            track.boundary(t, c, stage.k, end=True)
            marker_snapshots.append(ParticleSet(
                track.lifts.copy(), markers.lifts0.copy(), t, grid.lx, grid.ly))

    def after_step(t: float, dt: float, c: np.ndarray, c_new: np.ndarray, step: int) -> None:
        nonlocal bkm, sup_prev
        sup_new = sup_abs(to_values(c_new, omega))
        if not math.isfinite(sup_new):
            checkpoint("checkpoint_abort.eulb", to_values(c), t)
            raise BlowupError(t + dt, step, records[-1])
        bkm += 0.5 * dt * (sup_prev + sup_new)
        sup_prev = sup_new

    def dt_rule(t: float, c: np.ndarray) -> float:
        # the stage holds the first stage of the step from t, which emit has
        # handed to the markers already when t is a diagnostics time
        if track is not None:
            track.boundary(t, c, stage.k, end=False)
        return cfl_dt(grid, stage.u1v, stage.u2v, cfl)

    def periodic(t: float, c: np.ndarray, index: int) -> None:
        checkpoint(f"snap_{index:05d}.eulb", omega, t)

    t, c = march(stage, start.pop(), t_end, dt_rule, diag_every, emit, snapshot_every,
                 periodic if snapshot is not None else None, after_step, work)
    # the vorticity's mean coefficient is exactly zero (it starts so, and every
    # stage zeroes it in the tendency), so the state array is the final field
    # as it stands
    return EulerRunResult(final=EulerState(SpectralField2(grid, c), t),
                          diagnostics=records, marker_snapshots=marker_snapshots)


# -- Weber formula check -------------------------------------------------------


def check_weber_lattice(m: int) -> None:
    """Reject a marker lattice that :func:`weber_residual` cannot put on a
    :class:`Grid2`: the config check runs it on every euler2d run with markers."""
    check_lattice(m)
    if m < 8 or m % 2 != 0:
        raise ValueError(f"marker_lattice must be an even integer >= 8, got {m}")


def weber_residual(state: EulerState, p: ParticleSet, u0: VectorField2) -> float:
    """L2 defect of the projected pull-back of u(t) against u(0), from the
    marker lattice ``p`` at the state's time.

    The flow map gradient comes from 6th-order wrap-aware central
    differences of the marker lifts; the pulled-back covelocity is
    assembled on the marker lattice, Leray-projected there, and compared
    with the initial velocity restricted to the same lattice.
    """
    if abs(p.t - state.t) > 1e-9:
        raise ValueError(f"flowmap time {p.t:g} does not match state time {state.t:g}")
    mx, my = p.lattice_shape
    grad = _lattice_gradient(p, order=6)

    # the two samplers are built in turn in one workspace
    work = Workspace()
    u = state.velocity()
    u_phi = VelocitySampler(u.grid, u.u1.coeffs, u.u2.coeffs, work)(p.positions)
    u_phi = u_phi.reshape(mx, my, 2)
    # (grad Phi)^T (u o Phi)
    v1 = grad[:, :, 0, 0] * u_phi[:, :, 0] + grad[:, :, 1, 0] * u_phi[:, :, 1]
    v2 = grad[:, :, 0, 1] * u_phi[:, :, 0] + grad[:, :, 1, 1] * u_phi[:, :, 1]

    lattice_grid = Grid2(mx, my, p.lx, p.ly)
    v = VectorField2.from_values(lattice_grid, v1, v2)
    pv = leray_project(VectorField2(v.u1.project_mean_free(), v.u2.project_mean_free()))

    u0_lattice = VelocitySampler(u0.grid, u0.u1.coeffs, u0.u2.coeffs, work)(p.lifts0)
    u0_lattice = u0_lattice.reshape(mx, my, 2)
    w = VectorField2.from_values(lattice_grid, u0_lattice[:, :, 0], u0_lattice[:, :, 1])
    w = VectorField2(w.u1.project_mean_free(), w.u2.project_mean_free())
    return (pv - w).norm_l2()


# -- linearized Couette, exact symbol ------------------------------------------


def check_couette_modes(modes) -> None:
    """Reject the mode (0, 0): a constant vorticity has no velocity."""
    for kx, eta0, _ in modes:
        if kx == 0 and eta0 == 0:
            raise ValueError("mode (0, 0) has no velocity representation")


def couette_linear_evolve(modes, ts) -> dict:
    """Free-transport evolution of vorticity modes around a linear shear.

    Each mode is (kx, eta0, amplitude) on a continuous vertical frequency
    axis; at time t its vertical frequency is eta0 + kx*t and the velocity
    follows from the stream-function relation.  Returns the L2 norms of
    both velocity components and the H1 norm of the vorticity.  Horizontal
    means (kx = 0) are undamped; their constant contribution to u1 is
    reported separately as ``shear_u1_l2`` and excluded from ``u1_l2``.
    """
    check_couette_modes(modes)
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    u1sq = np.zeros_like(ts)
    u2sq = np.zeros_like(ts)
    h1sq = np.zeros_like(ts)
    shear_sq = 0.0
    for kx, eta0, amp in modes:
        a2 = float(amp) ** 2
        if kx == 0:
            shear_sq += a2 / eta0**2
            h1sq += a2 * (1.0 + eta0**2)
            continue
        eta = eta0 + kx * ts
        denom = kx**2 + eta**2
        u1sq += a2 * eta**2 / denom**2
        u2sq += a2 * kx**2 / denom**2
        h1sq += a2 * (1.0 + denom)
    return {"t": ts, "u1_l2": np.sqrt(u1sq), "u2_l2": np.sqrt(u2sq),
            "omega_h1": np.sqrt(h1sq), "shear_u1_l2": math.sqrt(shear_sq)}


# -- steady states --------------------------------------------------------------


def steady_residual(psi: SpectralField2) -> float:
    """L2 norm of the vorticity tendency that the runs' Euler stage gives the
    stream function psi: the dealiased Poisson bracket of psi and its Laplacian."""
    g = psi.grid
    k = _StageEval(g)(0.0, -g.k2 * psi.coeffs * g.dealias_mask, None)
    return SpectralField2(g, k).norm_l2()


@dataclass
class SteadyState:
    """Converged solution of the semilinear balance laplacian(psi) = F(psi)."""

    psi: SpectralField2
    F_prime: object
    residual: float            # steady_residual(psi)
    equation_residual: float   # L2 norm of laplacian(psi) - F(psi)
    iterations: int


def _equation_residual_coeffs(psi_c: np.ndarray, F, grid: Grid2) -> np.ndarray:
    mask = grid.dealias_mask
    rc = -grid.k2 * psi_c - to_coeffs(F(to_values(psi_c))) * mask
    rc[0, 0] = 0.0
    return rc


def _near_null_basis(grid: Grid2, fp_mean: float) -> np.ndarray | None:
    """Value-space basis of Fourier modes where the linearization symbol
    -|k|^2 - mean(F') is within 0.3 of zero (candidate kernel directions).

    Each pair of modes +-k is visited once, from its half-spectrum entry
    (my > 0, or my = 0 and mx > 0); Nyquist modes are left out."""
    cols = []
    X, Y = grid.meshgrid()
    for i, mx in enumerate(grid.mx):
        for j, my in enumerate(grid.my):
            if my == 0 and mx <= 0:
                continue
            if abs(mx) * 2 == grid.nx or my * 2 == grid.ny:
                continue
            if abs(grid.k2[i, j] + fp_mean) > 0.3:
                continue
            phase = grid.kx[i] * X + grid.ky[j] * Y
            for v in (np.cos(phase), np.sin(phase)):
                v = v.ravel()
                cols.append(v / np.linalg.norm(v))
    if not cols:
        return None
    return np.column_stack(cols)


def _linearized_apply(grid: Grid2, fp_vals: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(laplacian - F' mult) of the flat collocation field ``vec`` on
    mean-free fields, with the F' product dealiased; flat values out."""
    vc = to_coeffs(vec.reshape(grid.shape))
    vc[0, 0] = 0.0
    out = to_coeffs(fp_vals * to_values(vc)) * grid.dealias_mask
    out = -grid.k2 * vc - out
    out[0, 0] = 0.0
    return to_values(out).ravel()


def _linearized_step(grid: Grid2, fp_vals: np.ndarray,
                     rc: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the Newton correction (laplacian - F' mult) delta = -residual.

    MINRES with inverse-Laplacian preconditioning, to a relative tolerance of
    1e-3; near-null Fourier modes of the diagonal symbol are shifted out
    (those solves go to 1e-10) and restored with the Woodbury identity so
    steps stay accurate next to a singular linearization.
    Returns the correction (coefficients) and the relative defect of the
    linear solve.
    """
    from scipy.sparse.linalg import LinearOperator, minres

    n = grid.nx * grid.ny

    def mv(vec: np.ndarray) -> np.ndarray:
        return _linearized_apply(grid, fp_vals, vec)

    def precond(vec: np.ndarray) -> np.ndarray:
        # inverse Laplacian on mean-free content; identity on the mean so
        # the preconditioner stays positive definite
        vc = to_coeffs(vec.reshape(grid.shape))
        pc = np.divide(vc, grid.k2, out=vc.copy(), where=grid.k2 > 0)
        return to_values(pc).ravel()

    pre = LinearOperator((n, n), matvec=precond)
    b = -to_values(rc).ravel()
    bnorm = np.linalg.norm(b)
    V = _near_null_basis(grid, float(np.mean(fp_vals)))

    if V is None:
        op = LinearOperator((n, n), matvec=mv)
        delta, _ = minres(op, b, M=pre, rtol=1e-3, maxiter=1500)
    else:
        sigma = max(1.0, abs(float(np.mean(fp_vals))))

        def mv_shifted(vec: np.ndarray) -> np.ndarray:
            return mv(vec) + sigma * (V @ (V.T @ vec))

        op_s = LinearOperator((n, n), matvec=mv_shifted)
        tight = 1e-10
        z_b, _ = minres(op_s, b, M=pre, rtol=tight, maxiter=4000)
        Z = np.column_stack([minres(op_s, V[:, j], M=pre, rtol=tight,
                                    maxiter=4000)[0] for j in range(V.shape[1])])
        small = np.eye(V.shape[1]) / sigma - V.T @ Z
        rhs_small = V.T @ z_b
        y, *_ = np.linalg.lstsq(small, rhs_small, rcond=1e-12)
        delta = z_b + Z @ y

    lin_def = float(np.linalg.norm(mv(delta) - b) / bnorm) if bnorm > 0 else 0.0
    dc = to_coeffs(delta.reshape(grid.shape)) * grid.dealias_mask
    dc[0, 0] = 0.0
    return dc, lin_def


def semilinear_solve(F, F_prime, guess: SpectralField2, tol: float = 1e-10) -> SteadyState:
    """Damped inexact Newton for laplacian(psi) = F(psi) on mean-free fields.

    Newton corrections come from MINRES with an inverse-Laplacian
    preconditioner (plus low-rank deflation of near-singular symbol modes);
    steps are damped until the residual decreases.  An unsolvable linearization raises ``degenerate
    linearization``; running out of 60 iterations or stalling raises a
    convergence error.
    """
    max_iter = 60
    grid = guess.grid
    psi_c = dealias(guess).coeffs.copy()
    psi_c[0, 0] = 0.0

    rnorm = math.inf
    for iterations in range(max_iter + 1):
        rc = _equation_residual_coeffs(psi_c, F, grid)
        rnorm = SpectralField2(grid, rc).norm_l2()
        if rnorm < tol:
            psi = SpectralField2.from_coeffs(grid, psi_c)
            return SteadyState(psi=psi, F_prime=F_prime,
                               residual=steady_residual(psi),
                               equation_residual=rnorm,
                               iterations=iterations)
        if iterations == max_iter:
            break
        fp_vals = F_prime(to_values(psi_c))
        dc, lin_def = _linearized_step(grid, fp_vals, rc)
        if lin_def > 0.1:
            raise ValueError("degenerate linearization: the linearized operator "
                             "is singular or nearly so at the current iterate")
        for damp in (1.0, 0.5, 0.25, 0.125):
            trial = psi_c + damp * dc
            tr = SpectralField2(grid, _equation_residual_coeffs(trial, F, grid)).norm_l2()
            if tr < rnorm * (1.0 - 1e-4 * damp):
                psi_c = trial
                break
        else:
            raise RuntimeError("semilinear solve stalled: no damping of the "
                               f"Newton step reduces the residual ({rnorm:.3e})")

    raise RuntimeError(f"semilinear solve did not converge in {max_iter} iterations "
                       f"(residual {rnorm:.3e})")


def kernel_probe(steady: SteadyState) -> dict:
    """Smallest singular values of the linearized steady operator, and the
    dimension of its kernel.

    The operator is the one :func:`semilinear_solve` inverts, laplacian
    minus the dealiased multiplication by F'(psi) on mean-free collocation
    fields.  It is assembled densely, column by column, symmetrized, and
    the constant mode is shifted out of the way; the probe reports the 6
    smallest singular values and, as ``kernel``, the kernel's dimension:
    how many of all the singular values lie below 1e-8 * sigma_max.  Dense
    assembly is O(N^2) memory, so probe on modest grids.
    """
    grid = steady.psi.grid
    n = grid.nx * grid.ny
    if n > 64 * 64:
        raise ValueError("kernel probe grid too large for dense assembly")
    fp = steady.F_prime(steady.psi.values)

    shift = float(np.max(grid.k2) + np.max(np.abs(fp)) + 1.0)
    mat = np.empty((n, n))
    unit = np.zeros(n)
    for j in range(n):
        unit[j] = 1.0
        mat[:, j] = _linearized_apply(grid, fp, unit)
        unit[j] = 0.0
    mat = 0.5 * (mat + mat.T)
    mat += shift / n  # move the constant mode off zero
    eigs = np.linalg.eigvalsh(mat)
    sigma = np.sort(np.abs(eigs))
    sigma_max = float(sigma[-1])
    return {"smallest_singular_values": [float(s) for s in sigma[:6]],
            "sigma_max": sigma_max,
            "kernel": int(np.count_nonzero(sigma < 1e-8 * sigma_max))}
