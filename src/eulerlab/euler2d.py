"""2D incompressible Euler in vorticity form, plus steady-state tooling.

The solver advances the dealiased pseudo-spectral vorticity equation with
RK4 under a CFL-limited adaptive step.  Runs can co-transport passive
scalars (inside the same RK4 stages) and a marker lattice, and emit
conservation/BKM diagnostics at a fixed cadence.  The markers do not act
on the flow, so they step apart from it: one RK4 step per two flow steps
(one where a diagnostics time or the end ends the first), with velocities
sampled only at the flow's step boundaries and, for the mid-time, a cubic
Hermite value in time through the velocities and their time derivatives
at the boundaries (dense output, Hairer, Norsett and Wanner, *Solving
ODEs I*, section II.6).  The lifts stay 4th-order in time.

Steady-state tooling covers the stream-function formulation: the Poisson
bracket residual, an inexact-Newton solver for the semilinear balance
``laplacian(psi) = F(psi)`` on mean-free fields, a convexity-based
stability certificate with a perturbation experiment, and a dense probe
for kernels of the linearized operator.

On the torus the boundary condition of the classical stability theorem is
replaced by a mean-free constraint on psi; the certificate is that torus
adaptation, not a verbatim transcription.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import SpectralField2, VectorField2, Workspace, mode_power, to_coeffs, to_values
from .grids import Grid2
from .lagrangian import (MarkerTrack, ParticleSet, VelocitySampler, _lattice_gradient,
                         check_lattice)
from .operators import (biot_savart, dealias, gradient_sup, leray_project, stream_velocity,
                        transport_coeffs)
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
    scalars: dict = dc_field(default_factory=dict)
    scalar_gradients: dict = dc_field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([rec.t for rec in self.diagnostics])


class _StageEval:
    """One RK4 stage of (vorticity, *scalars): the velocity of the vorticity
    transports all of them.

    Everything the stage computes lives in its workspace and is rewritten by
    the next stage: the velocity coefficients, the velocity samples (which
    stay until then for the CFL rule) and the transport temporaries.  The
    tendencies go into ``out``, whose entries may be ``None`` for freshly
    allocated ones; ``k`` is the vorticity tendency of the latest stage.
    """

    def __init__(self, grid: Grid2, work: Workspace | None = None):
        self.grid = grid
        self.work = work = Workspace() if work is None else work
        self.uc = tuple(work.array(("stage.uc", i), grid.coeff_shape, np.complex128)
                        for i in range(2))
        self.u1v, self.u2v = (work.array(("stage.uv", i), grid.shape) for i in range(2))
        self.k = None

    def __call__(self, t: float, y: tuple, out: tuple) -> tuple:
        g, w = self.grid, self.work
        c, *scalars = y
        u1c, u2c = stream_velocity(c, g, self.uc)
        u1v = to_values(u1c, self.u1v)
        u2v = to_values(u2c, self.u2v)
        self.k = k = transport_coeffs(c, u1v, u2v, g, out[0], w)
        k[0, 0] = 0.0
        return (k, *(transport_coeffs(s, u1v, u2v, g, o, w) for s, o in zip(scalars, out[1:])))


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
        scalars: dict | None = None, snapshot_every: float = 0.0, observer=None,
        snapshot=None) -> EulerRunResult:
    """Advance 2D Euler to t_end with diagnostics at a fixed cadence.

    Optional extras ride along: named passive scalar fields, transported
    inside the same RK4 stages, whose sup-gradient history is recorded, and
    a marker lattice (``marker_lattice`` markers per direction) whose
    snapshots are stored at the diagnostic cadence.  The markers take one
    RK4 step per two flow steps, or one where a diagnostics time or t_end
    ends the first.  A marker step samples the velocity at its ends and at
    its mid-time, there as the cubic Hermite value in time through the
    velocities and their time derivatives (the Biot-Savart velocities of
    the vorticity tendencies) at the ends of the flow step that holds it:
    dense output, E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary
    Differential Equations I*, section II.6.  That value is 3rd-order in
    the flow step, so the lifts are 4th-order in time.  ``observer(state)``
    is called at every diagnostic time.  Every field the run saves goes to
    ``snapshot(name, fields, t)`` (when given), with ``fields`` the list of
    sample blocks: ``snap_NNNNN.eulb`` every ``snapshot_every`` (when
    positive) and, before a non-finite vorticity sup after a step or
    non-finite diagnostics raise :class:`BlowupError`, the last finite
    state as ``checkpoint_abort.eulb``.
    """
    check_schedule(cfl, diag_every, snapshot_every)
    check_casimir_powers(casimirs)
    grid = omega0.grid
    scalars = dict(scalars or {})
    # EulerState rejects a vorticity with a nonzero mean
    result = EulerRunResult(final=EulerState(omega0, 0.0), diagnostics=[],
                            scalar_gradients={name: [] for name in scalars})
    y = (dealias(omega0).coeffs.copy(), *(dealias(f).coeffs.copy() for f in scalars.values()))
    markers = ParticleSet.lattice(marker_lattice, grid.lx, grid.ly) if marker_lattice else None
    track = MarkerTrack(grid, markers.lifts.copy()) if markers is not None else None
    work = Workspace()
    stage = _StageEval(grid, work)

    # the samples of the current vorticity: made here for t = 0, then by
    # after_step for each new state; emit and the snapshots read them
    omega = to_values(y[0], work.array("run.omega", grid.shape))
    bkm = 0.0
    sup_prev = sup_abs(omega)

    def checkpoint(name: str, vals: np.ndarray, t: float) -> None:
        if snapshot is not None:
            snapshot(name, [vals], t)

    def emit(t: float, y: tuple, step: int, k1) -> None:
        rec = _diagnostics(grid, y[0], t, bkm, casimirs, omega, work)
        if not _check_finite(rec):
            if math.isfinite(rec.omega_max):
                checkpoint("checkpoint_abort.eulb", omega, t)
            raise BlowupError(t, step, result.diagnostics[-1] if result.diagnostics else None)
        result.diagnostics.append(rec)
        for name, fc in zip(scalars, y[1:]):
            result.scalar_gradients[name].append(gradient_sup(fc, grid, work))
        if track is not None:
            if k1 is None:  # the end of the run, where march makes no first stage
                stage(t, y[:1], (None,))
            track.boundary(t, y[0], stage.k, end=True)
            result.marker_snapshots.append(ParticleSet(
                track.lifts.copy(), markers.lifts0.copy(), t, grid.lx, grid.ly))
        if observer is not None:
            observer(EulerState(SpectralField2.from_coeffs(grid, y[0]), t))

    def after_step(t: float, dt: float, y: tuple, y_new: tuple, step: int) -> None:
        nonlocal bkm, sup_prev
        sup_new = sup_abs(to_values(y_new[0], omega))
        if not math.isfinite(sup_new):
            checkpoint("checkpoint_abort.eulb", to_values(y[0]), t)
            raise BlowupError(t + dt, step, result.diagnostics[-1])
        bkm += 0.5 * dt * (sup_prev + sup_new)
        sup_prev = sup_new

    def dt_rule(t: float, y: tuple) -> float:
        # the stage holds the first stage of the step from t, which emit has
        # handed to the markers already when t is a diagnostics time
        if track is not None:
            track.boundary(t, y[0], stage.k, end=False)
        return cfl_dt(grid, stage.u1v, stage.u2v, cfl)

    def periodic(t: float, y: tuple, index: int) -> None:
        checkpoint(f"snap_{index:05d}.eulb", omega, t)

    t, y = march(stage, y, t_end, dt_rule, diag_every, emit, snapshot_every,
                 periodic if snapshot is not None else None, after_step, work)
    result.final = EulerState(SpectralField2.from_coeffs(grid, y[0]), t)
    result.scalars = {n: SpectralField2.from_coeffs(grid, fc) for n, fc in zip(scalars, y[1:])}
    return result


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

    sampler = VelocitySampler.from_field(state.velocity())
    u_phi = sampler(p.positions)
    u_phi = u_phi.reshape(mx, my, 2)
    # (grad Phi)^T (u o Phi)
    v1 = grad[:, :, 0, 0] * u_phi[:, :, 0] + grad[:, :, 1, 0] * u_phi[:, :, 1]
    v2 = grad[:, :, 0, 1] * u_phi[:, :, 0] + grad[:, :, 1, 1] * u_phi[:, :, 1]

    lattice_grid = Grid2(mx, my, p.lx, p.ly)
    v = VectorField2.from_values(lattice_grid, v1, v2)
    pv = leray_project(VectorField2(v.u1.project_mean_free(), v.u2.project_mean_free()))

    u0s = VelocitySampler.from_field(u0)
    u0_lattice = u0s(p.lifts0).reshape(mx, my, 2)
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
    """L2 norm of the stream-function/vorticity Poisson bracket, dealiased."""
    g = psi.grid
    mask = g.dealias_mask
    pc = psi.coeffs * mask
    lap = -g.k2 * pc
    bracket = to_values(g.ikx * pc) * to_values(g.iky * lap) \
        - to_values(g.iky * pc) * to_values(g.ikx * lap)
    return SpectralField2(g, to_coeffs(bracket) * mask).norm_l2()


@dataclass
class SteadyState:
    """Converged solution of the semilinear balance laplacian(psi) = F(psi)."""

    psi: SpectralField2
    F: object
    F_prime: object
    residual: float            # Poisson-bracket residual of psi
    equation_residual: float   # L2 norm of laplacian(psi) - F(psi)
    converged: bool
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
    mask = grid.dealias_mask

    def mv(vec: np.ndarray) -> np.ndarray:
        vc = to_coeffs(vec.reshape(grid.shape))
        vc[0, 0] = 0.0
        w = to_values(vc)
        out = to_coeffs(fp_vals * w) * mask
        out = -grid.k2 * vc - out
        out[0, 0] = 0.0
        return to_values(out).ravel()

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
    dc = to_coeffs(delta.reshape(grid.shape)) * mask
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
    mask = grid.dealias_mask
    psi_c = dealias(guess).coeffs.copy()
    psi_c[0, 0] = 0.0

    rnorm = math.inf
    for iterations in range(max_iter + 1):
        rc = _equation_residual_coeffs(psi_c, F, grid)
        rnorm = SpectralField2(grid, rc).norm_l2()
        if rnorm < tol:
            psi = SpectralField2.from_coeffs(grid, psi_c)
            return SteadyState(psi=psi, F=F, F_prime=F_prime,
                               residual=steady_residual(psi),
                               equation_residual=rnorm,
                               converged=True, iterations=iterations)
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


def _h2_norm(g: Grid2, psi_c: np.ndarray) -> float:
    w = (1.0 + g.k2) ** 2
    return float(math.sqrt(g.measure * np.sum(w * mode_power(g, psi_c))))


def arnold_certificate(steady: SteadyState, epsilon: float = 1e-3,
                       t_end: float = 20.0) -> dict:
    """Convexity certificate for a steady state, plus a perturbation run.

    Certified when F' stays positive over the attained range of psi.  The
    experiment evolves the steady vorticity plus a random band-limited
    perturbation (seed 0) of stream-level H2 size epsilon at CFL number 0.4
    and records the largest H2 distance from the steady stream function,
    sampled every 0.5 over [0, t_end].

    The H2 distances are computed spectrally:
    ``sqrt(lx*ly * sum(w (1+|k|^2)^2 |psi1_hat - psi2_hat|^2))`` over the half
    spectrum with the grid's Parseval weight w.
    """
    if not steady.converged:
        raise ValueError("certificate requires a converged steady state")
    grid = steady.psi.grid
    pv = steady.psi.values
    lo, hi = float(np.min(pv)), float(np.max(pv))
    samples = np.linspace(lo, hi, 401)
    min_fprime = float(np.min(steady.F_prime(samples)))
    certified = min_fprime > 0.0

    omega_star = SpectralField2.from_coeffs(grid, -grid.k2 * steady.psi.coeffs)

    rng = np.random.default_rng(0)
    pc = to_coeffs(rng.normal(size=grid.shape))
    band = (np.abs(grid.mx)[:, None] <= 3) & (np.abs(grid.my)[None, :] <= 3)
    pc *= band
    eta_psi = SpectralField2.from_coeffs(grid, pc).project_mean_free()
    eta_psi = eta_psi * (1.0 / _h2_norm(grid, eta_psi.coeffs))
    eta_omega = SpectralField2.from_coeffs(grid, -grid.k2 * eta_psi.coeffs)

    omega_pert = omega_star + epsilon * eta_omega
    distances = []

    def observer(state: EulerState) -> None:
        distances.append(_h2_norm(grid, grid.inv_minus_k2
                                  * (state.omega.coeffs - omega_star.coeffs)))

    run(omega_pert.project_mean_free(), t_end, cfl=0.4, diag_every=0.5, casimirs=(),
        observer=observer)
    return {"certified": certified, "min_Fprime": min_fprime,
            "h2_initial": distances[0], "h2_max": float(np.max(distances)),
            "h2_series": np.array(distances)}


def kernel_probe(steady: SteadyState) -> dict:
    """Smallest singular values of the linearized steady operator.

    Assembles laplacian minus multiplication by F'(psi) densely on
    mean-free collocation fields (the constant mode is shifted out of the
    way) and reports the 6 smallest singular values, flagging a kernel when
    sigma_min < 1e-8 * sigma_max.  Dense assembly is
    O(N^2) memory, so probe on modest grids.
    """
    if not steady.converged:
        raise ValueError("kernel probe requires a converged steady state")
    grid = steady.psi.grid
    n = grid.nx * grid.ny
    if n > 64 * 64:
        raise ValueError("kernel probe grid too large for dense assembly")
    fp = steady.F_prime(steady.psi.values).ravel()

    eye = np.eye(n)
    mat = np.empty((n, n))
    shift = float(np.max(grid.k2) + np.max(np.abs(fp)) + 1.0)
    for j in range(n):
        v = eye[j].reshape(grid.shape)
        vc = to_coeffs(v)
        vc[0, 0] = 0.0
        w = to_values(vc)
        col = to_values(-grid.k2 * vc) - fp.reshape(grid.shape) * w
        colc = to_coeffs(col)
        colc[0, 0] = 0.0
        mat[:, j] = to_values(colc).ravel()
    mat = 0.5 * (mat + mat.T)
    mat += (shift / n) * np.ones((n, n))  # move the constant mode off zero
    eigs = np.linalg.eigvalsh(mat)
    sigma = np.sort(np.abs(eigs))
    sigma_max = float(sigma[-1])
    smallest = [float(s) for s in sigma[:6]]
    return {"smallest_singular_values": smallest,
            "sigma_max": sigma_max,
            "kernel": smallest[0] < 1e-8 * sigma_max}
