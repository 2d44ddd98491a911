"""Incompressible porous-medium dynamics: density advected by a Darcy flow.

The velocity responds to buoyancy through the divergence-free projection
of ``-rho * e2``.  The curl identity ``curl u = -d(rho)/dx`` holds to
round-off at the coefficient level; density transport then conserves
every function of ``rho``.

The k = 0 velocity mode is set to zero: a constant buoyancy force is a
pressure gradient in the mean and produces no motion in the co-moving
gauge used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import SpectralField2, VectorField2, to_values
from .grids import Grid2
from .operators import transport_coeffs
from .stepping import check_schedule

__all__ = ["IpmState", "IpmDiagnostics", "IpmRunResult", "ipm_velocity", "ipm_run"]


@dataclass
class IpmState:
    """Density field at a given time (the mean is free and conserved)."""

    rho: SpectralField2
    t: float = 0.0

    def velocity(self) -> VectorField2:
        return ipm_velocity(self.rho)


def _velocity_coeffs(rho_c: np.ndarray, grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    kx = grid.kx[:, None]
    ky = grid.ky[None, :]
    inv = np.where(grid.k2 > 0.0, 1.0 / np.where(grid.k2 > 0.0, grid.k2, 1.0), 0.0)
    u1 = kx * ky * inv * rho_c
    u2 = -(kx * kx) * inv * rho_c
    return u1, u2


def ipm_velocity(rho: SpectralField2) -> VectorField2:
    """Divergence-free part of the buoyancy force (0, -rho), mean removed."""
    u1, u2 = _velocity_coeffs(rho.coeffs, rho.grid)
    return VectorField2(SpectralField2(rho.grid, u1, True),
                        SpectralField2(rho.grid, u2, True))


@dataclass(frozen=True)
class IpmDiagnostics:
    t: float
    mass: float
    casimirs: dict
    grad_sup: float
    e_pot: float
    tail_fraction: float


@dataclass
class IpmRunResult:
    final: IpmState
    diagnostics: list
    under_resolved: bool = False

    @property
    def times(self) -> np.ndarray:
        return np.array([rec.t for rec in self.diagnostics])


def _tail_fraction(rho_c: np.ndarray, grid: Grid2) -> float:
    cx = max(grid.nx // 3, 1)
    cy = max(grid.ny // 3, 1)
    outer = ((np.abs(grid.mx)[:, None] > 0.8 * cx)
             | (np.abs(grid.my)[None, :] > 0.8 * cy)) & grid.dealias_mask
    power = np.abs(rho_c) ** 2
    power[0, 0] = 0.0
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[outer]) / total)


def ipm_run(rho0: SpectralField2, t_end: float, cfl: float = 0.4,
            diag_every: float = 0.5, casimirs=(2,),
            tail_threshold: float = 1e-6) -> IpmRunResult:
    """Advance the density to t_end, recording mixing diagnostics.

    Diagnostics per cadence point: mass, collocation casimirs, the sup
    of |grad rho|, potential energy integral rho * y over the
    fundamental cell (continuous y, not wrapped), and the spectral tail
    fraction.  The run is flagged ``under_resolved`` once the tail
    fraction of the density spectrum exceeds ``tail_threshold``.
    """
    from .euler2d import _casimir_entries, _cfl_dt

    check_schedule(cfl, diag_every)
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")

    grid = rho0.grid
    c = rho0.coeffs.copy()
    entries = _casimir_entries(casimirs, symbol="rho")
    yrow = grid.y[None, :]
    t = 0.0
    result = IpmRunResult(final=IpmState(rho0, 0.0), diagnostics=[])

    def stage(rc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u1c, u2c = _velocity_coeffs(rc, grid)
        u1v = to_values(u1c)
        u2v = to_values(u2c)
        return transport_coeffs(rc, u1v, u2v, grid), u1v, u2v

    def emit() -> bool:
        vals = to_values(c)
        gx = to_values((1j * grid.kx)[:, None] * c)
        gy = to_values((1j * grid.ky)[None, :] * c)
        rec = IpmDiagnostics(
            t=t,
            mass=float(np.sum(vals) * grid.cell_area),
            casimirs={name: float(np.sum(f(vals)) * grid.cell_area)
                      for name, f in entries},
            grad_sup=float(np.max(np.hypot(gx, gy))),
            e_pot=float(np.sum(vals * yrow) * grid.cell_area),
            tail_fraction=_tail_fraction(c, grid),
        )
        result.diagnostics.append(rec)
        if rec.tail_fraction > tail_threshold:
            result.under_resolved = True
        return bool(np.isfinite(rec.grad_sup) and np.isfinite(rec.e_pot)
                    and np.isfinite(rec.mass))

    if not emit():
        raise RuntimeError("numerical blow-up detected at t=0")

    next_diag = diag_every
    while t < t_end - 1e-12:
        k1, u1v, u2v = stage(c)
        dt_cfl = _cfl_dt(grid, float(np.max(np.abs(u1v))),
                         float(np.max(np.abs(u2v))), cfl)
        dt = min(dt_cfl, next_diag - t, t_end - t)
        if not math.isfinite(dt) or dt <= 0.0:
            dt = min(next_diag - t, t_end - t)
        k2 = stage(c + 0.5 * dt * k1)[0]
        k3 = stage(c + 0.5 * dt * k2)[0]
        k4 = stage(c + dt * k3)[0]
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if t >= next_diag - 1e-12 or t >= t_end - 1e-12:
            if not emit():
                raise RuntimeError(f"numerical blow-up detected at t={t:.6g}")
            while next_diag <= t + 1e-12:
                next_diag += diag_every

    result.final = IpmState(SpectralField2.from_coeffs(grid, c, check=False), t)
    return result
