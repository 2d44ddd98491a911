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

from .fields import SpectralField2, VectorField2, mode_power, to_values
from .grids import Grid2
from .operators import dealias, gradient_sup, transport_coeffs
from .stepping import BlowupError, casimir_entries, cfl_dt, check_schedule, march

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
    power = mode_power(grid, rho_c)
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
    The density is dealiased on entry, as the vorticity is in
    :func:`eulerlab.euler2d.run`.  Non-finite diagnostics raise
    :class:`~eulerlab.stepping.BlowupError`.
    """
    check_schedule(cfl, diag_every)
    grid = rho0.grid
    entries = casimir_entries(casimirs, "rho")
    yrow = grid.y[None, :]
    result = IpmRunResult(final=IpmState(rho0, 0.0), diagnostics=[])
    velocity = [None, None]  # the last stage's velocity samples, for the CFL rule

    def rhs(t: float, y: tuple) -> tuple:
        u1c, u2c = _velocity_coeffs(y[0], grid)
        velocity[:] = to_values(u1c), to_values(u2c)
        return (transport_coeffs(y[0], *velocity, grid),)

    def emit(t: float, y: tuple, step: int) -> None:
        c = y[0]
        vals = to_values(c)
        rec = IpmDiagnostics(
            t=t,
            mass=float(np.sum(vals) * grid.cell_area),
            casimirs={name: float(np.sum(f(vals)) * grid.cell_area)
                      for name, f in entries},
            grad_sup=gradient_sup(c, grid),
            e_pot=float(np.sum(vals * yrow) * grid.cell_area),
            tail_fraction=_tail_fraction(c, grid),
        )
        if not (math.isfinite(rec.grad_sup) and math.isfinite(rec.e_pot)
                and math.isfinite(rec.mass)):
            raise BlowupError(t, step, result.diagnostics[-1] if result.diagnostics else None)
        result.diagnostics.append(rec)
        if rec.tail_fraction > tail_threshold:
            result.under_resolved = True

    t, (c,) = march(rhs, (dealias(rho0).coeffs.copy(),), t_end,
                    lambda t, y: cfl_dt(grid, *velocity, cfl), diag_every, emit)
    result.final = IpmState(SpectralField2.from_coeffs(grid, c), t)
    return result
