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

from .fields import SpectralField2, VectorField2, Workspace, mode_power, to_values
from .grids import Grid2
from .operators import dealias, gradient_sup, transport_coeffs
from .stepping import BlowupError, casimir_integrals, cfl_dt, check_schedule, march

__all__ = ["IpmState", "IpmDiagnostics", "IpmRunResult", "ipm_velocity", "ipm_run"]


@dataclass
class IpmState:
    """Density field at a given time (the mean is free and conserved)."""

    rho: SpectralField2
    t: float = 0.0

    def velocity(self) -> VectorField2:
        return ipm_velocity(self.rho)


def _velocity_symbols(grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers (kx ky, -kx^2) / |k|^2 that take rho to u = perp grad psi,
    laplacian(psi) = -d(rho)/dx."""
    return (grid.ikx * grid.iky * grid.inv_minus_k2,
            -(grid.ikx * grid.ikx) * grid.inv_minus_k2)


def ipm_velocity(rho: SpectralField2) -> VectorField2:
    """Divergence-free part of the buoyancy force (0, -rho), mean removed."""
    u1, u2 = (m * rho.coeffs for m in _velocity_symbols(rho.grid))
    return VectorField2(SpectralField2(rho.grid, u1), SpectralField2(rho.grid, u2))


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


def _outer_band(grid: Grid2) -> np.ndarray:
    """The dealiased modes beyond 0.8 of the 2/3-rule cutoff in either direction."""
    cx = max(grid.nx // 3, 1)
    cy = max(grid.ny // 3, 1)
    return ((np.abs(grid.mx)[:, None] > 0.8 * cx)
            | (np.abs(grid.my)[None, :] > 0.8 * cy)) & grid.dealias_mask


def _tail_fraction(rho_c: np.ndarray, grid: Grid2, outer: np.ndarray) -> float:
    """The share of the fluctuation power of rho on the modes of ``outer``."""
    power = mode_power(grid, rho_c)
    power[0, 0] = 0.0
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[outer]) / total)


def ipm_run(rho0: SpectralField2, t_end: float, cfl: float = 0.4,
            diag_every: float = 0.5, tail_threshold: float = 1e-6) -> IpmRunResult:
    """Advance the density to t_end, recording mixing diagnostics.

    Diagnostics per cadence point: mass, the collocation casimir of rho^2,
    the sup of |grad rho|, potential energy integral rho * y over the
    fundamental cell (continuous y, not wrapped), and the spectral tail
    fraction.  The run is flagged ``under_resolved`` once the tail
    fraction of the density spectrum exceeds ``tail_threshold``.
    The density is dealiased on entry, as the vorticity is in
    :func:`eulerlab.euler2d.run`.  Non-finite diagnostics raise
    :class:`~eulerlab.stepping.BlowupError`.
    """
    check_schedule(cfl, diag_every)
    grid = rho0.grid
    yrow = grid.y[None, :]
    outer = _outer_band(grid)
    result = IpmRunResult(final=IpmState(rho0, 0.0), diagnostics=[])
    work = Workspace()
    symbols = _velocity_symbols(grid)
    uc = work.array("stage.uc", grid.coeff_shape, np.complex128)
    # the last stage's velocity samples, kept for the CFL rule
    velocity = tuple(work.array(("stage.uv", i), grid.shape) for i in range(2))
    rho, rho_y = (work.array(("run.rho", i), grid.shape) for i in range(2))

    def rhs(t: float, y: tuple, out: tuple) -> tuple:
        for m, v in zip(symbols, velocity):
            to_values(np.multiply(m, y[0], out=uc), v)
        return (transport_coeffs(y[0], *velocity, grid, out[0], work),)

    def emit(t: float, y: tuple, step: int, k1) -> None:
        c = y[0]
        vals = to_values(c, rho)
        rec = IpmDiagnostics(
            t=t,
            mass=float(np.sum(vals) * grid.cell_area),
            casimirs=casimir_integrals(vals, (2,), "rho", grid.cell_area, work),
            grad_sup=gradient_sup(c, grid, work),
            e_pot=float(np.sum(np.multiply(vals, yrow, out=rho_y)) * grid.cell_area),
            tail_fraction=_tail_fraction(c, grid, outer),
        )
        if not (math.isfinite(rec.grad_sup) and math.isfinite(rec.e_pot)
                and math.isfinite(rec.mass)):
            raise BlowupError(t, step, result.diagnostics[-1] if result.diagnostics else None)
        result.diagnostics.append(rec)
        if rec.tail_fraction > tail_threshold:
            result.under_resolved = True

    t, (c,) = march(rhs, (dealias(rho0).coeffs.copy(),), t_end,
                    lambda t, y: cfl_dt(grid, *velocity, cfl), diag_every, emit, work=work)
    result.final = IpmState(SpectralField2.from_coeffs(grid, c), t)
    return result
