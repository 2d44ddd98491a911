"""Step-size and output-cadence limits shared by the RK4 time loops."""

from __future__ import annotations

#: largest CFL number the RK4 loops accept
MAX_CFL = 0.5


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
