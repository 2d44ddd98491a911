"""Spectral calculus on periodic fields: derivatives, inverse Laplacian,
Hilbert transform, Biot-Savart velocity recovery, Leray projection, and
2/3-rule dealiasing."""

from __future__ import annotations

import numpy as np

from .fields import SpectralField1, SpectralField2, VectorField2, to_coeffs, to_values
from .grids import Grid2


def dx(f: SpectralField2) -> SpectralField2:
    c = (1j * f.grid.kx)[:, None] * f.coeffs
    return SpectralField2(f.grid, c, True)


def dy(f: SpectralField2) -> SpectralField2:
    c = (1j * f.grid.ky)[None, :] * f.coeffs
    return SpectralField2(f.grid, c, True)


def laplacian(f: SpectralField2) -> SpectralField2:
    return SpectralField2(f.grid, -f.grid.k2 * f.coeffs, True)


def inv_laplacian(f: SpectralField2) -> SpectralField2:
    """Solve Laplace(g) = f for the mean-free g; requires mean-free input."""
    if not f.mean_free:
        raise ValueError("inv_laplacian: nonzero mean")
    return SpectralField2(f.grid, f.grid.inv_minus_k2 * f.coeffs, True)


def perp_gradient(f: SpectralField2) -> VectorField2:
    """Rotated gradient (-df/dy, df/dx); divergence-free by construction."""
    return VectorField2(-1.0 * dy(f), dx(f))


def biot_savart(omega: SpectralField2) -> VectorField2:
    """Velocity with the prescribed vorticity: u = perp_grad(inv_laplacian(omega))."""
    if not omega.mean_free:
        raise ValueError("biot_savart: vorticity must be mean-free")
    return perp_gradient(inv_laplacian(omega))


def divergence(v: VectorField2) -> SpectralField2:
    return dx(v.u1) + dy(v.u2)


def curl(v: VectorField2) -> SpectralField2:
    return dx(v.u2) - dy(v.u1)


def hilbert_transform(f: SpectralField1) -> SpectralField1:
    """Periodic Hilbert transform, multiplier -i*sgn(k) (so H(cos) = sin)."""
    c = -1j * np.sign(f.grid.m) * f.coeffs
    return SpectralField1(f.grid, c, True)


def leray_project(v: VectorField2) -> VectorField2:
    """Remove the gradient part: u_hat -= k (k . u_hat) / |k|^2, k != 0.

    Each stored coefficient is projected with the wavevector its index
    names, so on the Nyquist row kx = -pi nx / lx and on the Nyquist
    column ky = +pi ny / ly.  That makes the operator an exact projection
    of the half spectrum.  (Taking the real part of a full-spectrum
    projection instead averages, on those two lines, the projector of a
    mode with that of its alias, whose kx*ky cross term has the opposite
    sign.)  Band-limited fields have no Nyquist content and do not see
    the choice.
    """
    g = v.grid
    kx = g.kx[:, None]
    ky = g.ky[None, :]
    with np.errstate(invalid="ignore"):
        factor = np.where(g.k2 > 0.0, 1.0 / np.where(g.k2 > 0.0, g.k2, 1.0), 0.0)
    kdotu = kx * v.u1.coeffs + ky * v.u2.coeffs
    c1 = v.u1.coeffs - kx * kdotu * factor
    c2 = v.u2.coeffs - ky * kdotu * factor
    return VectorField2(
        SpectralField2(g, c1, bool(abs(c1[0, 0]) == 0.0)),
        SpectralField2(g, c2, bool(abs(c2[0, 0]) == 0.0)),
    )


def dealias(f):
    """Zero modes with |mx| > nx/3 or |my| > ny/3 (2/3-rule truncation).

    Accepts 1D and 2D spectral fields; idempotent.
    """
    if isinstance(f, SpectralField2):
        return SpectralField2(f.grid, f.coeffs * f.grid.dealias_mask, f.mean_free)
    if isinstance(f, SpectralField1):
        return SpectralField1(f.grid, f.coeffs * f.grid.dealias_mask, f.mean_free)
    raise TypeError(f"dealias expects a spectral field, got {type(f).__name__}")


# -- pseudo-spectral building blocks on raw coefficient arrays ------------
#
# The time steppers work on bare half-spectrum arrays to avoid wrapper
# churn in hot loops; these helpers keep that code in one place.


def stream_velocity(omega_c: np.ndarray, grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    """Velocity coefficients perp_grad(inv_laplacian(omega)) of the dealiased vorticity."""
    psi = grid.inv_minus_k2 * (omega_c * grid.dealias_mask)
    u1 = -(1j * grid.ky)[None, :] * psi
    u2 = (1j * grid.kx)[:, None] * psi
    return u1, u2


def transport_coeffs(f_c: np.ndarray, u1: np.ndarray, u2: np.ndarray, grid: Grid2) -> np.ndarray:
    """Coefficients of -u.grad(f) for prescribed physical velocity samples."""
    mask = grid.dealias_mask
    fc = f_c * mask
    fx = to_values((1j * grid.kx)[:, None] * fc)
    fy = to_values((1j * grid.ky)[None, :] * fc)
    adv = to_coeffs(u1 * fx + u2 * fy)
    adv *= mask
    return -adv


def gradient_sup(f_c: np.ndarray, grid: Grid2) -> float:
    """Max of |grad f| over the collocation points."""
    gx = to_values((1j * grid.kx)[:, None] * f_c)
    gy = to_values((1j * grid.ky)[None, :] * f_c)
    return float(np.max(np.hypot(gx, gy)))
