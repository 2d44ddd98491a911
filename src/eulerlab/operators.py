"""Spectral calculus on periodic fields: derivatives, inverse Laplacian,
Hilbert transform, Biot-Savart velocity recovery, Leray projection, and
2/3-rule dealiasing, with the multipliers of :mod:`eulerlab.grids`."""

from __future__ import annotations

import math

import numpy as np

from .fields import (SpectralField, SpectralField1, SpectralField2, VectorField2, Workspace,
                     to_coeffs, to_values)
from .grids import Grid2


def dx(f: SpectralField2) -> SpectralField2:
    return SpectralField2(f.grid, f.grid.ikx * f.coeffs)


def dy(f: SpectralField2) -> SpectralField2:
    return SpectralField2(f.grid, f.grid.iky * f.coeffs)


def laplacian(f: SpectralField2) -> SpectralField2:
    return SpectralField2(f.grid, -f.grid.k2 * f.coeffs)


def inv_laplacian(f: SpectralField2) -> SpectralField2:
    """Solve Laplace(g) = f for the mean-free g; requires mean-free input."""
    if not f.mean_free:
        raise ValueError("inv_laplacian: nonzero mean")
    return SpectralField2(f.grid, f.grid.inv_minus_k2 * f.coeffs)


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
    return SpectralField1(f.grid, f.grid.hilbert * f.coeffs)


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
    kdotu = kx * v.u1.coeffs + ky * v.u2.coeffs
    c1 = v.u1.coeffs + kx * kdotu * g.inv_minus_k2
    c2 = v.u2.coeffs + ky * kdotu * g.inv_minus_k2
    return VectorField2(SpectralField2(g, c1), SpectralField2(g, c2))


def dealias(f: SpectralField) -> SpectralField:
    """Zero modes with |mx| > nx/3 or |my| > ny/3 (2/3-rule truncation).

    Accepts 1D and 2D spectral fields; idempotent.
    """
    if not isinstance(f, SpectralField):
        raise TypeError(f"dealias expects a spectral field, got {type(f).__name__}")
    return type(f)(f.grid, f.coeffs * f.grid.dealias_mask)


# -- pseudo-spectral building blocks on raw coefficient arrays ------------
#
# The time steppers work on bare half-spectrum arrays to avoid wrapper
# churn in hot loops; these helpers keep that code in one place.  Each
# writes its result into ``out`` when given one (and returns it), and keeps
# its temporaries in ``work`` (a :class:`~eulerlab.fields.Workspace`), so a
# stage that passes both allocates no grid-sized array of its own.


def _stream_function(omega_c: np.ndarray, grid: Grid2, out: np.ndarray) -> np.ndarray:
    """Coefficients inv_laplacian(omega) of the dealiased vorticity, into ``out``."""
    psi = np.multiply(omega_c, grid.dealias_mask, out=out)
    return np.multiply(grid.inv_minus_k2, psi, out=psi)


def _velocity_component(psi_c: np.ndarray, grid: Grid2, i: int,
                        out: np.ndarray) -> np.ndarray:
    """Component ``i`` of perp_grad(psi), -dpsi/dy or dpsi/dx, into ``out``
    (which may be ``psi_c`` itself)."""
    return np.multiply(-grid.iky if i == 0 else grid.ikx, psi_c, out=out)


def stream_velocity(omega_c: np.ndarray, grid: Grid2,
                    out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Velocity coefficients perp_grad(inv_laplacian(omega)) of the dealiased vorticity."""
    if out is None:
        out = (np.empty(grid.coeff_shape, np.complex128),
               np.empty(grid.coeff_shape, np.complex128))
    u1, u2 = out
    psi = _stream_function(omega_c, grid, u2)
    return _velocity_component(psi, grid, 0, u1), _velocity_component(psi, grid, 1, u2)


def _scratch(grid: Grid2, work: Workspace) -> tuple:
    """The 2D stage's scratch in ``work``: one complex coefficient array and two
    real sample arrays (see :class:`~eulerlab.fields.Workspace`)."""
    return (work.array("scratch.c", grid.coeff_shape, np.complex128),
            *(work.array(("scratch.v", i), grid.shape) for i in range(2)))


def transport_coeffs(f_c: np.ndarray, u1: np.ndarray, u2: np.ndarray, grid: Grid2,
                     out: np.ndarray | None = None,
                     work: Workspace | None = None) -> np.ndarray:
    """Dealiased coefficients of -u.grad(f) for prescribed physical velocity
    samples.  ``f_c`` must be dealiased already, as every stepped state is:
    it starts dealiased, and so is every tendency."""
    work = Workspace() if work is None else work
    d, fx, fy = _scratch(grid, work)
    fx = to_values(np.multiply(grid.ikx, f_c, out=d), fx)
    fy = to_values(np.multiply(grid.iky, f_c, out=d), fy)
    np.multiply(u1, fx, out=fx)
    np.multiply(u2, fy, out=fy)
    adv = to_coeffs(np.add(fx, fy, out=fx), out)
    adv *= grid.dealias_mask
    return np.negative(adv, out=adv)


def gradient_sup(f_c: np.ndarray, grid: Grid2, work: Workspace) -> float:
    """Max of |grad f| over the collocation points, with the gradient samples
    in the stage's scratch of ``work`` (see :class:`~eulerlab.fields.Workspace`).

    The same number as ``max(hypot(fx, fy))``: ``hypot`` runs only at the
    points whose fx^2 + fy^2 lies within 2^-48 of the largest (rounding in
    the squares and in ``hypot`` is far below that), and over every point
    when the squares overflow or underflow.
    """
    d, fx, fy = _scratch(grid, work)
    fx = to_values(np.multiply(grid.ikx, f_c, out=d), fx)
    fy = to_values(np.multiply(grid.iky, f_c, out=d), fy)
    with np.errstate(over="ignore", under="ignore"):
        sq = np.multiply(fx, fx, out=work.array("gradient.sq", grid.shape))
        sq += np.multiply(fy, fy, out=work.array("gradient.sq_y", grid.shape))
    top = float(np.max(sq))
    if not 1e-280 < top < math.inf:
        return float(np.max(np.hypot(fx, fy, out=fx)))
    near = np.flatnonzero(sq >= top * (1.0 - 2.0 ** -48))
    return float(np.max(np.hypot(fx.ravel()[near], fy.ravel()[near])))
