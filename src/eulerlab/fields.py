"""Real periodic scalar/vector fields stored as half-spectrum Fourier coefficients.

Every real field, 1D and 2D, is held as the output of ``numpy.fft.rfftn``:
2D coefficients have shape ``(nx, ny//2 + 1)`` (x modes in FFT ordering,
y modes 0..ny/2) and 1D coefficients shape ``(n//2 + 1,)``.  One base class,
:class:`SpectralField`, carries the arithmetic of both; the 1D and 2D
fields add only point evaluation.  The modes with negative last index are
the conjugates of the stored ones and are never held, so a field is real
by construction.  Transforms use numpy's ``norm="forward"`` convention, so
the first coefficient is the mean of the field.  With the grid's Parseval
``weight`` w (2 on the interior columns of the last axis, 1 on mode 0 and
on the Nyquist mode) and its ``measure`` (lx * ly, or the length in 1D)

    integral of f^2 over the cell  ==  measure * sum(w * |coeffs|^2).

A coefficient on the Nyquist row mx = -nx/2 or the Nyquist column
my = ny/2 stands for the mode its index names; point evaluation reads it
that way, and the inverse transform keeps only the part of it that is real
on the grid.  The Fourier multipliers and their Nyquist rule live on the
grids (:mod:`eulerlab.grids`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid1, Grid2

#: relative threshold below which a mean coefficient counts as zero
MEAN_TOL = 1e-13

_EVAL_CHUNK = 4096


class Workspace:
    """Preallocated arrays of one run, by name.

    ``array(name, shape, dtype)`` returns the same array for a name on every
    call, zero-filled when first made (and made anew if the shape or dtype
    changes).  Names are namespaced by their users: ``"rk4..."`` for the
    integrator (:mod:`eulerlab.stepping`), ``"stage..."`` for what a 2D
    stage keeps until the next one (its velocity samples, which the CFL
    rule reads), ``"scratch..."`` for the 2D stage's scratch,
    ``"sampler..."`` for the marker sampler, ``"casimir..."`` and
    ``"gradient..."`` for what the diagnostics reductions need beyond the
    scratch, and ``"run..."`` for what a run keeps between its callbacks.

    The scratch is one complex coefficient array ``"scratch.c"`` and two
    real sample arrays ``("scratch.v", 0)`` and ``("scratch.v", 1)``: the
    stream function and the gradient samples of
    :func:`eulerlab.operators.transport_coeffs`.  It is dead from the end of
    one stage to the start of the next, where :func:`eulerlab.stepping.march`
    runs its callbacks, so whatever runs there may keep its temporaries in
    it: the Casimir ladder of :func:`eulerlab.stepping.integer_powers` and
    :func:`eulerlab.operators.gradient_sup` do, in every 2D run.
    """

    def __init__(self) -> None:
        self._arrays: dict = {}

    def array(self, name, shape: tuple, dtype=np.float64) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.zeros(shape, dtype)
        return a


def to_coeffs(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Physical samples -> half-spectrum Fourier coefficients (1D or 2D)."""
    return np.fft.rfftn(values, norm="forward", out=out)


def to_values(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum Fourier coefficients -> physical samples (even length).

    numpy's ``irfftn`` makes one complex temporary of the coefficient shape
    for the passes over the leading axes, even with ``out``.
    """
    return np.fft.irfftn(coeffs, norm="forward", out=out)


def _snap_mean(c: np.ndarray) -> np.ndarray:
    """Set a round-off-level mean coefficient of ``c`` to exactly zero, in place."""
    if abs(c.flat[0]) <= MEAN_TOL * float(np.max(np.abs(c))):
        c.flat[0] = 0.0
    return c


def _normalize(coeffs: np.ndarray) -> np.ndarray:
    """Cast to complex128 and snap a round-off-level mean to exactly zero."""
    return _snap_mean(np.ascontiguousarray(coeffs, dtype=np.complex128).copy())


def mode_power(grid: Grid1 | Grid2, coeffs: np.ndarray) -> np.ndarray:
    """w * |coeffs|^2 per stored mode; it sums to the mean square of the field."""
    re, im = coeffs.real, coeffs.imag
    return grid.weight * (re * re + im * im)


@dataclass(frozen=True)
class SpectralField:
    """Real field held as its half spectrum, shape ``grid.coeff_shape``: what
    the 1D and 2D fields share.  Immutable; operations return new fields of
    the same class."""

    grid: Grid1 | Grid2
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.grid.coeff_shape:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not match "
                             f"grid {self.grid.coeff_shape}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_values(cls, grid: Grid1 | Grid2, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
        return cls(grid, _normalize(to_coeffs(values)))

    @classmethod
    def from_coeffs(cls, grid: Grid1 | Grid2, coeffs: np.ndarray) -> "SpectralField":
        return cls(grid, _normalize(coeffs))

    @classmethod
    def zeros(cls, grid: Grid1 | Grid2) -> "SpectralField":
        return cls(grid, np.zeros(grid.coeff_shape, dtype=np.complex128))

    # -- views and reductions -------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Physical samples on the collocation grid, shape ``grid.shape``."""
        return to_values(self.coeffs)

    @property
    def mean(self) -> float:
        return float(self.coeffs.flat[0].real)

    @property
    def mean_free(self) -> bool:
        """Whether the mean coefficient is exactly zero (the constructors
        from values and coefficients snap a round-off-level mean to zero)."""
        return bool(self.coeffs.flat[0] == 0)

    def norm_l2(self) -> float:
        """Domain-integral L2 norm, sqrt(integral f^2)."""
        g = self.grid
        return float(np.sqrt(g.measure * np.sum(mode_power(g, self.coeffs))))

    def norm_inf(self) -> float:
        """Max |f| over collocation points (a lower bound for the true sup)."""
        return float(np.max(np.abs(self.values)))

    def project_mean_free(self) -> "SpectralField":
        c = self.coeffs.copy()
        c.flat[0] = 0.0
        return type(self)(self.grid, c)

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other: "SpectralField", sign: float) -> "SpectralField":
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        return type(self)(self.grid, self.coeffs + sign * other.coeffs)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._binary(other, 1.0)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._binary(other, -1.0)

    def __mul__(self, scalar: float) -> "SpectralField":
        return type(self)(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * -1.0


class SpectralField2(SpectralField):
    """Real scalar field on a :class:`Grid2`, half spectrum indexed ``[mx, my]``."""

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """
        Evaluate the trigonometric interpolant at (p, 2) points: Re of the sum
        over the half spectrum of w * c * e^{i k.x}, where the Parseval weight
        w adds the conjugate of each interior column.
        """
        points = np.asarray(points, dtype=np.float64)
        g = self.grid
        out = np.empty(points.shape[0])
        wc = self.coeffs * g.weight
        for start in range(0, points.shape[0], _EVAL_CHUNK):
            sl = slice(start, start + _EVAL_CHUNK)
            ex = np.exp(1j * np.outer(points[sl, 0], g.kx))
            ey = np.exp(1j * np.outer(points[sl, 1], g.ky))
            out[sl] = np.einsum("pk,kl,pl->p", ex, wc, ey).real
        return out


class SpectralField1(SpectralField):
    """Real scalar field on the circle (:class:`Grid1`), modes 0..n/2."""

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_1d(np.asarray(points, dtype=np.float64))
        nz = np.flatnonzero(self.coeffs)  # dealiased fields are 1/3 zeros
        k, cz = self.grid.k[nz], (self.grid.weight * self.coeffs)[nz]
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], _EVAL_CHUNK):
            sl = slice(start, start + _EVAL_CHUNK)
            ex = np.exp(1j * np.outer(points[sl], k))
            out[sl] = (ex @ cz).real
        return out


@dataclass(frozen=True)
class VectorField2:
    """Velocity-like pair of scalar fields (u1, u2) on a shared grid."""

    u1: SpectralField2
    u2: SpectralField2

    def __post_init__(self) -> None:
        if self.u1.grid != self.u2.grid:
            raise ValueError("vector components live on different grids")

    @classmethod
    def from_values(cls, grid: Grid2, v1: np.ndarray, v2: np.ndarray) -> "VectorField2":
        return cls(SpectralField2.from_values(grid, v1), SpectralField2.from_values(grid, v2))

    @property
    def grid(self) -> Grid2:
        return self.u1.grid

    @property
    def values(self) -> tuple[np.ndarray, np.ndarray]:
        return self.u1.values, self.u2.values

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate both components at (p, 2) points; returns (p, 2)."""
        pts = np.asarray(points, dtype=np.float64)
        return np.stack([self.u1.eval_at(pts), self.u2.eval_at(pts)], axis=1)

    def norm_l2(self) -> float:
        return float(np.hypot(self.u1.norm_l2(), self.u2.norm_l2()))

    def norm_inf(self) -> float:
        """Max of componentwise sup norms on the collocation grid."""
        return max(self.u1.norm_inf(), self.u2.norm_inf())

    def __add__(self, other: "VectorField2") -> "VectorField2":
        return VectorField2(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "VectorField2") -> "VectorField2":
        return VectorField2(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, scalar: float) -> "VectorField2":
        return VectorField2(self.u1 * scalar, self.u2 * scalar)

    __rmul__ = __mul__


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """Domain-integral L2 inner product of two real fields."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    cross = f.coeffs.real * g.coeffs.real + f.coeffs.imag * g.coeffs.imag
    return float(f.grid.measure * np.sum(f.grid.weight * cross))


def _resample_x(coeffs: np.ndarray, n_dst: int) -> np.ndarray:
    """Band-limited resampling (zero padding / truncation) along the full axis 0."""
    n_src = coeffs.shape[0]
    if n_src == n_dst:
        return coeffs
    out = np.zeros((n_dst,) + coeffs.shape[1:], dtype=np.complex128)
    h = min(n_src, n_dst) // 2
    # modes 0 .. h-1 and -1 .. -(h-1)
    out[:h] = coeffs[:h]
    out[n_dst - h + 1:] = coeffs[n_src - h + 1:]
    # shared Nyquist row m = -h: split on upsampling, fold on downsampling
    # (the half/half split keeps the field real because the source Nyquist
    # row is itself conjugate-symmetric along y)
    if n_dst > n_src:
        out[-h] = out[h] = 0.5 * coeffs[-h]
    else:
        out[-h] = coeffs[-h] + coeffs[h]
    return out


def _resample_y(coeffs: np.ndarray, n_dst: int) -> np.ndarray:
    """Band-limited resampling along the half axis 1 to ``n_dst`` samples.

    The source Nyquist column my = h stands for the modes +h and -h at
    once: upsampling keeps half of it at +h (the implied conjugate column
    carries the other half to -h); downsampling folds the column at -h,
    the conjugate of the stored column at +h with mx mirrored, onto +h.
    """
    n_src = 2 * (coeffs.shape[1] - 1)
    if n_src == n_dst:
        return coeffs
    out = np.zeros((coeffs.shape[0], n_dst // 2 + 1), dtype=np.complex128)
    h = min(n_src, n_dst) // 2
    out[:, :h] = coeffs[:, :h]
    if n_dst > n_src:
        out[:, h] = 0.5 * coeffs[:, h]
    else:
        mirror = (-np.arange(coeffs.shape[0])) % coeffs.shape[0]
        out[:, h] = coeffs[:, h] + np.conj(coeffs[mirror, h])
    return out


def resample_coeffs(coeffs: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Half spectrum of the same trigonometric interpolant on an (nx, ny) grid."""
    return _resample_y(_resample_x(coeffs, nx), ny)


def resample(field: SpectralField2, nx: int, ny: int) -> SpectralField2:
    """
    Re-express a field on an (nx, ny) grid over the same domain by spectral
    zero padding (upsampling) or mode truncation (downsampling).
    """
    g = field.grid
    return SpectralField2.from_coeffs(Grid2(nx, ny, g.lx, g.ly),
                                      resample_coeffs(field.coeffs, nx, ny))
