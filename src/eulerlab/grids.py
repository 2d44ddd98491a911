"""Periodic collocation grids: wavenumbers, masks, Parseval weights and every
Fourier multiplier of the lab (``ikx``, ``iky``, ``inv_minus_k2``, ``ik``,
``hilbert``); no other module builds one.  Odd derivatives follow the
Nyquist rule (L. N. Trefethen, *Spectral Methods in MATLAB*, 2000, ch. 3):
ik is zero on the Nyquist mode of its axis, which is (-1)^j on the grid and
has a derivative that vanishes at every node.  The Hilbert symbol keeps its
Nyquist value, so that H^2 = -1 on the coefficients of a mean-free field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _check_size(n: int, name: str) -> None:
    if n < 8 or n % 2 != 0:
        raise ValueError(f"{name} must be an even integer >= 8, got {n}")


def _parseval_weight(n: int) -> np.ndarray:
    """Weights of the half-spectrum modes 0..n/2 in a Parseval sum."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


def _axis(n: int, length: float, half: bool) -> tuple:
    """Modes, wavenumbers, derivative symbol and 2/3-rule mask of one axis,
    over all n modes in FFT order or over the half axis 0..n/2."""
    m = np.arange(n // 2 + 1) if half else np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    k = (TWO_PI / length) * m.astype(np.float64)
    ik = 1j * k
    ik[n // 2] = 0.0  # the Nyquist mode, -n/2 on a full axis and n/2 on a half one
    return m, k, ik, np.abs(m) <= n // 3


@dataclass(frozen=True)
class Grid2:
    """
    Doubly periodic collocation grid on [0, lx) x [0, ly).

    Arrays are indexed ``[ix, iy]`` (x along axis 0, y along axis 1), values
    have ``shape`` (nx, ny) and the cell has area ``measure`` = lx * ly.
    Coefficients are the half spectrum of ``numpy.fft.rfftn``, shape
    ``coeff_shape = (nx, ny//2 + 1)``: the x modes ``mx`` follow numpy FFT
    ordering 0, 1, ..., nx/2 - 1, -nx/2, ..., -1 and the y modes ``my`` run
    0, 1, ..., ny/2.  The radian wavenumber of mode m is 2*pi*m / l.
    ``weight`` is the Parseval weight of each y column: 2 on the interior
    columns, which stand for a mode and its conjugate, and 1 on my = 0 and
    on the Nyquist column my = ny/2.  ``ikx`` (nx, 1) and ``iky`` (1, ny//2 + 1)
    broadcast against the coefficients; ``inv_minus_k2`` is -1/|k|^2, 0 at k = 0.

    Parameters
    ----------
    nx, ny : int
        Collocation counts per direction; even and >= 8.
    lx, ly : float
        Domain lengths (default 2*pi each).
    """

    nx: int
    ny: int
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self) -> None:
        _check_size(self.nx, "nx")
        _check_size(self.ny, "ny")
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):  # a NaN length fails too
            raise ValueError("domain lengths must be positive and finite")

        mx, kx, ikx, keep_x = _axis(self.nx, self.lx, half=False)
        my, ky, iky, keep_y = _axis(self.ny, self.ly, half=True)
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2

        object.__setattr__(self, "shape", (self.nx, self.ny))
        object.__setattr__(self, "coeff_shape", (self.nx, self.ny // 2 + 1))
        object.__setattr__(self, "measure", self.lx * self.ly)
        object.__setattr__(self, "mx", mx)
        object.__setattr__(self, "my", my)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "ky", ky)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "ikx", ikx[:, None])
        object.__setattr__(self, "iky", iky[None, :])
        object.__setattr__(self, "dealias_mask", keep_x[:, None] & keep_y[None, :])
        object.__setattr__(self, "weight", _parseval_weight(self.ny))

        with np.errstate(divide="ignore"):
            inv = np.where(k2 > 0.0, -1.0 / np.where(k2 > 0.0, k2, 1.0), 0.0)
        object.__setattr__(self, "inv_minus_k2", inv)

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def x(self) -> np.ndarray:
        """Collocation abscissae along x, shape (nx,)."""
        return np.arange(self.nx) * self.dx

    @property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (X, Y) coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.x, self.y, indexing="ij")


@dataclass(frozen=True)
class Grid1:
    """Periodic grid with n points on a circle of ``length`` (default 2*pi).

    Values have ``shape`` (n,), the circle has length ``measure``, and
    coefficients are the half spectrum of ``numpy.fft.rfft``, modes
    ``m = 0, 1, ..., n/2`` (``coeff_shape``), with the Parseval ``weight``
    of :class:`Grid2`, the derivative symbol ``ik`` and the Hilbert symbol
    ``hilbert`` = -i sgn(m).
    """

    n: int
    length: float = TWO_PI

    def __post_init__(self) -> None:
        _check_size(self.n, "n")
        if not 0 < self.length < np.inf:  # a NaN length fails too
            raise ValueError("length must be positive and finite")
        m, k, ik, keep = _axis(self.n, self.length, half=True)
        object.__setattr__(self, "shape", (self.n,))
        object.__setattr__(self, "coeff_shape", (self.n // 2 + 1,))
        object.__setattr__(self, "measure", self.length)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "ik", ik)
        object.__setattr__(self, "hilbert", -1j * np.sign(m))
        object.__setattr__(self, "dealias_mask", keep)
        object.__setattr__(self, "weight", _parseval_weight(self.n))

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx
