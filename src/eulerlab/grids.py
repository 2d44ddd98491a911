"""Periodic collocation grids and their precomputed wavenumber arrays."""

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


@dataclass(frozen=True)
class Grid2:
    """
    Doubly periodic collocation grid on [0, lx) x [0, ly).

    Arrays are indexed ``[ix, iy]`` (x along axis 0, y along axis 1).
    Coefficients are the half spectrum of ``numpy.fft.rfftn``, shape
    ``coeff_shape = (nx, ny//2 + 1)``: the x modes ``mx`` follow numpy FFT
    ordering 0, 1, ..., nx/2 - 1, -nx/2, ..., -1 and the y modes ``my`` run
    0, 1, ..., ny/2.  The radian wavenumber of mode m is 2*pi*m / l.
    ``weight`` is the Parseval weight of each y column: 2 on the interior
    columns, which stand for a mode and its conjugate, and 1 on my = 0 and
    on the Nyquist column my = ny/2.

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
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain lengths must be positive")

        mx = np.rint(np.fft.fftfreq(self.nx) * self.nx).astype(np.int64)
        my = np.arange(self.ny // 2 + 1)
        kx = (TWO_PI / self.lx) * mx.astype(np.float64)
        ky = (TWO_PI / self.ly) * my.astype(np.float64)
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2

        cut_x, cut_y = self.nx // 3, self.ny // 3
        mask = (np.abs(mx)[:, None] <= cut_x) & (np.abs(my)[None, :] <= cut_y)

        object.__setattr__(self, "mx", mx)
        object.__setattr__(self, "my", my)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "ky", ky)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "weight", _parseval_weight(self.ny))

        with np.errstate(divide="ignore"):
            inv = np.where(k2 > 0.0, -1.0 / np.where(k2 > 0.0, k2, 1.0), 0.0)
        object.__setattr__(self, "inv_minus_k2", inv)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the collocation values."""
        return (self.nx, self.ny)

    @property
    def coeff_shape(self) -> tuple[int, int]:
        """Shape of the half-spectrum coefficients."""
        return (self.nx, self.ny // 2 + 1)

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
    """Periodic grid with n points on the circle of length 2*pi.

    Coefficients are the half spectrum of ``numpy.fft.rfft``, modes
    ``m = 0, 1, ..., n/2``, with the Parseval ``weight`` of :class:`Grid2`.
    """

    n: int
    length: float = TWO_PI

    def __post_init__(self) -> None:
        _check_size(self.n, "n")
        if self.length <= 0:
            raise ValueError("length must be positive")
        m = np.arange(self.n // 2 + 1)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", (TWO_PI / self.length) * m.astype(np.float64))
        object.__setattr__(self, "dealias_mask", m <= self.n // 3)
        object.__setattr__(self, "weight", _parseval_weight(self.n))

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx
