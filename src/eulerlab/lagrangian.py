"""Flow maps, winding diagnostics, and passive-scalar mixing tools.

Particles carry both wrapped positions and lifts to the universal cover;
winding numbers, shear-stability metrics, and Jacobian checks all operate
on the lifts so that wrapping never introduces jumps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from dataclasses import field as dc_field

import numpy as np
from scipy import ndimage

from .fields import SpectralField2, VectorField2, Workspace, l2_inner
from .grids import TWO_PI, Grid2
from .operators import dealias, transport_coeffs
from .stepping import cfl_dt, check_schedule, march, rk4_step

# direct trigonometric summation is exact but quadratic in mode count;
# above this many modes velocities are sampled from a refined grid instead
_DIRECT_MODE_LIMIT = 64 * 64


class VelocitySampler:
    """Evaluate a velocity field at arbitrary points.

    Small grids use direct mode summation (exact); larger ones are
    oversampled onto a doubled grid and interpolated with periodic cubic
    splines.  The spline coefficients come straight from the velocity's
    half spectrum: zero-padded, divided by the cubic B-spline symbol
    (4 + 2 cos theta) / 6 on each axis of the fine grid (the periodic
    prefilter is diagonal in Fourier space; M. Unser, "Splines: a perfect
    fit for signal and image processing", IEEE Signal Processing Magazine,
    1999) and transformed once, so ``map_coordinates`` runs with its
    prefilter off.  The chosen method is exposed for metadata.

    With a workspace ``work`` the spline arrays and the sampling scratch
    live in it, so a sampler is valid only until the next one is built in
    the same workspace.
    """

    def __init__(self, grid: Grid2, u1_coeffs: np.ndarray, u2_coeffs: np.ndarray,
                 work: Workspace | None = None):
        self.grid = grid
        if grid.nx * grid.ny <= _DIRECT_MODE_LIMIT:
            self.method = "spectral"
            self._field = VectorField2(SpectralField2(grid, u1_coeffs, False),
                                       SpectralField2(grid, u2_coeffs, False))
        else:
            self.method = "bicubic"
            self._work = work = Workspace() if work is None else work
            self._v1, self._v2 = (_spline_coeffs(grid, c, work, ("sampler.v", i))
                                  for i, c in enumerate((u1_coeffs, u2_coeffs)))
            self._scale = (2 * grid.nx / grid.lx, 2 * grid.ny / grid.ly)

    @classmethod
    def from_field(cls, u: VectorField2) -> "VelocitySampler":
        return cls(u.grid, u.u1.coeffs, u.u2.coeffs)

    def __call__(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Velocities at (p, 2) points, written into ``out`` when given."""
        if out is None:
            out = np.empty((points.shape[0], 2))
        if self.method == "spectral":
            out[...] = self._field.eval_at(points)
            return out
        coords = self._work.array("sampler.coords", (2, points.shape[0]))
        for i in range(2):
            np.multiply(points[:, i], self._scale[i], out=coords[i])
        for i, v in enumerate((self._v1, self._v2)):
            ndimage.map_coordinates(v, coords, output=out[:, i], order=3, mode="grid-wrap",
                                    prefilter=False)
        return out


@functools.lru_cache(maxsize=8)
def _bspline_inverse_symbol(nx: int, ny: int) -> np.ndarray:
    """1 / B(theta_x) B(theta_y) on the half spectrum of an (nx, ny) grid, where
    B(theta) = (4 + 2 cos theta) / 6 is the symbol of the periodic cubic
    B-spline at the mode's phase step theta = 2 pi m / n.  Cached per grid
    and read-only."""
    bx = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(nx))) / 6.0
    by = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(ny // 2 + 1) / ny)) / 6.0
    inv = 1.0 / (bx[:, None] * by[None, :])
    inv.flags.writeable = False
    return inv


def _spline_coeffs(grid: Grid2, coeffs: np.ndarray, work: Workspace, name) -> np.ndarray:
    """Cubic spline coefficients of a field on the doubled grid, into ``work``.

    The same numbers as ``to_values(resample_coeffs(coeffs, 2 nx, 2 ny) *
    inverse symbol)``, computed over the nonzero part of the padded half
    spectrum only: its first ny/2 + 1 columns are zero-padded along x and
    prefiltered, transformed along x, and the y transform of all ny + 1
    columns (the rest of them zero) gives the values.
    """
    nx, ny = grid.nx, grid.ny
    cols, h = ny // 2 + 1, nx // 2
    # rows of the x-padded spectrum: the zero rows h+1 .. 2nx-h-1 are never written
    padded = work.array("sampler.padded", (2 * nx, cols), np.complex128)
    padded[:h] = coeffs[:h]
    padded[2 * nx - h + 1:] = coeffs[nx - h + 1:]
    padded[-h] = padded[h] = 0.5 * coeffs[-h]
    # the Nyquist column is split between +ny/2 and its implied conjugate
    np.multiply(0.5, padded[:, -1], out=padded[:, -1])
    np.multiply(padded, _bspline_inverse_symbol(2 * nx, 2 * ny)[:, :cols], out=padded)
    # columns cols .. ny of the x pass stay zero
    xpass = work.array("sampler.xpass", (2 * nx, ny + 1), np.complex128)
    np.fft.ifft(padded, axis=0, norm="forward", out=xpass[:, :cols])
    return np.fft.irfft(xpass, 2 * ny, axis=1, norm="forward",
                        out=work.array(name, (2 * nx, 2 * ny)))


def check_lattice(m: int) -> None:
    """Reject a marker lattice with fewer than 2 markers per direction."""
    if m < 2:
        raise ValueError("lattice needs m >= 2 per direction")


@dataclass
class ParticleSet:
    """Marker positions with their unwrapped lifts (and the t=0 lifts)."""

    positions: np.ndarray
    lifts: np.ndarray
    lifts0: np.ndarray
    t: float
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self) -> None:
        if self.positions.shape[0] < 4:
            raise ValueError("at least 4 particles are required")

    @classmethod
    def lattice(cls, m: int, lx: float = TWO_PI, ly: float = TWO_PI) -> "ParticleSet":
        """Uniform m-by-m marker lattice over the fundamental domain."""
        check_lattice(m)
        x = np.arange(m) * (lx / m)
        y = np.arange(m) * (ly / m)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        pos = np.column_stack([xx.ravel(), yy.ravel()])
        return cls(pos, pos.copy(), pos.copy(), 0.0, lx, ly)

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    def wrapped(self, lifts: np.ndarray) -> np.ndarray:
        out = lifts.copy()
        out[:, 0] %= self.lx
        out[:, 1] %= self.ly
        return out


@dataclass
class FlowMapSnapshot:
    """A lattice ParticleSet frozen at one time, with its initial spacing."""

    particles: ParticleSet
    h: float
    lattice_shape: tuple[int, int]

    @property
    def t(self) -> float:
        return self.particles.t


@dataclass
class WindingRecord:
    """Real-valued winding numbers (lift displacement over the x-period).

    Integer winding is the floor of the real value; both views are kept
    because smooth diagnostics want the real number while topological
    counts want the integer.
    """

    t: float
    numbers: np.ndarray
    spread: float

    @property
    def integer_numbers(self) -> np.ndarray:
        return np.floor(self.numbers).astype(int)


def _as_sampler(velocity_source, t: float):
    if isinstance(velocity_source, VectorField2):
        sampler = VelocitySampler.from_field(velocity_source)
        return lambda _t, pts: sampler(pts)
    if isinstance(velocity_source, VelocitySampler):
        return lambda _t, pts: velocity_source(pts)
    if callable(velocity_source):
        return velocity_source
    raise TypeError("velocity_source must be a VectorField2, sampler, or callable")


def advect(particles: ParticleSet, velocity_source, dt: float,
           n_steps: int = 1) -> ParticleSet:
    """March particle lifts with RK4; positions are re-wrapped afterwards.

    ``velocity_source`` is a steady VectorField2, a VelocitySampler, or a
    callable (t, points) -> velocities for time-dependent flows.
    """
    vel = _as_sampler(velocity_source, particles.t)

    def rhs(t: float, y: tuple, out: tuple) -> tuple:
        return (vel(t, y[0]),)

    lifts = particles.lifts.copy()
    t = particles.t
    work = Workspace()
    for _ in range(n_steps):
        (lifts,) = rk4_step(rhs, t, (lifts,), dt, work=work)
        t += dt
    out = ParticleSet(particles.wrapped(lifts), lifts, particles.lifts0.copy(),
                      t, particles.lx, particles.ly)
    return out


# -- lattice differential diagnostics -----------------------------------------


def _central_diff(d: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    if order == 2:
        return (np.roll(d, -1, axis=axis) - np.roll(d, 1, axis=axis)) / (2 * h)
    if order == 4:
        return (-np.roll(d, -2, axis=axis) + 8 * np.roll(d, -1, axis=axis)
                - 8 * np.roll(d, 1, axis=axis) + np.roll(d, 2, axis=axis)) / (12 * h)
    if order == 6:
        return (45.0 * (np.roll(d, -1, axis=axis) - np.roll(d, 1, axis=axis))
                - 9.0 * (np.roll(d, -2, axis=axis) - np.roll(d, 2, axis=axis))
                + (np.roll(d, -3, axis=axis) - np.roll(d, 3, axis=axis))) / (60 * h)
    raise ValueError("central differences of order 2, 4, or 6 only")


def _lattice_gradient(flowmap: FlowMapSnapshot, order: int = 2) -> np.ndarray:
    """Gradient of the flow map by wrap-aware central differences.

    Differencing the lift displacement d = lift - lift0 (periodic over the
    lattice) and adding the identity avoids jumps at the wrap seam.
    Returns an array of shape (mx, my, 2, 2) whose [..., i, j] entry is
    dPhi_i/dx_j.
    """
    p = flowmap.particles
    mx, my = flowmap.lattice_shape
    disp = (p.lifts - p.lifts0).reshape(mx, my, 2)
    hx = p.lx / mx
    hy = p.ly / my
    grad = np.empty((mx, my, 2, 2))
    for i in range(2):
        d = disp[:, :, i]
        grad[:, :, i, 0] = _central_diff(d, hx, 0, order)
        grad[:, :, i, 1] = _central_diff(d, hy, 1, order)
    grad[:, :, 0, 0] += 1.0
    grad[:, :, 1, 1] += 1.0
    return grad


def jacobian_det(flowmap: FlowMapSnapshot) -> dict:
    """Check incompressibility of the lattice flow map.

    Returns max |det grad Phi - 1| and the sup of the gradient magnitude.
    A non-positive determinant anywhere means the lattice has folded over
    (spacing too coarse for the flow) and is reported as an error.
    """
    grad = _lattice_gradient(flowmap)
    det = grad[:, :, 0, 0] * grad[:, :, 1, 1] - grad[:, :, 0, 1] * grad[:, :, 1, 0]
    if np.any(det <= 0.0):
        raise ValueError("lattice folding: refine the marker lattice")
    lam = float(np.max(np.abs(grad)))
    return {"max_abs_dev_from_1": float(np.max(np.abs(det - 1.0))),
            "grad_norm_inf": lam}


# -- winding and twisting ------------------------------------------------------


def winding(particles: ParticleSet) -> WindingRecord:
    """Real-valued winding numbers (x-lift displacement over the x-period)."""
    n = (particles.lifts[:, 0] - particles.lifts0[:, 0]) / particles.lx
    return WindingRecord(t=particles.t, numbers=n,
                         spread=float(np.max(n) - np.min(n)))


def twisting_series(source) -> tuple[np.ndarray, np.ndarray]:
    """Winding spread over time, from a run result or a snapshot list."""
    snapshots = getattr(source, "marker_snapshots", source)
    if not snapshots:
        raise ValueError("no marker snapshots available for winding")
    recs = [winding(s.particles if isinstance(s, FlowMapSnapshot) else s)
            for s in snapshots]
    return (np.array([r.t for r in recs]),
            np.array([r.spread for r in recs]))


def lagrangian_stability_metrics(source, u_star) -> dict:
    """Shear-relative drift metrics along a marker trajectory series.

    ``u_star`` maps y to the reference horizontal shear speed.  m1 measures
    how far particles have moved across shear lines (profile speed at the
    current wrapped height vs the initial one); m2 compares the x-lift
    against the straight-line drift t*u_star evaluated at the y-lift.
    Marker norms are lattice-averaged L2.
    """
    snapshots = getattr(source, "marker_snapshots", source)
    ts, m1, m2 = [], [], []
    for snap in snapshots:
        p = snap.particles if isinstance(snap, FlowMapSnapshot) else snap
        w = math.sqrt(1.0 / p.count)
        ustar_now = u_star(p.positions[:, 1])
        ustar_init = u_star(p.lifts0[:, 1] % p.ly)
        drift = p.lifts[:, 0] - p.t * u_star(p.lifts[:, 1]) - p.lifts0[:, 0]
        ts.append(p.t)
        m1.append(w * float(np.linalg.norm(ustar_now - ustar_init)))
        m2.append(w * float(np.linalg.norm(drift)))
    return {"t": np.array(ts), "m1": np.array(m1), "m2": np.array(m2)}


# -- passive scalars -----------------------------------------------------------


@dataclass
class MixingResult:
    times: np.ndarray
    pairings: np.ndarray  # shape (len(test_functions), len(times))
    final: SpectralField2
    fields: list = dc_field(default_factory=list)


def passive_scalar_evolve(u: VectorField2, f0: SpectralField2, t_end: float,
                          test_functions: list | None = None,
                          cfl: float = 0.4, diag_every: float = 0.5,
                          store_fields: bool = False) -> MixingResult:
    """Transport f0 by a steady divergence-free velocity.

    The advective pairing series (u . grad f, phi) is recorded for each
    test function phi at the diagnostic cadence; its decay (or failure to
    decay) is the mixing diagnostic.
    """
    if u.grid != f0.grid:
        raise ValueError("velocity and scalar live on different grids")
    check_schedule(cfl, diag_every)
    grid = f0.grid
    phis = test_functions or []
    u1v = u.u1.values
    u2v = u.u2.values
    dt_cfl = cfl_dt(grid, u1v, u2v, cfl)

    work = Workspace()

    def rhs(t: float, y: tuple, out: tuple) -> tuple:
        return (transport_coeffs(y[0], u1v, u2v, grid, out[0], work),)

    times, rows, fields = [], [], []

    def emit(t: float, y: tuple, step: int, k1) -> None:
        times.append(t)
        if phis:
            # u . grad f is -k1, the first stage of the next step; at t_end no
            # step follows, and the last record evaluates it
            k1 = rhs(t, y, (None,)) if k1 is None else k1
            adv = SpectralField2(grid, np.negative(k1[0]), True)
            rows.append([l2_inner(adv, phi) for phi in phis])
        if store_fields:
            fields.append(SpectralField2.from_coeffs(grid, y[0]))

    _, (c,) = march(rhs, (dealias(f0).coeffs.copy(),), t_end, lambda t, y: dt_cfl,
                    diag_every, emit, work=work)
    final = SpectralField2.from_coeffs(grid, c)
    pair = np.array(rows).T if phis else np.zeros((0, len(times)))
    return MixingResult(times=np.array(times), pairings=pair,
                        final=final, fields=fields)


def period_function(u, seeds, dt: float = 1e-3,
                    t_max: float = 200.0, tol: float = 1e-3) -> list[float]:
    """First-return times of trajectories seeded on closed orbits.

    ``u`` is a VectorField2, a sampler, or a callable (t, points).  A seed
    must first leave its neighborhood (10x tol) and then come back within
    ``tol`` in the torus metric; the return time is sharpened by a
    parabolic fit of the squared distance.  Seeds that never return within
    ``t_max`` (e.g. stagnation points) yield ``inf``.
    """
    vel = _as_sampler(u, 0.0)
    if isinstance(u, (VectorField2, VelocitySampler)):
        lx, ly = u.grid.lx, u.grid.ly
    else:
        lx = ly = TWO_PI

    def rhs(t: float, y: tuple, out: tuple) -> tuple:
        return (vel(t, y[0][None, :])[0],)

    work = Workspace()
    out = []
    for seed in seeds:
        seed = np.asarray(seed, dtype=np.float64)
        p = seed.copy()
        t = 0.0
        left = False
        d_hist = []
        period = math.inf
        while t < t_max:
            (p,) = rk4_step(rhs, t, (p,), dt, work=work)
            t += dt
            dx = (p[0] - seed[0] + lx / 2) % lx - lx / 2
            dy = (p[1] - seed[1] + ly / 2) % ly - ly / 2
            d = math.hypot(dx, dy)
            d_hist.append((t, d))
            if not left:
                left = d > 10.0 * tol
                continue
            if d < tol and len(d_hist) >= 3:
                (t0, d0), (t1, d1), (t2, d2) = d_hist[-3:]
                denom = d0 * d0 - 2 * d1 * d1 + d2 * d2
                if denom > 0:
                    period = t1 + 0.5 * dt * (d0 * d0 - d2 * d2) / denom
                else:
                    period = t1
                break
        out.append(float(period))
    return out


def gradient_growth(result, fit_window: tuple[float, float] | None = None) -> dict:
    """Sup-gradient growth of the scalars carried by an Euler run.

    Returns the recorded series for each transported scalar and, per
    scalar, the least-squares exponential rate of the series over
    ``fit_window`` (default: the whole run).
    """
    series = getattr(result, "scalar_gradients", None)
    if not series:
        raise ValueError("run carried no transported scalars")
    ts = np.array([rec.t for rec in result.diagnostics])
    out = {"t": ts, "series": {}, "rates": {}}
    for name, vals in series.items():
        vals = np.asarray(vals)
        out["series"][name] = vals
        lo, hi = fit_window if fit_window else (ts[0], ts[-1])
        m = (ts >= lo) & (ts <= hi) & (vals > 0)
        if np.count_nonzero(m) >= 2:
            slope, _ = np.polyfit(ts[m], np.log(vals[m]), 1)
            out["rates"][name] = float(slope)
        else:
            out["rates"][name] = 0.0
    return out
