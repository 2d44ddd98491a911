"""Flow maps, winding diagnostics, and passive-scalar mixing tools.

Particles carry both wrapped positions and lifts to the universal cover;
winding numbers and Jacobian checks operate on the lifts so that wrapping
never introduces jumps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from dataclasses import field as dc_field

import numpy as np

from .fields import SpectralField2, VectorField2, Workspace, l2_inner
from .grids import TWO_PI, Grid2
from .operators import dealias, stream_velocity, transport_coeffs
from .stepping import cfl_dt, check_schedule, march, rk4_step


class VelocitySampler:
    """Evaluate a velocity field at arbitrary points.

    The field is oversampled onto a doubled grid and interpolated with
    periodic cubic splines, on every grid size; exact point values are
    :meth:`eulerlab.fields.VectorField2.eval_at`'s.  The spline coefficients
    come straight from the velocity's half spectrum: zero-padded, divided by
    the cubic B-spline symbol (4 + 2 cos theta) / 6 on each axis of the fine
    grid (the periodic prefilter is diagonal in Fourier space; M. Unser,
    "Splines: a perfect fit for signal and image processing", IEEE Signal
    Processing Magazine, 1999) and transformed once.

    The spline is evaluated by a numpy stencil gather.  The coefficients of
    both components sit in one periodically padded array, one row and
    column before and two after, so every 4x4 stencil is in bounds.  Per
    axis a point is scaled to fine-grid units and wrapped into [0, n), its
    cell and fraction y give the four B-spline weights, and the sixteen
    taps ``(c * wx[a]) * wy[b]`` are summed in tap order from +0.0; the two
    components go in turn through one (16, p) scratch of tap indices and one
    of tap values.
    Every one of those operations is the one scipy's order-3 spline
    interpolation performs in ``grid-wrap`` mode with its prefilter off, so
    the samples have the same bits as that interpolator's (the tests check
    it); no scipy subpackage is loaded.  A non-finite point raises
    ``ValueError``.

    With a workspace ``work`` the spline arrays and the sampling scratch
    live in it, so a sampler is valid only until the next one is built in
    the same workspace.  The markers of a 2D Euler run take one RK4 step,
    4th-order in time, per two flow steps, with a sampler at the step's end
    and one at its mid-time, a cubic Hermite value in time (dense output,
    Hairer, Norsett and Wanner, *Solving ODEs I*, section II.6; see
    :func:`eulerlab.euler2d.run`).  It builds them in turn in one workspace
    (:class:`MarkerTrack`); the end's serves that step's last stage and the
    next step's first.
    """

    def __init__(self, grid: Grid2, u1_coeffs: np.ndarray, u2_coeffs: np.ndarray,
                 work: Workspace | None = None):
        self.grid = grid
        self._work = work = Workspace() if work is None else work
        n1, n2 = 2 * grid.nx, 2 * grid.ny
        spline = work.array("sampler.spline", (2, n1 + 3, n2 + 3))
        for i, c in enumerate((u1_coeffs, u2_coeffs)):
            _spline_coeffs(grid, c, work, spline[i, 1:-2, 1:-2])
        _pad_periodic(spline)
        # one flat row per component
        self._spline, self._cols = spline.reshape(2, -1), spline.shape[2]
        # flat offsets of a stencil's 16 taps, row-major: (16, 1)
        self._taps = (np.arange(4)[:, None] * self._cols + np.arange(4)).reshape(16, 1)
        self._scale = np.array([[n1 / grid.lx], [n2 / grid.ly]])
        self._period = np.array([[n1], [n2]])

    def __call__(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Velocities at (p, 2) points, written into ``out`` when given."""
        if out is None:
            out = np.empty((points.shape[0], 2))
        work, p = self._work, points.shape[0]
        # per axis (rows): the fine-grid coordinate, wrapped into [0, n] by
        # np.mod's own steps (fmod, then + n where negative) at a quarter of
        # its cost; only the sign of a zero differs, which nothing below
        # reads.  A tiny negative coordinate rounds up to n, which the cell
        # index wraps.
        x = np.multiply(points.T, self._scale, out=work.array("sampler.coords", (2, p)))
        if not np.isfinite(x).all():
            raise ValueError("non-finite sample point")
        np.fmod(x, self._period, out=x)
        np.add(x, self._period, out=x, where=x < 0.0)
        cell = np.floor(x, out=work.array("sampler.floor", (2, p)))
        index = work.array("sampler.index", (2, p), np.intp)
        np.copyto(index, cell, casting="unsafe")
        np.remainder(index, self._period, out=index)
        y = np.subtract(x, cell, out=x)
        w = _bspline_weights(y, np.subtract(1.0, y, out=cell),
                             work.array("sampler.weights", (2, 4, p)))
        # flat index of each stencil's first tap in the padded array
        np.multiply(index[0], self._cols, out=index[0])
        index[0] += index[1]
        taps = np.add(self._taps, index[0], out=work.array("sampler.tap_index", (16, p), np.intp))
        # one component at a time through the same tap values
        v = work.array("sampler.taps", (16, p))
        v4 = v.reshape(4, 4, p)
        for spline, o in zip(self._spline, out.T):
            spline.take(taps, out=v, mode="clip")
            np.multiply(v4, w[0][:, None, :], out=v4)
            np.multiply(v4, w[1][None, :, :], out=v4)
            # in tap order from +0.0, so sixteen negative zeros give +0.0
            np.add.reduce(v, axis=0, out=o, initial=0.0)
        return out


def _bspline_weights(y: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The four cubic B-spline weights of the fractions ``y`` (z = 1 - y) into
    ``w[:, 0..3]``, with the operations and their order of scipy's order-3
    spline interpolation: z^3/6, (y^2 (y - 2) 3 + 4)/6, the same in z, and
    the rest of 1."""
    w0, w1, w2, w3 = (w[:, a] for a in range(4))
    np.multiply(z, z, out=w0)
    w0 *= z
    w0 /= 6.0
    for wa, s in ((w1, y), (w2, z)):
        np.multiply(s, s, out=w3)
        w3 *= np.subtract(s, 2.0, out=wa)
        w3 *= 3.0
        w3 += 4.0
        np.divide(w3, 6.0, out=wa)
    np.subtract(1.0, w0, out=w3)
    w3 -= w1
    w3 -= w2
    return w


def _pad_periodic(out: np.ndarray) -> None:
    """Around the interior ``out[..., 1:-2, 1:-2]`` of each component, its
    periodic copies: one row and column before it and two after."""
    out[:, 1:-2, 0] = out[:, 1:-2, -3]
    out[:, 1:-2, -2:] = out[:, 1:-2, 1:3]
    out[:, 0] = out[:, -3]
    out[:, -2:] = out[:, 1:3]


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


def _spline_coeffs(grid: Grid2, coeffs: np.ndarray, work: Workspace, out: np.ndarray) -> None:
    """Cubic spline coefficients of a field on the doubled grid, into ``out``
    (a (2 nx, 2 ny) view, which may be strided); the scratch is in ``work``.

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
    np.fft.irfft(xpass, 2 * ny, axis=1, norm="forward", out=out)


def check_lattice(m: int) -> None:
    """Reject a marker lattice with fewer than 2 markers per direction."""
    if m < 2:
        raise ValueError("lattice needs m >= 2 per direction")


@dataclass
class ParticleSet:
    """Marker lifts to the universal cover (and the t=0 lifts); the positions
    are the lifts wrapped into the fundamental domain."""

    lifts: np.ndarray
    lifts0: np.ndarray
    t: float
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self) -> None:
        if self.count < 4:
            raise ValueError("at least 4 particles are required")

    @classmethod
    def lattice(cls, m: int, lx: float = TWO_PI, ly: float = TWO_PI) -> "ParticleSet":
        """Uniform m-by-m marker lattice over the fundamental domain."""
        check_lattice(m)
        x = np.arange(m) * (lx / m)
        y = np.arange(m) * (ly / m)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        pos = np.column_stack([xx.ravel(), yy.ravel()])
        return cls(pos, pos.copy(), 0.0, lx, ly)

    @property
    def count(self) -> int:
        return self.lifts.shape[0]

    @property
    def positions(self) -> np.ndarray:
        return self.wrapped(self.lifts)

    @property
    def lattice_shape(self) -> tuple[int, int]:
        """(m, m) for a set of m^2 markers, as :meth:`lattice` makes."""
        m = math.isqrt(self.count)
        if m * m != self.count:
            raise ValueError(f"{self.count} markers do not form a square lattice")
        return m, m

    def wrapped(self, lifts: np.ndarray) -> np.ndarray:
        out = lifts.copy()
        out[:, 0] %= self.lx
        out[:, 1] %= self.ly
        return out


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


def _as_sampler(velocity_source):
    if isinstance(velocity_source, VectorField2):
        u = velocity_source
        velocity_source = VelocitySampler(u.grid, u.u1.coeffs, u.u2.coeffs)
    if isinstance(velocity_source, VelocitySampler):
        # callable too, but on points alone: not a (t, points) callable
        return lambda _t, pts: velocity_source(pts)
    if callable(velocity_source):
        return velocity_source
    raise TypeError("velocity_source must be a VectorField2, sampler, or callable")


def _check_dt(dt: float) -> None:
    """Reject a step that never advances (zero, negative, NaN) or is infinite."""
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")


def advect(particles: ParticleSet, velocity_source, dt: float,
           n_steps: int = 1) -> ParticleSet:
    """March particle lifts with RK4; positions are re-wrapped afterwards.

    ``velocity_source`` is a steady VectorField2, a VelocitySampler, or a
    callable (t, points) -> velocities for time-dependent flows.  The lifts
    take ``n_steps`` steps of ``dt`` on :func:`march`, ended by the stop: the
    summed steps can miss n_steps * dt by more than 1e-12 at long horizons.
    """
    _check_dt(dt)
    vel = _as_sampler(velocity_source)
    t0 = particles.t

    def rhs(t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        return vel(t0 + t, y)

    t, lifts = march(rhs, particles.lifts.copy(), math.inf, lambda t, y: dt,
                     stop=lambda t, y: t > (n_steps - 0.5) * dt)
    return ParticleSet(lifts, particles.lifts0.copy(), t0 + t, particles.lx, particles.ly)


class MarkerTrack:
    """Marker lifts stepped by RK4 on the flow's step boundaries (the scheme
    is described in :func:`eulerlab.euler2d.run`).

    :meth:`boundary` takes each boundary the flow reaches: its time, its
    vorticity coefficients and their tendency, the first stage of the step
    that starts there.  The track keeps copies of the current marker step's
    boundaries before the latest, at most two, and the sampler at the lifts'
    time; the copies, the marker RK4 buffers and the samplers live in one
    workspace.
    """

    def __init__(self, grid: Grid2, lifts: np.ndarray):
        self.grid = grid
        self.lifts = lifts
        self.work = Workspace()
        # the boundaries of the current marker step before the latest one:
        # (t, [coefficients, tendency])
        self.nodes = []
        self.free = [self.work.array(("markers.node", i), (2, *grid.coeff_shape),
                                     np.complex128) for i in range(2)]
        self.sampler = None  # the velocity at the lifts' time

    def boundary(self, t: float, c: np.ndarray, k: np.ndarray, end: bool) -> None:
        """Take the flow's boundary at time t, with coefficients ``c`` and
        tendency ``k``; ``end`` ends the marker step there.  A boundary the
        track holds already is ignored."""
        nodes = self.nodes
        if nodes and t == nodes[-1][0]:
            return
        if not nodes:
            self.sampler = self._sampler(c)
        elif end or len(nodes) == 2:
            self._step(nodes + [(t, (c, k))])
            self.free.extend(block for _, block in nodes)
            nodes.clear()
        block = self.free.pop()
        block[0], block[1] = c, k
        nodes.append((t, block))

    def _sampler(self, c: np.ndarray) -> VelocitySampler:
        uc = tuple(self.work.array(("markers.uc", i), self.grid.coeff_shape, np.complex128)
                   for i in range(2))
        return VelocitySampler(self.grid, *stream_velocity(c, self.grid, uc), self.work)

    def _hermite(self, nodes: list, offset: float) -> np.ndarray:
        """Vorticity coefficients at ``offset`` past the first of ``nodes``."""
        for (ta, a), (tb, b) in zip(nodes, nodes[1:]):
            h = tb - ta
            if offset <= h:
                break
            offset -= h
        s = offset / h
        shape = self.grid.coeff_shape
        mid = self.work.array("markers.mid", shape, np.complex128)
        tmp = self.work.array("markers.tmp", shape, np.complex128)
        np.multiply((1.0 + 2.0 * s) * (1.0 - s) ** 2, a[0], out=mid)
        for weight, f in ((s * s * (3.0 - 2.0 * s), b[0]), (h * s * (1.0 - s) ** 2, a[1]),
                          (h * s * s * (s - 1.0), b[1])):
            mid += np.multiply(weight, f, out=tmp)
        return mid

    def _step(self, nodes: list) -> None:
        """One RK4 step of the lifts across ``nodes``, from the first to the last."""
        dt = sum(tb - ta for (ta, _), (tb, _) in zip(nodes, nodes[1:]))
        # rk4_step asks for stage 1 at the start, 2 and 3 at the mid-time and
        # 4 at the end; None keeps the sampler, and the end's stays for the
        # next step's stage 1
        coeffs = iter((None, self._hermite(nodes, 0.5 * dt), None, nodes[-1][1][0]))

        def rhs(t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
            c = next(coeffs)
            if c is not None:
                self.sampler = self._sampler(c)
            return self.sampler(y, out)

        self.lifts = rk4_step(rhs, nodes[0][0], self.lifts, dt, work=self.work)


# -- lattice differential diagnostics -----------------------------------------


def _central_diff(d: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    if order == 2:
        return (np.roll(d, -1, axis=axis) - np.roll(d, 1, axis=axis)) / (2 * h)
    if order == 6:
        return (45.0 * (np.roll(d, -1, axis=axis) - np.roll(d, 1, axis=axis))
                - 9.0 * (np.roll(d, -2, axis=axis) - np.roll(d, 2, axis=axis))
                + (np.roll(d, -3, axis=axis) - np.roll(d, 3, axis=axis))) / (60 * h)
    raise ValueError("central differences of order 2 or 6 only")


def _lattice_gradient(p: ParticleSet, order: int = 2) -> np.ndarray:
    """Gradient of the flow map by wrap-aware central differences.

    Differencing the lift displacement d = lift - lift0 (periodic over the
    lattice) and adding the identity avoids jumps at the wrap seam.
    Returns an array of shape (mx, my, 2, 2) whose [..., i, j] entry is
    dPhi_i/dx_j.
    """
    mx, my = p.lattice_shape
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


def jacobian_det(particles: ParticleSet) -> dict:
    """Check incompressibility of the lattice flow map.

    Returns max |det grad Phi - 1| and the sup of the gradient magnitude.
    A non-positive determinant anywhere means the lattice has folded over
    (spacing too coarse for the flow) and is reported as an error.
    """
    grad = _lattice_gradient(particles)
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
    """Winding spread over time, from a run result or a ParticleSet list."""
    snapshots = getattr(source, "marker_snapshots", source)
    if not snapshots:
        raise ValueError("no marker snapshots available for winding")
    recs = [winding(p) for p in snapshots]
    return (np.array([r.t for r in recs]),
            np.array([r.spread for r in recs]))


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

    def rhs(t: float, c: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        return transport_coeffs(c, u1v, u2v, grid, out, work)

    times, rows, fields = [], [], []

    def emit(t: float, c: np.ndarray, step: int, k1) -> None:
        times.append(t)
        if phis:
            # u . grad f is -k1, the first stage of the next step; at t_end no
            # step follows, and the last record evaluates it
            k1 = rhs(t, c, None) if k1 is None else k1
            adv = SpectralField2(grid, np.negative(k1))
            rows.append([l2_inner(adv, phi) for phi in phis])
        if store_fields:
            fields.append(SpectralField2.from_coeffs(grid, c))

    _, c = march(rhs, dealias(f0).coeffs.copy(), t_end, lambda t, c: dt_cfl,
                 diag_every, emit, work=work)
    final = SpectralField2.from_coeffs(grid, c)
    pair = np.array(rows).T if phis else np.zeros((0, len(times)))
    return MixingResult(times=np.array(times), pairings=pair,
                        final=final, fields=fields)
