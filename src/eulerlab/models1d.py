"""1D vorticity-model solvers on the circle.

One family of models shares the state representation (H. Okamoto,
T. Sakajo and M. Wunsch, Nonlinearity 21, 2008):

    d(omega)/dt + a u d(omega)/dx = omega H(omega),   du/dx = H(omega),  mean(u) = 0

The names of :data:`MODELS` are aliases for a: ``clm`` is a = 0 (the
Constantin-Lax-Majda model) and ``degregorio`` is a = 1.  Runs step on
:func:`eulerlab.stepping.march`.

At a = 0 the model has a closed-form solution through the Riccati variable
z = H(omega) + i*omega (dz/dt = z^2/2), which this module uses as an
oracle: with that substitution

    omega(x, t)  = 4 omega0 / ((2 - t H(omega0))^2 + t^2 omega0^2)
    t_star       = 2 / max{ H(omega0)(x) : omega0(x) = 0 }

Runs monitor the sup norm (with local trigonometric refinement of the
grid max), its time integral, and the spectral tail, and can detect and
fit the blow-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import SpectralField1, Workspace, to_coeffs, to_values
from .grids import Grid1
from .operators import dealias, hilbert_transform
from .stepping import check_cfl, march, sup_abs

#: model name -> the transport coefficient a
MODELS = {"clm": 0.0, "degregorio": 1.0}


@dataclass(frozen=True)
class ModelState:
    """Vorticity of a 1D model at one instant."""

    omega: SpectralField1
    t: float


@dataclass
class BlowupReport:
    """Outcome of a monitored 1D run."""

    detected: bool
    t_star_estimate: float | None
    ts: np.ndarray
    omega_max_series: np.ndarray
    bkm_series: np.ndarray
    under_resolved: bool
    cap_reached: bool


@dataclass
class ModelRunResult:
    report: BlowupReport
    final: ModelState
    states: list[ModelState] = dc_field(default_factory=list)


# -- the right-hand side ------------------------------------------------------


def _rhs_coeffs(c: np.ndarray, grid: Grid1, a: float, u: np.ndarray | None = None) -> np.ndarray:
    """Dealiased omega * H(omega) - a u omega_x; with a != 0 the velocity
    samples go into ``u`` (a new array if none is given).

    At a = 0 neither u nor omega_x is transformed.  u is the mean-free
    antiderivative H(omega) / (ik) of H(omega), with zero at k = 0.
    """
    mask = grid.dealias_mask
    wc = c * mask
    hw = grid.hilbert * wc
    w, h = to_values(wc), to_values(hw)
    if a == 0.0:
        return to_coeffs(w * h) * mask
    with np.errstate(invalid="ignore", divide="ignore"):
        uc = np.where(grid.ik != 0, hw / np.where(grid.ik != 0, grid.ik, 1.0), 0.0)
    u = to_values(uc, u)
    wx = to_values(grid.ik * wc)
    return to_coeffs(w * h - a * u * wx) * mask


def model_rhs(omega: SpectralField1, a: float) -> SpectralField1:
    """omega * H(omega) - a u omega_x, dealiased, with u_x = H(omega) and mean(u) = 0."""
    c = _rhs_coeffs(omega.coeffs, omega.grid, a)
    return SpectralField1(omega.grid, c)


# -- the closed-form oracle --------------------------------------------------


def clm_exact(omega0: SpectralField1, t: float) -> SpectralField1:
    """Closed-form solution evaluated pointwise on the collocation grid."""
    t_star = clm_blowup_time(omega0)
    if t >= t_star:
        raise ValueError(f"past blow-up: t = {t} >= t_star = {t_star}")
    w0 = omega0.values
    h0 = hilbert_transform(omega0).values
    vals = 4.0 * w0 / ((2.0 - t * h0) ** 2 + t * t * w0 * w0)
    return SpectralField1.from_values(omega0.grid, vals)


def clm_blowup_time(omega0: SpectralField1) -> float:
    """2 / max{H(omega0) at zeros of omega0}; ``inf`` when no zero qualifies.

    Zeros are located by sign changes on an oversampled grid and sharpened
    by bisection on the trigonometric interpolant.
    """
    grid = omega0.grid
    m_fine = max(4096, 4 * grid.n)
    xs = np.arange(m_fine) * (grid.length / m_fine)
    vals = omega0.eval_at(xs)
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        return math.inf

    from scipy.optimize import brentq

    h_omega = hilbert_transform(omega0)
    roots = [float(xs[i]) for i in np.flatnonzero(vals == 0.0)]
    sign_change = np.flatnonzero(np.sign(vals) * np.sign(np.roll(vals, -1)) < 0)
    for i in sign_change:
        a = xs[i]
        b = xs[(i + 1) % m_fine] if i + 1 < m_fine else grid.length
        roots.append(brentq(
            lambda x: omega0.eval_at(np.array([x]))[0], a, b, xtol=1e-14))
    if not roots:
        return math.inf
    best = float(np.max(h_omega.eval_at(np.array(roots))))
    # a degenerate zero (H = 0 there up to round-off) does not drive blow-up
    if best <= 1e-10 * max(np.max(np.abs(h_omega.values)), 1e-300):
        return math.inf
    return 2.0 / best


# -- sup-norm refinement -----------------------------------------------------


def _half_spectrum(omega: SpectralField1) -> tuple[float, np.ndarray, np.ndarray]:
    """The field as mean + sum_m Re(a_m e^{i k_m x}) over modes 0 < m <= n/2:
    the mean, the amplitudes a_m and their integer mode numbers m.

    a_m = 2 c_m, and the Nyquist coefficient counts once: the Parseval
    weights of the grid.  Zero amplitudes are dropped.
    """
    c, g = omega.coeffs, omega.grid
    a = g.weight[1:] * c[1:]
    nz = np.flatnonzero(a)
    return float(c[0].real), a[nz], nz + 1


#: samples per zoom window and zoom rounds of :func:`refined_sup`
_ZOOM_POINTS, _ZOOM_ROUNDS = 17, 3


def _taylor_order(reach: float) -> int:
    """The smallest P with reach^(P+1) / (P+1)! < 2^-60."""
    order, term = 0, reach
    while term >= 2.0**-60:
        order += 1
        term *= reach / (order + 1)
    return order


def refined_sup(omega: SpectralField1) -> float:
    """Sup of |omega| via grid argmax plus local trig-interpolation zooming.

    The collocation max alone under-reads sharply peaked fields; three
    rounds of windowed re-evaluation recover the true sup to near round-off.
    Each window holds 17 equispaced points; the first spans x0 +- dx about
    the grid argmax x0 = i0 dx, and each later one spans a sixteenth of the
    half-width of the one before (dx/16, then dx/256) about the best point
    found so far.  The result is the largest |omega| over the grid and the
    window points.

    Every window point lies within r = dx (1 + 1/16 + 1/256) of x0, so the
    windows are evaluated from one Taylor polynomial of the interpolant
    about x0, in s = (x - x0) / dx:

        omega(x0 + s dx) = mean + sum_p s^p Re mu_p,
        mu_p = sum_m a_m e^{i k_m x0} (i k_m dx)^p / p!.

    The phase e^{i k_m x0} = e^{2 pi i (m i0 mod n) / n} is one complex
    exponential of a reduced argument in [0, 2 pi), correct to an ulp
    whatever the length of the circle; the product k_m x0 itself reaches
    1.4e5 rad on a dealiased state at n = 65536.  Scaling by dx keeps every
    k_m dx in (0, pi], so no moment overflows or underflows.  Even moments
    take the real and odd moments the imaginary part of a_m e^{i k_m x0};
    each is one product of a running power (k_m dx)^p with the modes and
    one sum.

    The order P is the smallest with (kappa r)^(P+1) / (P+1)! < 2^-60,
    where kappa is the largest carried wavenumber; the tail of the series
    then stays below about 2^-60 sum |a_m|.  For a dealiased state kappa dx
    is about 2 pi / 3 and P is 26 at n = 65536 (31 with Nyquist content).
    The Taylor terms add up in absolute value to at most
    e^{kappa r} sum |a_m|, which sets the round-off of a window value: a
    few ulp of about 9 sum |a_m| for a dealiased band, and of
    28 sum |a_m| with Nyquist content.  A field with no nonzero mode
    returns |mean|.
    """
    mean, a, m = _half_spectrum(omega)
    if m.size == 0:
        return abs(mean)
    g = omega.grid
    vals = np.abs(omega.values)
    i0 = int(np.argmax(vals))
    turn = 2.0 * np.pi / g.n
    b = a * np.exp(1j * (turn * ((m * i0) % g.n)))
    kdx = turn * m
    reach = sum(float(_ZOOM_POINTS - 1) ** -j for j in range(_ZOOM_ROUNDS))  # r / dx
    order = _taylor_order(float(kdx[-1]) * reach)
    parts = (np.ascontiguousarray(b.real), np.ascontiguousarray(b.imag))
    poly = np.empty(order + 1)  # coefficients of s^p, highest first
    poly[-1] = mean + parts[0].sum()
    power, inv_fact = kdx.copy(), 1.0
    for p in range(1, order + 1):
        inv_fact /= p
        # Re(i^p z) is Re z, -Im z, -Re z, Im z as p = 0, 1, 2, 3 (mod 4).
        # einsum, not np.dot: at this length dot wakes the BLAS threads
        # for every moment, which costs more than the sum.
        term = inv_fact * float(np.einsum("i,i", power, parts[p % 2]))
        poly[order - p] = -term if p % 4 in (1, 2) else term
        power *= kdx

    x0 = i0 * g.dx
    best_x, best = x0, float(vals[i0])
    half = g.dx
    for _ in range(_ZOOM_ROUNDS):
        xs = best_x + np.linspace(-half, half, _ZOOM_POINTS)
        cand = np.abs(np.polyval(poly, (xs - x0) / g.dx))
        j = int(np.argmax(cand))
        if cand[j] > best:
            best = float(cand[j])
            best_x = float(xs[j])
        half /= _ZOOM_POINTS - 1
    return best


def _tail_band(grid: Grid1) -> np.ndarray:
    """The top decade of retained modes, int(0.9 n/3) .. n/3 but from mode 1 up."""
    cut = grid.n // 3
    return (grid.m >= max(1, int(0.9 * cut))) & (grid.m <= cut)


def _spectral_tail(c: np.ndarray, band: np.ndarray) -> float:
    """Relative magnitude of the modes in ``band`` (see :func:`_tail_band`)."""
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c[band])) / scale)


# -- time integration --------------------------------------------------------


#: a spectral tail above _UNDER_RESOLVED_TAIL flags a run under-resolved; one
#: of at least _LOST_TAIL on _LOST_STEPS consecutive steps stops it
_UNDER_RESOLVED_TAIL = 1e-6
_LOST_TAIL, _LOST_STEPS = 0.5, 1000


class ResolutionLost(RuntimeError):
    """A 1D run stopped because its grid no longer resolves the state; past
    the blow-up time with no sup cap, dt = cfl / sup shrinks with a state
    that keeps growing and the run would not end.  Carries the time ``t``
    and the ``step`` where it stopped."""

    def __init__(self, t: float, step: int):
        super().__init__(f"resolution lost at t = {t:.6g} (step {step}): spectral tail "
                         f">= {_LOST_TAIL} on {_LOST_STEPS} consecutive steps")
        self.t, self.step = t, step


def _fit_t_star(ts: np.ndarray, sup: np.ndarray) -> float:
    """Fit sup ~ c/(T - t) on the tail window: the T that minimizes the
    variance of r = log sup + log(T - t) there.

    The T-derivative of var(r) is 2 cov(r, 1/(T - t)); its sign is bisected
    down to 1e-14 on the bracket from just past the last sample to ten
    window spans beyond it, and a bracket end is returned when the
    variance does not turn inside the bracket.
    """
    n = len(ts)
    start = max(0, int(0.7 * n))
    t_w, s_w = ts[start:], np.log(sup[start:])
    span = max(t_w[-1] - t_w[0], 1e-12)

    def half_slope(t_cap: float) -> float:  # d var(r) / dT, halved
        gap = t_cap - t_w
        r = s_w + np.log(gap)
        q = 1.0 / gap
        return float(np.mean((r - r.mean()) * (q - q.mean())))

    lo = float(t_w[-1] + 1e-12 * max(1.0, t_w[-1]))
    hi = float(t_w[-1] + 10.0 * span)
    if half_slope(lo) >= 0.0:
        return lo
    if half_slope(hi) <= 0.0:
        return hi
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if half_slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def model_run(
    omega0: SpectralField1,
    model: str,
    t_end: float,
    cfl: float = 0.1,
    omega_cap: float | None = None,
    store_states: bool = False,
) -> ModelRunResult:
    """
    Integrate a 1D model on :func:`~eulerlab.stepping.march` with adaptive
    dt = cfl / sup|omega|.  With a != 0, dt is additionally capped by the
    advective stability limit ~2.5 / (k_max |a| sup|u|), which the
    sup-based law does not see; sup|u| is read from the first stage of the
    step.

    Stops at ``t_end`` or when the refined sup norm reaches ``omega_cap``.
    Blow-up is reported when the cap is hit with accelerating growth, in
    which case the critical time is fitted from the tail of the series.
    A spectral tail above 1e-6 sets the ``under_resolved`` flag rather
    than aborting.  A tail of at least 0.5 on 1000 consecutive
    steps raises :class:`ResolutionLost` (not at n = 8, where the tail band
    starts at mode 1 and reads 1 on any field).  With ``store_states`` the
    result keeps the state of every step, the initial one first.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {tuple(MODELS)}")
    check_cfl(cfl)
    a = MODELS[model]
    grid = omega0.grid
    band = _tail_band(grid)
    lost_limit = math.inf if band[1] else _LOST_STEPS
    work = Workspace()
    # the a = 0 stage makes no velocity samples
    u = work.array("stage.u", grid.shape) if a != 0.0 else None
    k_max = (grid.n // 3) * (2.0 * np.pi / grid.length)

    def rhs(t: float, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _rhs_coeffs(c, grid, a, u)

    def dt_rule(t: float, c: np.ndarray) -> float:
        dt = cfl / max(sups[-1], 1e-12)
        speed = abs(a) * sup_abs(u) * k_max if a != 0.0 else 0.0
        if speed != 0.0:  # RK4 is stable to ~2.8 on the imaginary axis
            dt = min(dt, 2.5 / speed)
        return dt

    def stop(t: float, c: np.ndarray) -> bool:
        nonlocal cap_reached
        cap_reached = omega_cap is not None and sups[-1] >= omega_cap
        return cap_reached

    def after_step(t: float, dt: float, c_old: np.ndarray, c: np.ndarray, step: int) -> None:
        nonlocal under_resolved, lost
        if not np.all(np.isfinite(c)):
            raise FloatingPointError(f"non-finite state at t = {t + dt:.6g} (step {step})")
        sup_new = refined_sup(SpectralField1(grid, c))
        ts.append(t + dt)
        bkm.append(bkm[-1] + 0.5 * dt * (sups[-1] + sup_new))
        sups.append(sup_new)
        tail = _spectral_tail(c, band)
        if tail > _UNDER_RESOLVED_TAIL:
            under_resolved = True
        lost = lost + 1 if tail >= _LOST_TAIL else 0
        if lost >= lost_limit:
            raise ResolutionLost(t + dt, step)
        if store_states:
            states.append(ModelState(SpectralField1.from_coeffs(grid, c), t + dt))

    # popped into march, so that the first step frees the initial state; the
    # datum is dropped, so a caller that does not hold it frees it here
    start = [dealias(omega0).coeffs]
    del omega0
    ts, sups, bkm = [0.0], [refined_sup(SpectralField1(grid, start[0]))], [0.0]
    states: list[ModelState] = []
    under_resolved = _spectral_tail(start[0], band) > _UNDER_RESOLVED_TAIL
    cap_reached, lost = False, 0
    if store_states:
        states.append(ModelState(SpectralField1.from_coeffs(grid, start[0]), 0.0))

    t, c = march(rhs, start.pop(), t_end, dt_rule, after_step=after_step, stop=stop,
                 work=work)

    ts_a, sups_a = np.array(ts), np.array(sups)
    detected, t_star = False, None
    if cap_reached and len(sups_a) >= 6:
        rates = np.diff(np.log(sups_a[-5:])) / np.diff(ts_a[-5:])
        if np.all(np.diff(rates) > 0.0):
            detected = True
            t_star = _fit_t_star(ts_a, sups_a)

    report = BlowupReport(detected=detected, t_star_estimate=t_star, ts=ts_a,
                          omega_max_series=sups_a, bkm_series=np.array(bkm),
                          under_resolved=under_resolved, cap_reached=cap_reached)
    final = ModelState(SpectralField1.from_coeffs(grid, c), t)
    return ModelRunResult(report=report, final=final, states=states)
