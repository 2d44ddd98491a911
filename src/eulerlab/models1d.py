"""1D vorticity-model solvers on the circle.

Two right-hand sides share the state representation:

* ``clm``        : d(omega)/dt = omega * H(omega)
* ``degregorio`` : d(omega)/dt = -u d(omega)/dx + omega du/dx,  du/dx = H(omega)

The first has a closed-form solution through the Riccati variable
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
from scipy import optimize

from .fields import SpectralField1, to_coeffs, to_values
from .grids import Grid1
from .operators import dealias, hilbert_transform
from .stepping import check_cfl, rk4_step

MODELS = ("clm", "degregorio")


@dataclass(frozen=True)
class ModelState:
    """Vorticity of a 1D model at one instant."""

    omega: SpectralField1
    t: float
    model: str

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")


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


# -- right-hand sides --------------------------------------------------------


def _hilbert_coeffs(c: np.ndarray, grid: Grid1) -> np.ndarray:
    return -1j * np.sign(grid.m) * c


def _clm_rhs_coeffs(c: np.ndarray, grid: Grid1) -> np.ndarray:
    mask = grid.dealias_mask
    wc = c * mask
    w = to_values(wc)
    h = to_values(_hilbert_coeffs(wc, grid))
    return to_coeffs(w * h) * mask


def _degregorio_rhs_coeffs(c: np.ndarray, grid: Grid1) -> np.ndarray:
    mask = grid.dealias_mask
    wc = c * mask
    hw = _hilbert_coeffs(wc, grid)
    with np.errstate(invalid="ignore", divide="ignore"):
        uc = np.where(grid.m != 0, hw / np.where(grid.m != 0, 1j * grid.k, 1.0), 0.0)
    u = to_values(uc)
    ux = to_values(hw)
    w = to_values(wc)
    wx = to_values(1j * grid.k * wc)
    return to_coeffs(-u * wx + w * ux) * mask


_RHS = {"clm": _clm_rhs_coeffs, "degregorio": _degregorio_rhs_coeffs}


def _transport_dt_cap(c: np.ndarray, grid: Grid1) -> float:
    """RK4 stability limit for the advective term of the transport model.

    The u df/dx term puts eigenvalues on the imaginary axis up to
    k_max sup|u|; RK4 is stable to ~2.8 there, so cap dt below that
    (the sup-based law alone is unstable on fine grids for smooth data).
    """
    hw = _hilbert_coeffs(c * grid.dealias_mask, grid)
    with np.errstate(invalid="ignore", divide="ignore"):
        uc = np.where(grid.m != 0, hw / np.where(grid.m != 0, 1j * grid.k, 1.0), 0.0)
    sup_u = float(np.max(np.abs(to_values(uc))))
    k_max = (grid.n // 3) * (2.0 * np.pi / grid.length)
    if sup_u * k_max == 0.0:
        return math.inf
    return 2.5 / (k_max * sup_u)


def clm_rhs(omega: SpectralField1) -> SpectralField1:
    """Dealiased pointwise product omega * H(omega)."""
    c = _clm_rhs_coeffs(omega.coeffs, omega.grid)
    return SpectralField1(omega.grid, c, bool(abs(c[0]) == 0.0))


def degregorio_rhs(omega: SpectralField1) -> SpectralField1:
    """Transport-and-stretch right-hand side with du/dx = H(omega), mean(u) = 0."""
    c = _degregorio_rhs_coeffs(omega.coeffs, omega.grid)
    return SpectralField1(omega.grid, c, bool(abs(c[0]) == 0.0))


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

    h_omega = hilbert_transform(omega0)
    roots = [float(xs[i]) for i in np.flatnonzero(vals == 0.0)]
    sign_change = np.flatnonzero(np.sign(vals) * np.sign(np.roll(vals, -1)) < 0)
    for i in sign_change:
        a = xs[i]
        b = xs[(i + 1) % m_fine] if i + 1 < m_fine else grid.length
        roots.append(optimize.brentq(
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
    """The field as mean + sum_m Re(a_m e^{i k_m x}) over modes 0 < m <= n/2.

    a_m = 2 c_m, and the Nyquist coefficient counts once: the Parseval
    weights of the grid.  Zero amplitudes are dropped.
    """
    c, g = omega.coeffs, omega.grid
    a = g.weight[1:] * c[1:]
    nz = np.flatnonzero(a)
    return float(c[0].real), a[nz], g.k[1:][nz]


def refined_sup(omega: SpectralField1, rounds: int = 3, points: int = 17) -> float:
    """Sup of |omega| via grid argmax plus local trig-interpolation zooming.

    The collocation max alone under-reads sharply peaked fields; a few
    rounds of windowed re-evaluation recover the true sup to near round-off.

    Each window of ``points`` equispaced samples x0 + j*delta is evaluated
    over the half spectrum with the recurrence
    e^{ik(x0 + j delta)} = e^{ik x0} (e^{ik delta})^j: two exponentials and
    one complex multiply per point instead of an exponential per point
    and mode.  The j-th product carries at most about j rounding
    errors, so a window value is off the direct sum by about
    (points - 1) ulp times sum |a_m| (16 ulp at the default).
    """
    mean, a, k = _half_spectrum(omega)
    vals = np.abs(omega.values)
    i0 = int(np.argmax(vals))
    best_x = i0 * omega.grid.dx
    best = float(vals[i0])
    half = omega.grid.dx
    cand = np.empty(points)
    for _ in range(rounds):
        xs = best_x + np.linspace(-half, half, points)
        phase = np.exp(1j * k * xs[0])
        step = np.exp(1j * k * (2.0 * half / (points - 1)))
        for j in range(points):
            cand[j] = abs(mean + (phase @ a).real)
            phase *= step
        j = int(np.argmax(cand))
        if cand[j] > best:
            best = float(cand[j])
            best_x = float(xs[j])
        half /= points - 1
    return best


def _spectral_tail(c: np.ndarray, grid: Grid1) -> float:
    """Relative magnitude of the top decade of retained modes."""
    cut = grid.n // 3
    lo = max(1, int(0.9 * cut))
    band = (grid.m >= lo) & (grid.m <= cut)
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c[band])) / scale)


# -- time integration --------------------------------------------------------


def _fit_t_star(ts: np.ndarray, sup: np.ndarray) -> float:
    """Fit sup ~ c/(T - t) on the tail window, optimizing T in log variables."""
    n = len(ts)
    start = max(0, int(0.7 * n))
    t_w, s_w = ts[start:], np.log(sup[start:])
    span = max(t_w[-1] - t_w[0], 1e-12)

    def badness(t_cap: float) -> float:
        r = s_w + np.log(t_cap - t_w)
        return float(np.var(r))

    res = optimize.minimize_scalar(
        badness, bounds=(t_w[-1] + 1e-12 * max(1.0, t_w[-1]), t_w[-1] + 10.0 * span),
        method="bounded", options={"xatol": 1e-14})
    return float(res.x)


def model_run(
    omega0: SpectralField1,
    model: str,
    t_end: float,
    cfl: float = 0.1,
    omega_cap: float | None = None,
    dt_max: float | None = None,
    tail_threshold: float = 1e-6,
    store_states: bool = False,
    store_factor: float | None = None,
) -> ModelRunResult:
    """
    Integrate a 1D model with adaptive dt = cfl / sup|omega|.  For the
    transport model dt is additionally capped by the advective stability
    limit ~2.5 / (k_max sup|u|), which the sup-based law does not see.

    Stops at ``t_end`` or when the refined sup norm reaches ``omega_cap``.
    Blow-up is reported when the cap is hit with accelerating growth, in
    which case the critical time is fitted from the tail of the series.
    A persistent spectral tail above ``tail_threshold`` sets the
    ``under_resolved`` flag rather than aborting.

    With ``store_factor`` set, states are kept only when the sup norm has
    grown by that factor since the last stored state (plus the final one),
    which keeps memory bounded on fine grids.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    check_cfl(cfl)
    if dt_max is not None and not dt_max > 0.0:
        raise ValueError("dt_max must be positive")
    model_rhs = _RHS[model]
    grid = omega0.grid

    def rhs(t: float, y: tuple) -> tuple:
        return (model_rhs(y[0], grid),)

    c = dealias(omega0).coeffs.copy()

    t = 0.0
    ts, sups, bkm = [0.0], [refined_sup(SpectralField1(grid, c, omega0.mean_free))], [0.0]
    states: list[ModelState] = []
    under_resolved = _spectral_tail(c, grid) > tail_threshold
    cap_reached = False

    if store_states:
        states.append(ModelState(SpectralField1.from_coeffs(grid, c), 0.0, model))
    last_stored_sup = sups[0]

    while t < t_end:
        sup_now = sups[-1]
        if omega_cap is not None and sup_now >= omega_cap:
            cap_reached = True
            break
        dt = cfl / max(sup_now, 1e-12)
        if model == "degregorio":
            dt = min(dt, _transport_dt_cap(c, grid))
        if dt_max is not None:
            dt = min(dt, dt_max)
        dt = min(dt, t_end - t)
        (c,) = rk4_step(rhs, t, (c,), dt)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError(f"non-finite state at t = {t + dt:.6g}")
        t += dt
        f = SpectralField1(grid, c, bool(abs(c[0]) == 0.0))
        sup_new = refined_sup(f)
        ts.append(t)
        sups.append(sup_new)
        bkm.append(bkm[-1] + 0.5 * dt * (sup_now + sup_new))
        if _spectral_tail(c, grid) > tail_threshold:
            under_resolved = True
        if store_states and (store_factor is None or sup_new >= store_factor * last_stored_sup):
            states.append(ModelState(SpectralField1.from_coeffs(grid, c), t, model))
            last_stored_sup = sup_new

    if store_states and states[-1].t < t:
        states.append(ModelState(SpectralField1.from_coeffs(grid, c), t, model))

    ts_a = np.array(ts)
    sups_a = np.array(sups)
    bkm_a = np.array(bkm)

    detected = False
    t_star = None
    if cap_reached and len(sups_a) >= 6:
        rates = np.diff(np.log(sups_a[-5:])) / np.diff(ts_a[-5:])
        if np.all(np.diff(rates) > 0.0):
            detected = True
            t_star = _fit_t_star(ts_a, sups_a)

    report = BlowupReport(
        detected=detected,
        t_star_estimate=t_star,
        ts=ts_a,
        omega_max_series=sups_a,
        bkm_series=bkm_a,
        under_resolved=under_resolved,
        cap_reached=cap_reached,
    )
    final = ModelState(SpectralField1.from_coeffs(grid, c), t, model)
    return ModelRunResult(report=report, final=final, states=states)


# -- self-similar rescaling --------------------------------------------------


@dataclass
class RescalingSeries:
    """Profiles (T - t) * omega(x_star + (T - t) X) on a fixed X grid."""

    X: np.ndarray
    times: np.ndarray
    profiles: np.ndarray  # shape (len(times), len(X))
    cauchy_sups: np.ndarray  # sup |P_{j+1} - P_j|
    x_star: float
    t_star: float


def locate_blowup_point(omega: SpectralField1) -> float:
    """Midpoint of the adjacent extremes of omega (wrap-aware).

    Near a symmetric peak/trough pair this recovers the center where the
    field crosses zero and the rescaled profiles are odd.
    """
    vals = omega.values
    x = omega.grid.x
    xmax = x[int(np.argmax(vals))]
    xmin = x[int(np.argmin(vals))]
    d = (xmin - xmax) % omega.grid.length
    if d > omega.grid.length / 2:
        d -= omega.grid.length
    return float((xmax + d / 2.0) % omega.grid.length)


def selfsim_extract(
    result: ModelRunResult,
    x_star: float | None = None,
    X: np.ndarray | None = None,
    n_times: int = 6,
    t_star: float | None = None,
) -> RescalingSeries:
    """
    Rescale stored states near a detected blow-up onto a fixed similarity
    grid and report sup-norm Cauchy differences between consecutive
    rescalings (their decrease is the self-similarity diagnostic).

    ``t_star`` overrides the fitted blow-up time; pass it when a sharper
    value is known, since the rescaling is sensitive to errors in T - t
    at the latest times.
    """
    report = result.report
    if not report.detected or report.t_star_estimate is None:
        raise ValueError("no detected blow-up: selfsim_extract requires a detected run")
    if not result.states:
        raise ValueError("run was not stored with store_states=True")
    if t_star is None:
        t_star = report.t_star_estimate
    if x_star is None:
        x_star = locate_blowup_point(result.states[-1].omega)
    if X is None:
        X = np.linspace(-10.0, 10.0, 401)
    X = np.asarray(X, dtype=np.float64)

    usable = [st for st in result.states if st.t < t_star]
    if len(usable) < 2:
        raise ValueError("not enough stored states below the fitted blow-up time")
    picks = usable[-1:]
    s_last = t_star - picks[0].t
    target = s_last
    for st in reversed(usable[:-1]):
        if t_star - st.t >= 2.0 * target:
            picks.append(st)
            target = t_star - st.t
        if len(picks) == n_times:
            break
    picks = picks[::-1]

    times = np.array([st.t for st in picks])
    profiles = np.empty((len(picks), len(X)))
    for j, st in enumerate(picks):
        s = t_star - st.t
        profiles[j] = s * st.omega.eval_at(x_star + s * X)
    cauchy = np.max(np.abs(np.diff(profiles, axis=0)), axis=1)
    return RescalingSeries(X=X, times=times, profiles=profiles,
                           cauchy_sups=cauchy, x_star=float(x_star), t_star=float(t_star))
