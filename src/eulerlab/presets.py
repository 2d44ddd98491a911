"""Named initial data shared by the CLI and the test suite.

Every preset is a deterministic function of (name, params, seed): calling
it twice with the same arguments yields bit-identical fields, which is
what makes rerun checksum tests meaningful.  :data:`REGISTRY` holds every
name a config can select, with its system, its config key, the function
that makes it and a one-line description; the config parser checks names against it and
``euler-lab presets`` lists it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import selfsim
from .fields import SpectralField1, SpectralField2, VectorField2, mode_power, to_coeffs
from .grids import Grid1, Grid2


def taylor_green(grid: Grid2) -> SpectralField2:
    """Cellular vorticity -2 cos x cos y (a steady state of 2D Euler)."""
    X, Y = grid.meshgrid()
    return SpectralField2.from_values(grid, -2.0 * np.cos(X) * np.cos(Y)).project_mean_free()


def clm_cosine(grid: Grid1, amplitude: float = 1.0) -> SpectralField1:
    """Cosine datum for the 1D models; closed-form evolution known."""
    return SpectralField1.from_values(grid, amplitude * np.cos(grid.x))


def check_kmax(grid: Grid2, kmax: int) -> None:
    if kmax < 1 or kmax > min(grid.nx, grid.ny) // 3:
        raise ValueError("kmax must lie inside the dealiased band")


def random_bandlimited(grid: Grid2, seed: int, kmax: int, rms: float) -> SpectralField2:
    """Mean-free band-limited noise whose root-mean-square value is ``rms``."""
    check_kmax(grid, kmax)
    rng = np.random.default_rng(seed)
    c = to_coeffs(rng.normal(size=grid.shape))
    band = (np.abs(grid.mx)[:, None] <= kmax) & (np.abs(grid.my)[None, :] <= kmax)
    c *= band
    c[0, 0] = 0.0
    f = SpectralField2.from_coeffs(grid, c)
    scale = math.sqrt(float(np.sum(mode_power(grid, f.coeffs))))
    if scale == 0.0:
        raise ValueError("empty band")
    return f * (rms / scale)


def taylor_green_perturbed(grid: Grid2, eps: float) -> SpectralField2:
    """Cellular steady state plus an eps cos 2x cos y defect.

    The defect breaks stationarity, so markers transported by the run
    see a genuinely time-dependent flow map (the Lagrangian invariant
    checks need that).
    """
    X, Y = grid.meshgrid()
    w = -2.0 * np.cos(X) * np.cos(Y) + eps * np.cos(2.0 * X) * np.cos(Y)
    return SpectralField2.from_values(grid, w).project_mean_free()


def shear_plus_band(grid: Grid2, seed: int, kmax: int, rms: float) -> SpectralField2:
    """Sinusoidal shear vorticity cos y plus seeded band noise.

    The periodic stand-in for an eps-perturbed linear shear: the shear
    sets the winding rates, the band is the perturbation.
    """
    _, Y = grid.meshgrid()
    base = SpectralField2.from_values(grid, np.cos(Y))
    return (base + random_bandlimited(grid, seed, kmax=kmax, rms=rms)).project_mean_free()


def _interface_bump(Y: np.ndarray) -> np.ndarray:
    # horizontal perturbation envelope peaked at y = pi, ~3e-4 at y = 0:
    # localizing the seed is what makes the heavy/light contrast a real
    # experiment (a y-uniform seed hits both layers of any periodic
    # stratification equally, and the two runs become y-translates)
    return np.exp(-4.0 * (np.cos(Y) + 1.0))


def heavy_over_light(grid: Grid2, eps: float) -> SpectralField2:
    """Stratified density with the heavy layer above the y = pi interface."""
    X, Y = grid.meshgrid()
    rho = -np.sin(Y) + eps * np.cos(X) * _interface_bump(Y)
    return SpectralField2.from_values(grid, rho)


def light_over_heavy(grid: Grid2, eps: float) -> SpectralField2:
    """The stable orientation, seeded at the same interface."""
    X, Y = grid.meshgrid()
    rho = np.sin(Y) + eps * np.cos(X) * _interface_bump(Y)
    return SpectralField2.from_values(grid, rho)


def stratified_rest(grid: Grid2) -> SpectralField2:
    """Pure y-stratification: the induced velocity vanishes identically."""
    _, Y = grid.meshgrid()
    return SpectralField2.from_values(grid, -np.sin(Y))


def shear_sin(grid: Grid2) -> VectorField2:
    """Steady shear (sin y, 0) for mixing runs."""
    _, Y = grid.meshgrid()
    return VectorField2.from_values(grid, np.sin(Y), np.zeros_like(Y))


def uniform_flow(grid: Grid2) -> VectorField2:
    """Constant (1, 0): every orbit has the same period (no mixing)."""
    _, Y = grid.meshgrid()
    return VectorField2.from_values(grid, np.ones_like(Y), np.zeros_like(Y))


def cos_x_scalar(grid: Grid2) -> SpectralField2:
    X, _ = grid.meshgrid()
    return SpectralField2.from_values(grid, np.cos(X))


def bessel_pair_test_function(grid: Grid2) -> SpectralField2:
    """Pairing weight 2 (1 + cos 2y) cos x.

    Against the (sin y, 0) shear and the cos x scalar the pairing series
    has the closed form 2 pi^2 (J1(t) + J3(t)): the weight vanishes to
    second order at the shear's turning points, which is what buys a
    decay faster than the bare stationary-phase t^(-1/2).
    """
    X, Y = grid.meshgrid()
    return SpectralField2.from_values(grid, 2.0 * (1.0 + np.cos(2.0 * Y)) * np.cos(X))


def perturbed_profile(problem, perturb: float) -> np.ndarray:
    """Closed-form self-similar profile times 1 + perturb exp(-X^2/10)."""
    x = problem.x
    return selfsim.closed_form_profile(x) * (1.0 + perturb * np.exp(-x ** 2 / 10.0))


@dataclass(frozen=True)
class Preset:
    """A named input of one system, selected in its config by ``key = name``.

    ``make(grid, **params)`` takes the run's grid (the selfsim
    ``ProfileProblem`` for a guess, nothing for a transport profile) and
    the config values of ``params``, whose defaults are those of the
    system's key table in :data:`eulerlab.config.REGISTRY`.
    """

    system: str
    key: str
    make: Callable
    description: str
    params: tuple = ()


# what the value of each selecting config key names
_KINDS = {"preset": "initial condition", "velocity": "velocity",
          "test_function": "test function", "guess": "initial guess",
          "u_preset": "transport profile"}
KEYS = tuple(_KINDS)
_BAND = ("seed", "kmax", "rms")

REGISTRY = {
    "taylor_green": Preset("euler2d", "preset", taylor_green,
                           "cellular steady vorticity -2 cos x cos y"),
    "taylor_green_perturbed": Preset("euler2d", "preset", taylor_green_perturbed,
                                     "cellular state plus eps cos 2x cos y defect", ("eps",)),
    "shear_plus_band": Preset("euler2d", "preset", shear_plus_band,
                              "cos y shear plus seeded band noise", _BAND),
    "random_bandlimited": Preset("euler2d", "preset", random_bandlimited,
                                 "seeded mean-free band noise", _BAND),
    "heavy_over_light": Preset("ipm", "preset", heavy_over_light,
                               "unstable stratification, seeded interface at y=pi", ("eps",)),
    "light_over_heavy": Preset("ipm", "preset", light_over_heavy,
                               "stable orientation, same seeded interface", ("eps",)),
    "stratified_rest": Preset("ipm", "preset", stratified_rest,
                              "pure y-stratification (exact rest state)"),
    "shear_sin": Preset("passive_scalar", "velocity", shear_sin, "(sin y, 0)"),
    "uniform": Preset("passive_scalar", "velocity", uniform_flow, "(1, 0) constant"),
    "bessel_pair": Preset("passive_scalar", "test_function",
                          lambda grid: [bessel_pair_test_function(grid)],
                          "weight 2 (1 + cos 2y) cos x with closed-form pairing"),
    "none": Preset("passive_scalar", "test_function", lambda grid: [],
                   "no test function (the pairing table holds t only)"),
    "exact": Preset("selfsim", "guess", lambda problem: selfsim.closed_form_profile(problem.x),
                    "the closed-form profile"),
    "perturbed": Preset("selfsim", "guess", perturbed_profile,
                        "closed-form profile times 1 + perturb exp(-X^2/10)", ("perturb",)),
    "parabola": Preset("lemma_check", "u_preset", lambda _: lambda t: t * (1.0 - t),
                       "u(t) = t (1 - t)"),
    "sine": Preset("lemma_check", "u_preset",
                   lambda _: lambda t: math.sin(math.pi * t) / math.pi, "u(t) = sin(pi t) / pi"),
}


def lookup(system: str, key: str, name: str) -> Preset:
    """The entry that ``key = name`` selects in a ``system`` config."""
    entry = REGISTRY.get(name)
    if entry is None or (entry.system, entry.key) != (system, key):
        known = sorted(n for n, e in REGISTRY.items() if (e.system, e.key) == (system, key))
        article = "an" if system[0] in "aeiou" else "a"
        raise ValueError(f"{key} {name!r} is not {article} {system} {_KINDS[key]}; "
                         f"known: {', '.join(known)}")
    return entry


def build(cfg, key: str, grid):
    """Build the input that ``cfg[key]`` names for the run on ``grid``."""
    entry = lookup(cfg.system, key, cfg[key])
    return entry.make(grid, **{p: cfg[p] for p in entry.params})
