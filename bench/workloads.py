"""The benchmark's workloads: seeded configs, expected exits and output checks.

A workload is a list of runs executed back to back in one child process
through ``eulerlab.cli.dispatch``.  Each workload records why it was
chosen and which per-layer metrics it should move, so later changes can
refer to workloads and metrics by name.  The seed picks the ``seed`` of
the random presets and the perturbation sizes, always within ranges where
the checked invariants hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

EXIT_OK = 0
EXIT_BLOWUP = 4

# Initial sup |u| of every random_bandlimited vorticity.  The run's step
# count follows the CFL limit dx / sup |u|; fixing sup |u| rather than the
# coefficient norm keeps the work of a workload nearly independent of the
# seed, so the spread between seeds measures the program and not the input.
BAND_SUP_U = 0.18

# the config parser runs in the set-up of every workload
_SETUP_MOVES = {"config.parse_s": "setup_s"}


@dataclass(frozen=True)
class Run:
    label: str
    config: str
    expected_exit: int
    checks: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rationale: str
    moves: dict
    make_runs: Callable[[int], list]


def config_text(system: str, **params) -> str:
    lines = [f"system = {system}"]
    for key, value in params.items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, (tuple, list)):
            value = " ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def band_rms(n: int, seed: int, kmax: int, sup_u: float = BAND_SUP_U) -> float:
    """``rms`` for ``random_bandlimited`` whose initial velocity sup is ``sup_u``.

    Repeats the preset's seeded draw with numpy alone (the benchmark does
    not depend on eulerlab internals), computes the Biot-Savart velocity
    for unit coefficient norm and scales it to ``sup_u``.
    """
    c = np.fft.fftn(np.random.default_rng(seed).normal(size=(n, n)), norm="forward")
    m = np.rint(np.fft.fftfreq(n) * n)
    band = (np.abs(m)[:, None] <= kmax) & (np.abs(m)[None, :] <= kmax)
    c = c * band
    c[0, 0] = 0.0
    c /= math.sqrt(float(np.sum(np.abs(c) ** 2)))
    k2 = m[:, None] ** 2 + m[None, :] ** 2
    psi = -np.divide(c, k2, out=np.zeros_like(c), where=k2 > 0)
    u1 = np.fft.ifftn(-1j * m[None, :] * psi, norm="forward").real
    u2 = np.fft.ifftn(1j * m[:, None] * psi, norm="forward").real
    return sup_u / max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))


def _uniform(seed: int, stream: int, lo: float, hi: float) -> float:
    return float(np.random.default_rng([seed, stream]).uniform(lo, hi))


# -- euler-256 -------------------------------------------------------------------


def _euler_256(seed: int) -> list:
    cfg = config_text(
        "euler2d", nx=256, ny=256, preset="random_bandlimited", seed=seed, kmax=4,
        rms=band_rms(256, seed, 4), t_end=5.0, cfl=0.4, diag_every=1.25,
        casimir_powers=(4,), snapshot_every=1.25)
    return [Run("euler", cfg, EXIT_OK,
                (checks.euler_drift(("energy", "enstrophy", "omega^4")),))]


# -- markers-96 ------------------------------------------------------------------


def _markers_96(seed: int) -> list:
    cfg = config_text(
        "euler2d", nx=96, ny=96, preset="shear_plus_band", seed=seed, kmax=3,
        rms=_uniform(seed, 1, 0.015, 0.025), t_end=2.0 * math.pi, cfl=0.4,
        diag_every=0.5 * math.pi, marker_lattice=64)
    return [Run("euler_markers", cfg, EXIT_OK, (checks.winding_ratios,))]


# -- dense-output ----------------------------------------------------------------


def _dense_output(seed: int) -> list:
    euler = config_text(
        "euler2d", nx=128, ny=128, preset="random_bandlimited", seed=seed, kmax=4,
        rms=band_rms(128, seed, 4), t_end=8.0, cfl=0.4, diag_every=0.08,
        casimir_powers=(2, 3, 4), snapshot_every=0.4)
    ipm = config_text(
        "ipm", nx=128, ny=128, preset="heavy_over_light",
        eps=_uniform(seed, 2, 0.008, 0.012), t_end=10.0, cfl=0.4, diag_every=0.1)
    scalar = config_text(
        "passive_scalar", nx=16, ny=512, velocity="shear_sin",
        test_function="bessel_pair", t_end=40.0, cfl=0.4, diag_every=0.15)
    return [
        Run("euler", euler, EXIT_OK, (checks.euler_drift(("energy",)),)),
        Run("ipm", ipm, EXIT_OK, (checks.ipm_stratification,)),
        Run("scalar", scalar, EXIT_OK, (checks.bessel_pairing,)),
    ]


# -- solvers-1d ------------------------------------------------------------------


def _solvers_1d(seed: int) -> list:
    clm = config_text(
        "clm", n=65536, amplitude=_uniform(seed, 3, 19.0, 21.0), t_end=0.2, cfl=0.2,
        omega_cap=10500.0)
    selfsim = config_text(
        "selfsim", n=1024, domain_half_width=20.0, guess="perturbed",
        perturb=_uniform(seed, 4, 0.03, 0.07), lam0=1.1, tol=1e-10)
    lemma = config_text(
        "lemma_check", weight_order=8, delta=0.1, u_preset="parabola", g_const=1.0)
    return [
        Run("clm", clm, EXIT_BLOWUP, (checks.bkm_decades,)),
        Run("selfsim", selfsim, EXIT_OK, (checks.selfsim_converged,)),
        Run("lemma", lemma, EXIT_OK, (checks.lemma_certified,)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="euler-256",
        why="2D Euler free decay at 256^2 with sparse output: the spectral core "
            "dominates and no marker is sampled",
        rationale=(
            "2D Euler free decay at 256^2 from seeded random_bandlimited band noise "
            "(the conservation_band shape), with the omega^4 Casimir, sparse "
            "diagnostics and a few EULB snapshots, and no markers. In the profile, "
            "FFTs take about 72% of the run and the other per-stage pointwise work "
            "about 18%, so the spectral core dominates and marker sampling does no "
            "work. A real-to-complex change should show here, and the Fourier "
            "prefilter should not."),
        moves={
            **_SETUP_MOVES,
            "fields.fft_s": "run_s (most)",
            "fields.fft_calls": "run_s (most)",
            "fields.fft_mb": "run_s (most) and peak_rss_mb",
            "euler2d.run_self_s": "run_s",
            "lagrangian.sampler_build_s": "nothing: must read zero",
            "lagrangian.sampler_eval_s": "nothing: must read zero",
        },
        make_runs=_euler_256),
    Workload(
        name="markers-96",
        why="2D Euler at 96^2 carrying a 64^2 marker lattice: spline marker "
            "sampling is about half the run and per-call overhead shows",
        rationale=(
            "2D Euler at 96^2 on seeded shear_plus_band with a 64^2 marker lattice "
            "(the shape of winding_perturbed and gate 07), with a shorter t_end. "
            "Marker sampling (spline_filter1d plus map_coordinates) is about half "
            "the run. The arrays are small, so per-call Python overhead shows. "
            "This is the slowest gate."),
        moves={
            **_SETUP_MOVES,
            "lagrangian.sampler_build_s": "run_s",
            "lagrangian.sampler_builds": "run_s",
            "lagrangian.sampler_eval_s": "run_s",
            "lagrangian.points_sampled": "run_s",
            "fields.fft_s": "run_s",
        },
        make_runs=_markers_96),
    Workload(
        name="dense-output",
        why="short Euler, IPM and passive-scalar runs with diagnostics about every "
            "step: reductions, CSV rows and snapshots ride on every transport step",
        rationale=(
            "Three short runs back to back: 2D Euler at 128^2 with diagnostics at "
            "about every step, Casimir powers 2, 3 and 4, and an EULB snapshot every "
            "few steps; IPM heavy_over_light at 128^2 with seeded eps and diagnostics "
            "at about every step; the mixing_bessel passive scalar (16x512) with "
            "diagnostics at about every step. The same spectral core is used here "
            "through transport_coeffs, with reductions, CSV rows and snapshots at "
            "almost every step. Casimir evaluation alone took 26% of the Euler part. "
            "A change that speeds up stepping but makes output or diagnostics cost "
            "more shows here. It is also the only workload that runs the ipm_run and "
            "passive_scalar_evolve loops."),
        moves={
            **_SETUP_MOVES,
            "operators.transport_s": "run_s",
            "operators.transport_calls": "run_s",
            "lagrangian.scalar_self_s": "run_s",
            "euler2d.run_self_s": "run_s",
            "ipm.run_self_s": "run_s",
            "snapshots.write_s": "run_s",
            "snapshots.mb_written": "run_s",
            "cli.csv_s": "run_s",
            "cli.manifest_s": "run_s",
            "cli.mb_written": "run_s",
            "fields.fft_s": "run_s",
        },
        make_runs=_dense_output),
    Workload(
        name="solvers-1d",
        why="CLM run to the sup cap, self-similar Newton and the lemma check: "
            "1D and dense-matrix work with no 2D transform",
        rationale=(
            "Three runs back to back: the clm_bkm_decades CLM run (n = 65536, run "
            "to the sup cap), selfsim_recovery (n = 1024, seeded bump size) and "
            "lemma_parabola. No 2D transform runs here. refined_sup point "
            "evaluation takes about 76% of the CLM run, and dense operator assembly "
            "about 95% of the selfsim run. 1D and dense-matrix changes show here, "
            "and 2D changes must show nothing."),
        moves={
            **_SETUP_MOVES,
            "fields.eval_at_s": "run_s",
            "fields.eval_at_points": "run_s",
            "models1d.refined_sup_s": "run_s",
            "models1d.refined_sup_calls": "run_s",
            "models1d.run_self_s": "run_s",
            "selfsim.operator_build_s": "run_s and peak_rss_mb",
            "selfsim.newton_self_s": "run_s and peak_rss_mb",
            "selfsim.newton_iterations": "run_s and peak_rss_mb",
            "selfsim.lemma_s": "run_s and peak_rss_mb",
        },
        make_runs=_solvers_1d),
)}
