"""Flat key=value experiment configs, and the one table of the systems they select.

One assignment per line, ``#`` starts a comment, blank lines are ignored.
Every system has a fixed key table; unknown keys, duplicate keys, missing
required keys, and type mismatches are all rejected with the offending
line number so configs stay diffable and honest.  Values are then passed
through the library's own validators (grid sizes, CFL numbers, output
cadences, time horizons, profile and lemma parameters) and every preset
name is looked up in :data:`eulerlab.presets.REGISTRY`, so a config that
the run would reject fails here, before any output is written.

This module owns what a system is: its :data:`REGISTRY` entry holds the
key table, check and runner.  Runners write only through
the manifest they are given; :mod:`eulerlab.cli` owns the artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import euler2d, ipm, lagrangian, models1d, presets, selfsim
from .grids import Grid1, Grid2
from .stepping import check_casimir_powers, check_cfl, check_schedule, check_t_end


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent experiment config."""


REQUIRED = object()


def _parse_mode_list(s: str) -> list[tuple[int, float, float]]:
    """Shear-frame bands as ``kx:eta0:amp`` triples separated by ``;``."""
    modes = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError(f"mode {part!r} is not kx:eta0:amp")
        modes.append((int(bits[0]), float(bits[1]), float(bits[2])))
    if not modes:
        raise ValueError("empty mode list")
    return modes


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.replace(",", " ").split())


_TYPES = {
    "int": int,
    "float": float,
    "str": str,
    "modes": _parse_mode_list,
    "ints": _parse_int_list,
}

# key -> (type name, default or REQUIRED), here for the keys of every system
_COMMON = {
    "output_dir": ("str", "out"),
    "seed": ("int", 0),
}

# the grid, CFL number and horizon of the 2D time-stepping systems
_STEPPED_2D = {
    "nx": ("int", REQUIRED),
    "ny": ("int", REQUIRED),
    "cfl": ("float", 0.4),
    "t_end": ("float", REQUIRED),
}


def _check_stepped_2d(params: dict) -> Grid2:
    check_t_end(params["t_end"])
    grid = Grid2(params["nx"], params["ny"])
    check_schedule(params["cfl"], params["diag_every"], params.get("snapshot_every", 0.0))
    return grid


def _check_euler2d(params: dict) -> None:
    grid = _check_stepped_2d(params)
    if params["marker_lattice"] != 0:  # 0: no markers
        euler2d.check_weber_lattice(params["marker_lattice"])
    check_casimir_powers(params["casimir_powers"])
    if "kmax" in presets.lookup("euler2d", "preset", params["preset"]).params:
        presets.check_kmax(grid, params["kmax"])


def _check_couette(params: dict) -> None:
    euler2d.check_couette_modes(params["modes"])  # a falling time axis is legal
    if params["t_count"] < 0:
        raise ValueError("t_count must be nonnegative")


def _check_model1d(params: dict) -> None:
    check_t_end(params["t_end"])
    Grid1(params["n"])
    check_cfl(params["cfl"])
    if params["omega_cap"] < 0.0:  # 0: no cap
        raise ValueError("omega_cap must be nonnegative (0 means no cap)")


def _check_selfsim(params: dict) -> None:
    selfsim.ProfileProblem(n=params["n"], L=params["domain_half_width"])
    selfsim.check_max_iter(params["max_iter"])


def _weighted_space(p) -> selfsim.WeightedSpaceParams:
    """The lemma's space, from a config or its params: building it checks them."""
    return selfsim.WeightedSpaceParams(N=p["weight_order"], delta=p["delta"])


# -- runners: each does its run and writes only through the manifest ----------


def _add_records(manifest, records: list, fields: list[str]) -> None:
    """diagnostics.csv, one row per record: ``fields``, then the casimirs by name."""
    names = sorted(records[0].casimirs) if records else []
    manifest.add_csv("diagnostics.csv", fields + names, (
        [getattr(r, f) for f in fields] + [r.casimirs[n] for n in names] for r in records))


def _lattice_folded(snap: lagrangian.ParticleSet) -> bool:
    """Whether :func:`lagrangian.jacobian_det` finds the lattice folded."""
    try:
        lagrangian.jacobian_det(snap)
    except ValueError:
        return True
    return False


def _run_euler2d(cfg: ExperimentConfig, manifest) -> None:
    grid = Grid2(cfg["nx"], cfg["ny"])
    marker = cfg["marker_lattice"] or None
    # popped into the run, which frees it at its first step unless the Weber
    # check of the markers keeps it
    initial = [presets.build(cfg, "preset", grid)]
    omega0 = initial[0] if marker else None
    res = euler2d.run(
        initial.pop(), cfg["t_end"], cfl=cfg["cfl"], diag_every=cfg["diag_every"],
        casimirs=tuple(cfg["casimir_powers"]), marker_lattice=marker,
        snapshot_every=cfg["snapshot_every"],
        snapshot=manifest.add_snapshot if cfg["snapshot_every"] > 0 else None)
    _add_records(manifest, res.diagnostics, [
        "t", "energy", "enstrophy", "palinstrophy", "omega_max", "bkm_integral"])

    if marker:
        ts, spreads = lagrangian.twisting_series(res)
        manifest.add_csv("winding.csv", ["t", "winding_spread"], zip(ts, spreads))
        snap = res.marker_snapshots[-1]
        u0 = euler2d.EulerState(omega0, 0.0).velocity()
        manifest.extra["weber_residual"] = euler2d.weber_residual(res.final, snap, u0)
        # a folded lattice has lost the resolution the residual relies on
        manifest.extra["lattice_folded"] = _lattice_folded(snap)
        shape = snap.lattice_shape
        manifest.add_snapshot("markers_final.eulb", [
            a[:, i].reshape(shape) for a in (snap.positions, snap.lifts) for i in (0, 1)],
            snap.t)


def _run_couette(cfg: ExperimentConfig, manifest) -> None:
    ts = np.linspace(cfg["t_start"], cfg["t_end"], cfg["t_count"])
    out = euler2d.couette_linear_evolve(cfg["modes"], ts)
    header = ["t", "u1_l2", "u2_l2", "omega_h1", "shear_u1_l2"]
    rows = zip(out["t"], out["u1_l2"], out["u2_l2"], out["omega_h1"],
               [out["shear_u1_l2"]] * len(ts))
    manifest.add_csv("series.csv", header, rows)


def _run_passive_scalar(cfg: ExperimentConfig, manifest) -> None:
    grid = Grid2(cfg["nx"], cfg["ny"])
    u = presets.build(cfg, "velocity", grid)
    f0 = presets.cos_x_scalar(grid)
    phis = presets.build(cfg, "test_function", grid)
    res = lagrangian.passive_scalar_evolve(u, f0, cfg["t_end"],
                                           test_functions=phis,
                                           cfl=cfg["cfl"],
                                           diag_every=cfg["diag_every"])
    header = ["t"] + [f"pairing_{i}" for i in range(len(phis))]
    rows = [[t] + [res.pairings[i][j] for i in range(len(phis))]
            for j, t in enumerate(res.times)]
    manifest.add_csv("pairings.csv", header, rows)


def _run_model1d(cfg: ExperimentConfig, manifest) -> bool:
    grid = Grid1(cfg["n"])
    omega0 = presets.clm_cosine(grid, cfg["amplitude"])
    res = models1d.model_run(
        omega0, cfg.system, cfg["t_end"], cfl=cfg["cfl"],
        omega_cap=cfg["omega_cap"] or None)
    rep = res.report
    manifest.add_csv("series.csv", ["t", "omega_max", "bkm_integral"],
                     zip(rep.ts, rep.omega_max_series, rep.bkm_series))
    manifest.extra.update({
        "blowup_detected": bool(rep.detected),
        "t_star_estimate": rep.t_star_estimate,
        "under_resolved": bool(rep.under_resolved),
        "cap_reached": bool(rep.cap_reached),
    })
    return bool(rep.detected)


def _run_selfsim(cfg: ExperimentConfig, manifest) -> None:
    problem = selfsim.ProfileProblem(n=cfg["n"], L=cfg["domain_half_width"])
    w = presets.build(cfg, "guess", problem)
    sol = selfsim.newton_solve(problem, w, lam0=cfg["lam0"],
                               tol=cfg["tol"], max_iter=cfg["max_iter"])
    manifest.add_csv("profile.csv", ["X", "omega"], zip(problem.x, sol.omega))
    outgoing = selfsim.outgoing_check(None, sol.lam, x=problem.x)
    manifest.extra.update({
        "lambda": sol.lam, "residual": sol.residual,
        "iterations": sol.iterations, "converged": bool(sol.converged),
        "step_norm": sol.step_norm,
        "outgoing_certified": bool(outgoing["certified"]),
        "outgoing_c": outgoing["c_estimate"],
    })
    if not sol.converged:
        raise RuntimeError("iteration did not converge")


def _run_lemma_check(cfg: ExperimentConfig, manifest) -> None:
    u = presets.build(cfg, "u_preset", None)
    g_const = cfg["g_const"]
    dec = selfsim.lemma_decomposition_check(u, lambda t: g_const, _weighted_space(cfg))
    manifest.add_csv("decomposition.csv", ["c_inner", "c_coercive", "rank", "certified"],
                     [[dec.c_inner, dec.c_coercive, dec.rank, dec.certified]])
    manifest.extra.update({"certified": bool(dec.certified), "rank": int(dec.rank),
                           "c_inner": dec.c_inner, "c_coercive": dec.c_coercive})
    if not dec.certified:
        raise RuntimeError("decomposition not coercive")


def _run_ipm(cfg: ExperimentConfig, manifest) -> None:
    grid = Grid2(cfg["nx"], cfg["ny"])
    # the run holds the only reference to the initial density, and frees it
    # at its first step
    res = ipm.ipm_run(presets.build(cfg, "preset", grid), cfg["t_end"], cfl=cfg["cfl"],
                      diag_every=cfg["diag_every"])
    _add_records(manifest, res.diagnostics, ["t", "mass", "grad_sup", "e_pot", "tail_fraction"])
    manifest.extra["under_resolved"] = bool(res.under_resolved)


@dataclass(frozen=True)
class System:
    """One config system.  ``keys`` maps each key but ``output_dir`` and
    ``seed`` to (type name, default or :data:`REQUIRED`); ``check(params)``
    builds what the run would, without its work, and raises ``ValueError``
    before any output; ``run(cfg, manifest)`` writes only through the
    manifest (``add_csv``, ``add_snapshot``, ``extra``) and returns
    True when its subject blew up."""

    keys: dict
    check: Callable[[dict], object]
    run: Callable[[ExperimentConfig, object], bool | None]


REGISTRY: dict[str, System] = {
    "euler2d": System({
        **_STEPPED_2D,
        "diag_every": ("float", 0.5),
        "preset": ("str", REQUIRED),
        "eps": ("float", 1e-2),
        "kmax": ("int", 4),
        "rms": ("float", 0.2),
        "casimir_powers": ("ints", (4,)),
        "marker_lattice": ("int", 0),
        "snapshot_every": ("float", 0.0),
    }, _check_euler2d, _run_euler2d),
    "couette_linear": System({
        "modes": ("modes", REQUIRED),
        "t_start": ("float", 0.0),
        "t_end": ("float", REQUIRED),
        "t_count": ("int", 181),
    }, _check_couette, _run_couette),
    "passive_scalar": System({
        **_STEPPED_2D,
        "diag_every": ("float", 1.0),
        "velocity": ("str", "shear_sin"),
        "test_function": ("str", "bessel_pair"),
    }, _check_stepped_2d, _run_passive_scalar),
    **dict.fromkeys(models1d.MODELS, System({
        "n": ("int", REQUIRED),
        "amplitude": ("float", 1.0),
        "cfl": ("float", 0.1),
        "t_end": ("float", REQUIRED),
        "omega_cap": ("float", 0.0),
    }, _check_model1d, _run_model1d)),
    "selfsim": System({
        "n": ("int", 1024),
        "domain_half_width": ("float", 20.0),
        "lam0": ("float", 1.0),
        "tol": ("float", 1e-10),
        "max_iter": ("int", 25),
        "guess": ("str", "exact"),
        "perturb": ("float", 0.05),
    }, _check_selfsim, _run_selfsim),
    "lemma_check": System({
        "weight_order": ("int", 8),
        "delta": ("float", 0.1),
        "u_preset": ("str", "parabola"),
        "g_const": ("float", 1.0),
    }, _weighted_space, _run_lemma_check),
    "ipm": System({
        **_STEPPED_2D,
        "diag_every": ("float", 0.5),
        "preset": ("str", REQUIRED),
        "eps": ("float", 1e-2),
    }, _check_stepped_2d, _run_ipm),
}


def _finite(value) -> bool:
    """False for a NaN or infinite float, also inside a list or tuple (a mode triple)."""
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, (list, tuple)) or all(map(_finite, value))


@dataclass
class ExperimentConfig:
    """A validated experiment description (system plus typed parameters)."""

    system: str
    params: dict = dc_field(default_factory=dict)

    def __getitem__(self, key):
        return self.params[key]

    def echo(self) -> dict:
        """Normalized, JSON-friendly key -> value map for manifests."""
        out = {"system": self.system}
        for k, v in sorted(self.params.items()):
            if isinstance(v, tuple):
                v = list(v)
            elif isinstance(v, list):
                v = [list(m) if isinstance(m, tuple) else m for m in v]
            out[k] = v
        return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config; raise ConfigError otherwise."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {raw[key][1]})")
        raw[key] = (value, lineno)

    if "system" not in raw:
        raise ConfigError("missing key 'system'")
    system, sys_line = raw.pop("system")
    if system not in REGISTRY:
        raise ConfigError(
            f"line {sys_line}: unknown system {system!r}; choose from {', '.join(REGISTRY)}")
    entry = REGISTRY[system]
    schema = {**_COMMON, **entry.keys}

    params: dict = {}
    for key, (value, lineno) in raw.items():
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for system {system!r}")
        type_name, _ = schema[key]
        try:
            params[key] = _TYPES[type_name](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r} (expected {type_name}): {exc}") from None

    for key, (_, default) in schema.items():
        params.setdefault(key, default)
    missing = sorted(k for k, value in params.items() if value is REQUIRED)
    if missing:
        raise ConfigError(f"missing required keys for system {system!r}: "
                          + ", ".join(missing))

    if params["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    # the system's check, then the preset names, then the finite floats: a
    # NaN or infinite value an earlier check catches keeps that check's message
    try:
        entry.check(params)
        for key in presets.KEYS:
            if key in params:
                presets.lookup(system, key, params[key])
        for key, value in params.items():
            if not _finite(value):
                raise ValueError(f"{key} must be finite, got {value}")
    except ValueError as exc:
        raise ConfigError(f"bad value for system {system!r}: {exc}") from None
    return ExperimentConfig(system=system, params=params)


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
