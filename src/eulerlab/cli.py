"""Command-line front end: config-driven runs with reproducible artifacts.

Every run writes plot-ready CSV (17 significant digits), optional EULB
field containers, and exactly one ``manifest.json`` naming the config
echo, code version, wall time, environment, and sha256 of every file the
run wrote.  All writes are write-then-rename, so readers never observe
partial files and a failed write leaves none.

Exit codes: 0 success; 2 config error; 3 numerical failure or failed
write; 4 blow-up detected (a completed run whose subject blew up is not a
failure).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, euler2d, ipm, lagrangian, models1d, presets, selfsim
from .config import ConfigError, ExperimentConfig, parse_config_file
from .grids import Grid1, Grid2
from .snapshots import atomic_write, write_snapshot
from .stepping import BlowupError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BLOWUP = 4


# -- artifact plumbing ---------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def csv_bytes(header: list[str], rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def _environment() -> dict:
    """What sets the bits of a run besides its config: the library versions
    (numpy's transforms and reductions) and the CPU they dispatch on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


class RunManifest:
    """Collects run metadata and emits manifest.json exactly once."""

    def __init__(self, config: ExperimentConfig, output_dir: Path):
        self.config = config
        self.output_dir = output_dir
        self.started = _utc_now()
        self._t0 = time.monotonic()
        self.files: list[str] = []
        self.extra: dict = {}
        self._written = False

    def add_file(self, name: str, data: bytes) -> None:
        atomic_write(self.output_dir / name, data)
        self.files.append(name)

    def note(self, paths) -> None:
        """List files the run wrote into the output dir by other means."""
        self.files.extend(Path(p).name for p in paths)

    def write(self, status: str) -> None:
        if self._written:
            raise RuntimeError("manifest already written for this run")
        self._written = True
        payload = {
            "system": self.config.system,
            "config": self.config.echo(),
            "version": __version__,
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            "wall_seconds": round(time.monotonic() - self._t0, 3),
            "environment": _environment(),
            "status": status,
            "files": {name: _sha256(self.output_dir / name)
                      for name in sorted(set(self.files))},
            "extra": self.extra,
        }
        atomic_write(self.output_dir / "manifest.json",
                     (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


# -- runners -------------------------------------------------------------------


def _records_csv(records: list, fields: list[str]) -> bytes:
    """One row per diagnostics record: ``fields``, then the casimirs by name."""
    names = sorted(records[0].casimirs) if records else []
    return csv_bytes(fields + names, ([getattr(r, f) for f in fields]
                                      + [r.casimirs[n] for n in names] for r in records))


def _lattice_folded(snap: lagrangian.ParticleSet) -> bool:
    """Whether :func:`lagrangian.jacobian_det` finds the lattice folded."""
    try:
        lagrangian.jacobian_det(snap)
    except ValueError:
        return True
    return False


def _run_euler2d(cfg: ExperimentConfig, manifest: RunManifest) -> int:
    grid = Grid2(cfg["nx"], cfg["ny"])
    omega0 = presets.build(cfg, "preset", grid)
    snap_dir = str(manifest.output_dir) if cfg["snapshot_every"] > 0 else None
    marker = cfg["marker_lattice"] or None
    written = []  # listed even when the run raises
    try:
        res = euler2d.run(
            omega0, cfg["t_end"], cfl=cfg["cfl"], diag_every=cfg["diag_every"],
            casimirs=tuple(cfg["casimir_powers"]), marker_lattice=marker,
            snapshot_dir=snap_dir, snapshot_every=cfg["snapshot_every"] or None,
            snapshot_paths=written)
    finally:
        manifest.note(written)
    manifest.add_file("diagnostics.csv", _records_csv(res.diagnostics, [
        "t", "energy", "enstrophy", "palinstrophy", "omega_max", "bkm_integral"]))

    if marker:
        ts, spreads = lagrangian.twisting_series(res)
        manifest.add_file("winding.csv",
                          csv_bytes(["t", "winding_spread"], zip(ts, spreads)))
        snap = res.marker_snapshots[-1]
        u0 = euler2d.EulerState(omega0, 0.0).velocity()
        manifest.extra["weber_residual"] = euler2d.weber_residual(res.final, snap, u0)
        # a folded lattice has lost the resolution the residual relies on
        manifest.extra["lattice_folded"] = _lattice_folded(snap)
        shape = snap.lattice_shape
        fields = [a[:, i].reshape(shape) for a in (snap.positions, snap.lifts) for i in (0, 1)]
        markers_final = manifest.output_dir / "markers_final.eulb"
        write_snapshot(markers_final, fields, snap.t)
        manifest.note([markers_final])
    manifest.extra["sampler_method"] = (
        lagrangian.VelocitySampler.method_for(grid) if marker else None)
    return EXIT_OK


def _run_couette(cfg: ExperimentConfig, manifest: RunManifest) -> int:
    ts = np.linspace(cfg["t_start"], cfg["t_end"], cfg["t_count"])
    out = euler2d.couette_linear_evolve(cfg["modes"], ts)
    header = ["t", "u1_l2", "u2_l2", "omega_h1", "shear_u1_l2"]
    rows = zip(out["t"], out["u1_l2"], out["u2_l2"], out["omega_h1"],
               [out["shear_u1_l2"]] * len(ts))
    manifest.add_file("series.csv", csv_bytes(header, rows))
    return EXIT_OK


def _run_passive_scalar(cfg: ExperimentConfig, manifest: RunManifest) -> int:
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
    manifest.add_file("pairings.csv", csv_bytes(header, rows))
    return EXIT_OK


def _run_model1d(cfg: ExperimentConfig, manifest: RunManifest) -> int:
    grid = Grid1(cfg["n"])
    omega0 = presets.clm_cosine(grid, cfg["amplitude"])
    res = models1d.model_run(
        omega0, cfg.system, cfg["t_end"], cfl=cfg["cfl"],
        omega_cap=cfg["omega_cap"] or None, dt_max=cfg["dt_max"] or None,
        tail_threshold=cfg["tail_threshold"])
    rep = res.report
    manifest.add_file("series.csv", csv_bytes(
        ["t", "omega_max", "bkm_integral"],
        zip(rep.ts, rep.omega_max_series, rep.bkm_series)))
    manifest.extra.update({
        "blowup_detected": bool(rep.detected),
        "t_star_estimate": rep.t_star_estimate,
        "under_resolved": bool(rep.under_resolved),
        "cap_reached": bool(rep.cap_reached),
    })
    return EXIT_BLOWUP if rep.detected else EXIT_OK


def _run_selfsim(cfg: ExperimentConfig, manifest: RunManifest) -> int:
    problem = selfsim.ProfileProblem(n=cfg["n"], L=cfg["domain_half_width"],
                                     model=cfg["model"])
    w = presets.build(cfg, "guess", problem)
    sol = selfsim.newton_solve(problem, w, lam0=cfg["lam0"],
                               tol=cfg["tol"], max_iter=cfg["max_iter"])
    manifest.add_file("profile.csv", csv_bytes(["X", "omega"],
                                               zip(problem.x, sol.omega)))
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
    return EXIT_OK


def _run_lemma_check(cfg: ExperimentConfig, manifest: RunManifest) -> int:
    u = presets.build(cfg, "u_preset", None)
    g_const = cfg["g_const"]
    params = selfsim.WeightedSpaceParams(
        N=cfg["weight_order"], delta=cfg["delta"],
        grid_points=cfg["grid_points"], grid_ratio=cfg["grid_ratio"])
    dec = selfsim.lemma_decomposition_check(u, lambda t: g_const, params)
    manifest.add_file("decomposition.csv", csv_bytes(
        ["c_inner", "c_coercive", "rank", "certified"],
        [[dec.c_inner, dec.c_coercive, dec.rank, dec.certified]]))
    manifest.extra.update({"certified": bool(dec.certified), "rank": int(dec.rank),
                           "c_inner": dec.c_inner, "c_coercive": dec.c_coercive})
    if not dec.certified:
        raise RuntimeError("decomposition not coercive")
    return EXIT_OK


def _run_ipm(cfg: ExperimentConfig, manifest: RunManifest) -> int:
    grid = Grid2(cfg["nx"], cfg["ny"])
    rho0 = presets.build(cfg, "preset", grid)
    res = ipm.ipm_run(rho0, cfg["t_end"], cfl=cfg["cfl"], diag_every=cfg["diag_every"],
                      tail_threshold=cfg["tail_threshold"])
    manifest.add_file("diagnostics.csv", _records_csv(
        res.diagnostics, ["t", "mass", "grad_sup", "e_pot", "tail_fraction"]))
    manifest.extra["under_resolved"] = bool(res.under_resolved)
    return EXIT_OK


_RUNNERS = {
    "euler2d": _run_euler2d,
    "couette_linear": _run_couette,
    "passive_scalar": _run_passive_scalar,
    **dict.fromkeys(models1d.MODELS, _run_model1d),
    "selfsim": _run_selfsim,
    "lemma_check": _run_lemma_check,
    "ipm": _run_ipm,
}


def dispatch(config: ExperimentConfig, output_dir=None) -> int:
    """Run one experiment, write its manifest and return the exit code.

    A runner returns 0, or 4 for a run whose subject blew up.  A typed
    blow-up (:class:`BlowupError`) exits 4 with the snapshots written so
    far; any other error of the numerics, or a failed write, exits 3.
    When the output directory or the manifest itself cannot be written
    there is no manifest to hold the status: it goes to stderr, exit 3.
    """
    outdir = Path(output_dir if output_dir is not None else config["output_dir"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(config, outdir)
        code, status = _run(config, manifest)
        manifest.write(status)
    except OSError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


def _run(config: ExperimentConfig, manifest: RunManifest) -> tuple[int, str]:
    """Run the config's runner: its exit code and manifest status."""
    try:
        code = _RUNNERS[config.system](config, manifest)
    except BlowupError as exc:
        return EXIT_BLOWUP, f"blow-up detected: {exc}"
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        return EXIT_NUMERICAL, f"failed: {exc}"
    return code, "completed: blow-up detected" if code == EXIT_BLOWUP else "completed"


# -- entry point ---------------------------------------------------------------


def _load(path: str) -> ExperimentConfig:
    try:
        return parse_config_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="euler-lab",
        description="Config-driven runs of the flow laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("run", "run any configured system"),
                        ("selfsim", "solve a self-similar profile (system = selfsim)"),
                        ("lemma-check", "run the coercivity decomposition "
                                        "(system = lemma_check)"),
                        ("validate", "parse and echo a config without running")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to a key=value config")
        if name != "validate":
            p.add_argument("--output-dir", default=None,
                           help="override the config's output_dir")
    sub.add_parser("presets", help="list the named inputs a config can select")

    args = parser.parse_args(argv)

    if args.command == "presets":
        for name, p in sorted(presets.REGISTRY.items()):
            params = f" ({', '.join(p.params)})" if p.params else ""
            print(f"{name:24s} {p.system} {p.key}: {p.description}{params}")
        return EXIT_OK

    try:
        cfg = _load(args.config)
        required = {"selfsim": "selfsim", "lemma-check": "lemma_check"}.get(args.command)
        if required and cfg.system != required:
            raise ConfigError(f"{args.command!r} subcommand requires system = {required}, "
                              f"got {cfg.system!r}")
        if args.command == "validate":
            for key, value in cfg.echo().items():
                print(f"{key} = {value}")
            return EXIT_OK
        return dispatch(cfg, args.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
