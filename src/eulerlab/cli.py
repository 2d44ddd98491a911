"""Command-line front end: config-driven runs with reproducible artifacts.

Every run writes plot-ready CSV (17 significant digits), optional EULB
field containers, and exactly one ``manifest.json`` naming the config
echo, code version, wall time, environment, and sha256 of every file the
run wrote.  All writes are write-then-rename, so readers never observe
partial files and a failed write leaves none.  This module owns those
artifacts, :func:`dispatch` and the command line; what a system is lives in
:data:`eulerlab.config.REGISTRY`, whose runners write through :class:`RunManifest`.

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

from . import __version__, presets
from .config import REGISTRY, ConfigError, ExperimentConfig, parse_config_file
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
    (numpy's transforms and reductions) and the CPU they dispatch on.  scipy
    is imported here, after the run, so that start-up and the runs that
    need none of it do not load it."""
    import scipy

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
        self.running = True  # until dispatch has the runner's outcome
        self._written = False

    def add_csv(self, name: str, header: list[str], rows) -> None:
        atomic_write(self.output_dir / name, csv_bytes(header, rows))
        self.files.append(name)

    def add_snapshot(self, name: str, fields, t: float) -> None:
        write_snapshot(self.output_dir / name, fields, t)
        self.files.append(name)

    def write(self, status: str) -> None:
        """Write manifest.json once, after the run: a runner's own call is
        refused before anything is written."""
        if self.running:
            raise RuntimeError("a runner may not write manifest.json; dispatch writes it "
                               "after the run")
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


def dispatch(config: ExperimentConfig, output_dir=None) -> int:
    """Run one experiment, write its manifest and return the exit code.

    A runner returns True for a run whose subject blew up (exit 4).  A typed
    blow-up (:class:`BlowupError`) exits 4 with the snapshots written so
    far; any other error of the numerics, or a failed write, exits 3, as
    does a runner that calls ``manifest.write`` itself.
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
        blew_up = REGISTRY[config.system].run(config, manifest)
    except BlowupError as exc:
        return EXIT_BLOWUP, f"blow-up detected: {exc}"
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        return EXIT_NUMERICAL, f"failed: {exc}"
    finally:
        manifest.running = False
    return (EXIT_BLOWUP, "completed: blow-up detected") if blew_up else (EXIT_OK, "completed")


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="euler-lab",
        description="Config-driven runs of the flow laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run any configured system")
    validate = sub.add_parser("validate", help="parse and echo a config without running")
    for p in (run, validate):
        p.add_argument("--config", required=True, help="path to a key=value config")
    run.add_argument("--output-dir", default=None, help="override the config's output_dir")
    sub.add_parser("presets", help="list the named inputs a config can select")

    args = parser.parse_args(argv)

    if args.command == "presets":
        for name, p in sorted(presets.REGISTRY.items()):
            params = f" ({', '.join(p.params)})" if p.params else ""
            print(f"{name:24s} {p.system} {p.key}: {p.description}{params}")
        return EXIT_OK

    try:
        cfg = parse_config_file(args.config)
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
