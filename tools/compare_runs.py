"""Run configs through two source trees and compare what they write.

Usage::

    python tools/compare_runs.py PARENT_SRC CHANGE_SRC [config ...]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold an
``eulerlab`` package (the ``src`` directory of two checkouts).  Each
config (default: every ``configs/*.cfg``) is parsed and run through
``eulerlab.cli.dispatch`` once per tree, in one child process per tree
(the two children run side by side).  The script then compares, per
config, the exit codes, the manifest statuses, the manifest extras, the
manifest config echoes (a default moved by a parser change shows here even
when no output changes) and the sha256 of every file the manifests list.
For a CSV file that differs it prints, per column, the largest
entry-by-entry relative difference and the largest absolute difference
scaled by the column's largest magnitude (``max|x - y| / max|column|``);
the second keeps round-off on entries that are themselves round-off (a
conserved mass of 1e-16) from looking like a defect.  For a field
snapshot (``.eulb``) that differs it prints, per block, the largest
difference scaled by the field's largest magnitude, and the two times if
they differ.  Exit status 0 means every config matched byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eulerlab.snapshots import read_snapshot  # noqa: E402

# run by each child: parse and dispatch every (config, output dir) pair
_CHILD = """
import json, sys
from eulerlab import cli, config
codes = {}
for path, out in json.loads(sys.argv[1]):
    try:
        codes[path] = cli.dispatch(config.parse_config_file(path), out)
    except config.ConfigError as exc:
        codes[path] = cli.EXIT_CONFIG
print(json.dumps(codes))
"""


def _start(src: Path, jobs: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(jobs)],
                            env=env, stdout=subprocess.PIPE, text=True)


def _manifest(out: Path) -> dict:
    path = out / "manifest.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _csv_columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _diffs(a: str, b: str) -> tuple[float, float]:
    """(absolute, relative) difference of two CSV entries."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return (0.0, 0.0) if a == b else (math.inf, math.inf)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    return abs(x - y), abs(x - y) / max(abs(x), abs(y))


def _magnitude(entry: str) -> float:
    try:
        x = abs(float(entry))
    except ValueError:
        return 0.0
    return x if math.isfinite(x) else 0.0


def _scaled(diff: float, scale: float) -> float:
    if diff == 0.0:
        return 0.0
    return diff / scale if scale > 0.0 else math.inf


def csv_report(a: Path, b: Path) -> list[str]:
    """Largest relative and column-scaled differences of each column of two CSVs."""
    ca, cb = _csv_columns(a), _csv_columns(b)
    if list(ca) != list(cb):
        return [f"    header differs: {list(ca)} vs {list(cb)}"]
    lines = []
    for name in ca:
        if len(ca[name]) != len(cb[name]):
            lines.append(f"    {name}: {len(ca[name])} vs {len(cb[name])} rows")
            continue
        pairs = [_diffs(x, y) for x, y in zip(ca[name], cb[name])]
        worst_abs = max((d for d, _ in pairs), default=0.0)
        worst_rel = max((r for _, r in pairs), default=0.0)
        if worst_rel:
            scale = max(map(_magnitude, ca[name] + cb[name]), default=0.0)
            lines.append(f"    {name}: max relative difference {worst_rel:.3g}, "
                         f"max|x - y| / max|column| {_scaled(worst_abs, scale):.3g}")
    return lines


def eulb_report(a: Path, b: Path) -> list[str]:
    """Largest difference of each field block of two snapshots, scaled by the
    field's largest magnitude."""
    (fa, ta), (fb, tb) = read_snapshot(a), read_snapshot(b)
    if len(fa) != len(fb) or any(x.shape != y.shape for x, y in zip(fa, fb)):
        return [f"    blocks differ: {[x.shape for x in fa]} vs {[y.shape for y in fb]}"]
    lines = [] if ta == tb else [f"    time: {ta!r} vs {tb!r}"]
    for i, (x, y) in enumerate(zip(fa, fb)):
        scale = float(max(np.max(np.abs(x)), np.max(np.abs(y))))
        lines.append(f"    block {i}: max|x - y| / max|field| "
                     f"{_scaled(float(np.max(np.abs(x - y))), scale):.3g}")
    return lines


def compare(parent: Path, change: Path, configs: list[Path], work: Path) -> bool:
    jobs = {tag: [(str(cfg), str(work / tag / cfg.stem)) for cfg in configs]
            for tag in ("parent", "change")}
    children = {tag: _start(src, jobs[tag])
                for tag, src in (("parent", parent), ("change", change))}
    codes = {}
    for tag, proc in children.items():
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"{tag} child failed with exit status {proc.returncode}")
        codes[tag] = json.loads(out.strip().splitlines()[-1])

    same_all = True
    print(f"{'config':28s} {'exit':>7s}  {'status':8s} {'extra':8s} {'config':8s} files")
    for cfg in configs:
        pa, ch = work / "parent" / cfg.stem, work / "change" / cfg.stem
        ma, mb = _manifest(pa), _manifest(ch)
        fa, fb = ma.get("files", {}), mb.get("files", {})
        differing = sorted(n for n in set(fa) | set(fb) if fa.get(n) != fb.get(n))
        code_a, code_b = codes["parent"][str(cfg)], codes["change"][str(cfg)]
        status = "same" if ma.get("status") == mb.get("status") else "DIFFERS"
        extra = "same" if ma.get("extra") == mb.get("extra") else "DIFFERS"
        ea, eb = ma.get("config", {}), mb.get("config", {})
        echo_keys = sorted(k for k in set(ea) | set(eb) if ea.get(k) != eb.get(k))
        echo = "DIFFERS" if echo_keys else "same"
        files = (f"{len(fa)} identical" if not differing
                 else f"DIFFER: {', '.join(differing)}")
        same = code_a == code_b and status == extra == echo == "same" and not differing
        same_all &= same
        print(f"{cfg.stem:28s} {code_a:>3d}/{code_b:<3d}  {status:8s} {extra:8s} {echo:8s} "
              f"{files}")
        if status != "same":
            print(f"    status: {ma.get('status')!r} vs {mb.get('status')!r}")
        if extra != "same":
            print(f"    extra: {ma.get('extra')} vs {mb.get('extra')}")
        for key in echo_keys:
            print(f"    config {key}: {ea.get(key)!r} vs {eb.get(key)!r}")
        for name in differing:
            report = {".csv": csv_report, ".eulb": eulb_report}.get(Path(name).suffix)
            if report and (pa / name).exists() and (ch / name).exists():
                for line in report(pa / name, ch / name):
                    print(f"    {name}{line}")
    return same_all


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv[:2])
    configs = [Path(a).resolve() for a in argv[2:]] or sorted((ROOT / "configs").glob("*.cfg"))
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as work:
        return 0 if compare(parent, change, configs, Path(work)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
