"""Output checks that read a finished run directory and nothing else.

Each check takes the run directory and returns a list of problems; an
empty list means the run passed.  The invariants are those of the
acceptance gates, so a faster run that computes something else counts as
a failed run rather than a gain.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

LN10 = math.log(10.0)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV file as float arrays (``true``/``false`` as 1/0)."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    cells = {"true": 1.0, "false": 0.0}
    rows = [[cells[v] if v in cells else float(v) for v in line.split(",")]
            for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return {name: table[:, j] for j, name in enumerate(header)}


def read_manifest(run_dir: Path) -> dict:
    with open(run_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_manifest(run_dir: Path) -> list[str]:
    """Every listed file matches its sha256 and every EULB file reads back."""
    from eulerlab.snapshots import read_snapshot

    try:
        manifest = read_manifest(run_dir)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    for name, digest in manifest.get("files", {}).items():
        path = run_dir / name
        if not path.is_file():
            problems.append(f"{name}: listed in the manifest but missing")
            continue
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: sha256 does not match the manifest")
        if name.endswith(".eulb"):
            try:
                read_snapshot(path)
            except ValueError as exc:
                problems.append(f"{name}: does not read back: {exc}")
    return problems


def _max_relative_drift(series: np.ndarray) -> float:
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


def euler_drift(columns: tuple[str, ...], tol: float = 1e-6):
    """Relative drift of conserved diagnostics columns stays within ``tol`` (gate 02)."""

    def check(run_dir: Path) -> list[str]:
        diag = read_csv(run_dir / "diagnostics.csv")
        problems = []
        for col in columns:
            if col not in diag:
                problems.append(f"diagnostics.csv has no column {col!r}")
                continue
            drift = _max_relative_drift(diag[col])
            if not drift <= tol:
                problems.append(f"{col} drift {drift:.2e} exceeds {tol:g}")
        return problems

    check.__name__ = f"euler_drift{columns}"
    return check


def winding_ratios(run_dir: Path) -> list[str]:
    """Winding spread over the unperturbed shear rate stays in [0.5, 2] (gate 07)."""
    w = read_csv(run_dir / "winding.csv")
    t, spread = w["t"][1:], w["winding_spread"][1:]
    if t.size == 0:
        return ["winding.csv has no samples after t = 0"]
    ratios = spread / (t * 2.0 / (2.0 * math.pi))
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    if not (lo >= 0.5 and hi <= 2.0):
        return [f"winding spread ratios [{lo:.3f}, {hi:.3f}] leave [0.5, 2]"]
    return []


def ipm_stratification(run_dir: Path) -> list[str]:
    """grad_sup rises, e_pot never rises, spectrum stays resolved (gate 11)."""
    d = read_csv(run_dir / "diagnostics.csv")
    problems = []
    if not np.all(np.diff(d["grad_sup"]) > 0.0):
        problems.append("grad_sup is not strictly increasing")
    if not np.all(np.diff(d["e_pot"]) <= 0.0):
        problems.append(f"e_pot rises by up to {float(np.max(np.diff(d['e_pot']))):.2e}")
    if read_manifest(run_dir).get("extra", {}).get("under_resolved") is not False:
        problems.append("run is flagged under-resolved")
    return problems


def bessel_pairing(run_dir: Path, tol: float = 5e-4) -> list[str]:
    """Passive-scalar pairing follows 2 pi^2 (J1 + J3) within ``tol`` (gate 05)."""
    from scipy.special import jv

    p = read_csv(run_dir / "pairings.csv")
    t = p["t"]
    dev = float(np.max(np.abs(p["pairing_0"] - 2.0 * math.pi ** 2 * (jv(1, t) + jv(3, t)))))
    if not dev < tol:
        return [f"pairing deviates from the Bessel form by {dev:.2e} (tol {tol:g})"]
    return []


def bkm_decades(run_dir: Path) -> list[str]:
    """Each decade of sup-norm growth adds at least ln 10 to the BKM integral (gate 08)."""
    s = read_csv(run_dir / "series.csv")
    sup, bkm = s["omega_max"], s["bkm_integral"]
    at_cap = []
    for cap in (1e2, 1e3, 1e4):
        i = int(np.searchsorted(sup, cap))
        if i == 0 or i >= sup.size:
            return [f"sup norm never crosses {cap:g}"]
        f = (math.log(cap) - math.log(sup[i - 1])) / (math.log(sup[i]) - math.log(sup[i - 1]))
        at_cap.append(bkm[i - 1] + f * (bkm[i] - bkm[i - 1]))
    incs = np.diff(at_cap)
    if not np.all(incs >= LN10):
        return [f"BKM increments per decade {incs.round(4).tolist()} fall below ln 10"]
    return []


def selfsim_converged(run_dir: Path) -> list[str]:
    """Newton converged to the scaling rate 1 within 1e-6 (gate 09)."""
    extra = read_manifest(run_dir).get("extra", {})
    lam = extra.get("lambda")
    if extra.get("converged") is not True:
        return ["selfsim did not converge"]
    if not (isinstance(lam, float) and abs(lam - 1.0) < 1e-6):
        return [f"selfsim lambda {lam!r} is not within 1e-6 of 1"]
    return []


def lemma_certified(run_dir: Path) -> list[str]:
    """The coercive-plus-finite-rank decomposition is certified (gate 10)."""
    d = read_csv(run_dir / "decomposition.csv")
    if not (d["certified"].size == 1 and d["certified"][0] == 1.0):
        return ["decomposition is not certified"]
    return []


def run_problems(run_dir: Path, exit_code, expected_exit: int, checks) -> list[str]:
    """All problems of one finished run: exit code, manifest, then the checks."""
    if exit_code != expected_exit:
        return [f"exit code {exit_code!r}, expected {expected_exit}"]
    problems = check_manifest(run_dir)
    for check in checks:
        try:
            problems.extend(check(run_dir))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return problems
