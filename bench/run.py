"""eulerlab benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload euler-256 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each measurement is a fresh child
process (one at a time) that imports ``eulerlab.cli``, parses the
workload's generated configs and dispatches them.  Children are started
until ``--seconds`` have passed, then set-up-only children until there
are at least five set-up samples; every reported time is a median.  The
outputs of every run are checked (see ``checks.py``), and a run that
exits with an unexpected code or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (wall time of the
dispatch calls), ``setup_s`` (child start until the CLI is imported and
the configs are parsed), ``peak_rss_mb`` and ``ok_frac`` (share of runs
that passed, the complement of the failure fraction).  ``--trace 1``
adds one child with timing wrappers (see ``spans.py``) and reports the
per-layer self times and counts, plus ``trace.overhead_s``: the traced
``run_s`` minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"

MIN_SETUPS = 5
TIME_LIMIT_S = 170.0  # one workload must finish well inside 180 s

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "fraction"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb") or metric.endswith("mb_written"):
        return "MB"
    return "count"


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


class Session:
    """The children of one workload measurement and the tally of their runs."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.runs = workload.make_runs(seed)
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.children = 0
        cfg_dir = work / "configs"
        cfg_dir.mkdir(parents=True)
        self.configs = []
        for run in self.runs:
            path = cfg_dir / f"{run.label}.cfg"
            path.write_text(run.config, encoding="utf-8")
            self.configs.append(str(path))

    def spawn(self, dispatch: bool, trace: bool = False):
        """Run one child; returns (result, set-up seconds) or None if it died."""
        self.children += 1
        tag = f"child{self.children:03d}"
        outputs = [str(self.work / tag / run.label) for run in self.runs] if dispatch else []
        spec = {"src": str(SRC), "configs": self.configs, "outputs": outputs,
                "trace": trace, "result": str(self.work / f"{tag}.json"),
                "spans": str(self.work / f"{tag}.spans.json")}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                  cwd=ROOT, stdout=sys.stderr, timeout=timeout)
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            print(f"{self.workload.name}: child timed out after {timeout:.0f} s",
                  file=sys.stderr)
            ok = False
        result = None
        if ok:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        if dispatch:
            self._tally(result, outputs)
        if result is None:
            return None
        return result, result["ready"] - t_spawn

    def _tally(self, result, outputs) -> None:
        import checks

        exits = [r["exit"] for r in result["runs"]] if result else [None] * len(self.runs)
        for run, code, out in zip(self.runs, exits, outputs):
            self.attempted += 1
            problems = checks.run_problems(Path(out), code, run.expected_exit, run.checks)
            if problems:
                self.failed += 1
                print(f"FAIL {self.workload.name}/{run.label}: " + "; ".join(problems),
                      file=sys.stderr)
        shutil.rmtree(Path(outputs[0]).parent, ignore_errors=True)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload; returns the result object printed as JSON."""
    start = time.monotonic()
    s = Session(workload, seed, work, deadline=start + TIME_LIMIT_S)
    s.spawn(dispatch=False)  # warm-up: byte-code caches and the page cache

    run_times, setups, rss = [], [], []
    t0 = time.monotonic()
    last = 0.0
    while True:
        c0 = time.monotonic()
        got = s.spawn(dispatch=True)
        last = time.monotonic() - c0
        if got is not None:
            result, setup = got
            run_times.append(sum(r["seconds"] for r in result["runs"]))
            setups.append(setup)
            rss.append(result["peak_rss_mb"])
        now = time.monotonic()
        budget_left = s.deadline - now - (1.5 * last if trace else 0.0)
        if now - t0 >= seconds or last > budget_left:
            break
    while len(setups) < MIN_SETUPS and time.monotonic() + 5.0 < s.deadline:
        got = s.spawn(dispatch=False)
        if got is not None:
            setups.append(got[1])

    correct = bool(run_times)
    metrics = {}
    if not trace and run_times:
        metrics = {
            "run_s": statistics.median(run_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": 1.0 - s.failed / max(s.attempted, 1),
        }
    elif trace and run_times:
        import spans

        got = s.spawn(dispatch=True, trace=True)
        if got is None:
            correct = False
        else:
            with open(s.work / f"child{s.children:03d}.spans.json", encoding="utf-8") as fh:
                dump = json.load(fh)
            metrics = spans.layer_metrics(dump["layers"], dump["spans"], dump["absent"])
            closure = metrics.pop("trace.self_sum_s") - metrics["trace.run_s"]
            if abs(closure) > 1e-6 * max(1.0, metrics["trace.run_s"]):
                print(f"self times miss the traced run time by {closure:.3g} s",
                      file=sys.stderr)
                correct = False
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(run_times)
    return {
        "correct": correct and s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
        "samples": {"children": len(run_times), "setups": len(setups)},
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "eulerlab" / "cli.py").is_file():
        print(f"no eulerlab source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    work = WORK / str(os.getpid())
    try:
        for name in names:
            res = measure(workloads.WORKLOADS[name], args.seed, args.seconds,
                          bool(args.trace), work / name)
            results[name] = res
            for metric, m in res["metrics"].items():
                print(f"{name:14s} {metric:28s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:14s} runs attempted {res['attempted']}, failed {res['failed']}, "
                  f"children {res['samples']['children']}, setups {res['samples']['setups']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if len(names) == 1:
        out = results[names[0]]
        out = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
