"""Time the spectral stage, the marker sampler, the Weber check, the
diagnostics records, a 256^2 run, a 96^2 run with markers, the n = 1024
self-similar solve, the 1D sup refinement and the n = 65536 CLM run in two
source trees, with the memory peaks of the first three.

Usage::

    python tools/bench_layers.py PARENT_SRC CHANGE_SRC [--rounds 3] [--gates]
                                 [--out BENCH.json]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold an ``eulerlab``
package (the ``src`` directory of two checkouts), as for
``tools/compare_runs.py``.  Each round runs one fresh child per tree, parent
first, and each child measures in-process:

- ``stage_<n>_ms``: one 2D Euler RK4 stage (velocity, two inverse
  transforms, transport) at n^2, n = 96, 128, 256, median of 200 calls;
- ``sampler_96_ms``: one marker sampler build plus one sample of 4,096
  points at 96^2, median of 200;
- ``weber_96_ms``: one ``euler2d.weber_residual`` of a 64^2 marker
  lattice over that 96^2 flow, median of 50;
- ``stage_<n>_peak_kib``, ``sampler_96_peak_kib`` and
  ``weber_96_peak_kib``: the ``tracemalloc`` peak of one more such call,
  counted from before its inputs and workspace are made (so with warm
  caches, but with the call's whole working set), in KiB;
- ``diagnostics_128_ms``: one Euler diagnostics record
  (``euler2d._diagnostics``) at 128^2 with the Casimir powers 2, 3 and 4,
  called as the run calls it at a step, with the vorticity samples the
  step made; median of 200;
- ``ipm_emit_128_ms``: one IPM diagnostics record at 128^2 (the ``emit``
  callback that ``ipm.ipm_run`` hands to ``march``, taken from a run of
  zero length), median of 200;
- ``run_256``: ``euler2d.run`` on seeded band noise at 256^2 with the
  shape of the ``euler-256`` benchmark workload (t_end 5, cfl 0.4,
  diagnostics every 1.25, no snapshots): wall time, steps, ms per step and
  minor page faults (``ru_minflt``) per step;
- ``run_markers_96``: ``euler2d.run`` at 96^2 with a 64^2 marker lattice,
  with the shape of the ``markers-96`` benchmark workload
  (``shear_plus_band`` seed 1, kmax 3, rms 0.02, t_end 2 pi, cfl 0.4,
  diagnostics every pi/2): wall time, steps, ms per step, and marker
  sampler builds and sampled points per flow step.  A short run with
  markers comes first, so the timed run finds the cached spline symbols
  and its workspace sizes warm;
- ``selfsim_1024_build_ms`` and ``selfsim_1024_newton_ms``: building what
  a solve caches of the operators of a fresh n = 1024, L = 20
  ``selfsim.ProfileProblem``, and ``selfsim.newton_solve`` on it from the
  ``selfsim_recovery`` guess (5% bump, lam0 1.1, tol 1e-10); median of 5
  problems.  The build is timed as the solve's own first calls, the slope
  row and the residual of the guess, so it measures whatever a tree
  caches there (the dense operators, or their kernels and closure vectors
  that row blocks are formed from at every use);
- ``refined_sup_65536_ms``: one ``models1d.refined_sup`` call on the
  n = 65536 CLM datum of the ``solvers-1d`` benchmark workload (cosine,
  amplitude 20), median of 30;
- ``clm_65536_run_ms``: ``models1d.model_run`` of that datum with the
  shape of the CLM run of ``solvers-1d`` (t_end 0.2, cfl 0.2, sup cap
  10500), after one warm run, median of 3.

Each round also measures start-up per tree, in fresh interpreters:

- ``import_cli_ms``: the time ``from eulerlab import cli, config`` takes,
  timed inside the interpreter, median of 15 interpreters;
- ``scipy_modules_at_import``: how many ``scipy.*`` modules that import
  leaves in ``sys.modules``;
- ``importtime_cli_ms``: the cumulative time of ``eulerlab.cli`` that
  ``python -X importtime -c "from eulerlab import cli"`` reports;
- ``markers_96_maxrss_mb`` and ``scipy_modules_after_markers_96``: the
  peak resident set (``ru_maxrss``) of one interpreter that imports the
  CLI and dispatches a short 96^2 run with a 64^2 marker lattice (the
  ``markers-96`` shape, to t = 0.5), and how many ``scipy.*`` modules it
  has loaded by then;
- ``selfsim_1024_maxrss_mb`` and ``selfsim_2048_maxrss_mb``: the same for
  one interpreter that dispatches the ``selfsim_recovery`` shape (L = 20,
  5% bump, lam0 1.1) at n = 1024 and at n = 2048;
- ``clm_65536_minflt``: the minor page faults (``ru_minflt``) of that CLM
  run in one interpreter that has made one such run before and nothing
  else: how often the allocator hands memory back to the system and
  faults it in again, a count that repeats exactly from run to run where
  the time does not.  It is not taken in the child above, whose 2D runs
  have raised glibc's mmap threshold past the CLM temporaries, so that
  they never leave the heap;
- ``euler_256_peak_rss_mb`` and ``solvers_1d_peak_rss_mb``: the peak
  resident set of one interpreter that dispatches the runs of the
  ``euler-256`` or of the ``solvers-1d`` benchmark workload (their configs
  for seed 1, from ``bench/workloads.py``, back to back), read as
  ``VmHWM`` from ``/proc/self/status``: unlike ``ru_maxrss``, which the
  benchmark reports and which starts at the resident set of the process
  that started the child, it counts the interpreter's own pages only
  (Linux).

The interpreters inherit the environment, so whether they can reuse
cached byte code (``PYTHONDONTWRITEBYTECODE``) is recorded with the
results.

With ``--gates`` the tool also times, per tree and round, the acceptance
gates 03, 06 and 07 with pytest in the checkout that holds the source tree
(``SRC/../tests``).  The output is one JSON object: per metric, the values
of every round and their median for each tree, and the ratio of the
medians (null where the parent's is 0), plus the environment.  All
inputs are seeded, so both trees do the same arithmetic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]

GATES = ("test_gate_03_steady_state_preservation", "test_gate_06_weber_invariant",
         "test_gate_07_twisting")

# run by each child with PYTHONPATH set to one source tree
_CHILD = r"""
import json, resource, statistics, time, tracemalloc
import numpy as np
from eulerlab import euler2d, fields, ipm, lagrangian, models1d, operators, presets, selfsim
from eulerlab.grids import Grid1, Grid2


def band(n, seed=1, sup_u=0.18):
    grid = Grid2(n, n)
    omega = presets.random_bandlimited(grid, seed, kmax=4, rms=1.0)
    return grid, omega * (sup_u / euler2d.biot_savart(omega).norm_inf())


def median_ms(call, reps=200, warm=10):
    for _ in range(warm):
        call()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def stage_call(grid, omega):
    stage = euler2d._StageEval(grid)
    c, out = omega.coeffs.copy(), np.empty(grid.coeff_shape, np.complex128)
    return lambda: stage(0.0, c, out)


def sampler_call(grid, omega, points):
    u1c, u2c = operators.stream_velocity(omega.coeffs, grid)
    work, out = fields.Workspace(), np.empty((points.shape[0], 2))
    return lambda: lagrangian.VelocitySampler(grid, u1c, u2c, work)(points, out)


def diagnostics_call(grid, omega):
    c, vals, work = omega.coeffs, fields.to_values(omega.coeffs), fields.Workspace()
    return lambda: euler2d._diagnostics(grid, c, 1.0, 0.0, (2, 3, 4), vals, work)


def ipm_emit_call(grid, rho):
    grabbed, real_march = {}, ipm.march

    def grab(rhs, y, t_end, dt_rule, diag_every, emit, **kwargs):
        grabbed.update(emit=emit, y=y)
        return real_march(rhs, y, t_end, dt_rule, diag_every, emit, **kwargs)

    ipm.march = grab
    try:
        ipm.ipm_run(rho, 0.0)
    finally:
        ipm.march = real_march
    emit, y = grabbed["emit"], grabbed["y"]
    return lambda: emit(0.0, y, 0, None)


# the tracemalloc peak of make() and one call of what it returns, in KiB
def peak_kib(make):
    tracemalloc.start()
    try:
        make()()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def weber_call(grid, omega, m):
    state = euler2d.EulerState(omega, 0.0)
    u0, lattice = state.velocity(), lagrangian.ParticleSet.lattice(m, grid.lx, grid.ly)
    return lambda: euler2d.weber_residual(state, lattice, u0)


res = {}
for n in (96, 128, 256):
    grid, omega = band(n)
    res[f"stage_{n}_ms"] = median_ms(stage_call(grid, omega))
    res[f"stage_{n}_peak_kib"] = peak_kib(lambda: stage_call(grid, omega))
grid, omega = band(96)
points = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(4096, 2))
res["sampler_96_ms"] = median_ms(sampler_call(grid, omega, points))
res["sampler_96_peak_kib"] = peak_kib(lambda: sampler_call(grid, omega, points))
res["weber_96_ms"] = median_ms(weber_call(grid, omega, 64), reps=50, warm=3)
res["weber_96_peak_kib"] = peak_kib(lambda: weber_call(grid, omega, 64))
res["diagnostics_128_ms"] = median_ms(diagnostics_call(*band(128)))
res["ipm_emit_128_ms"] = median_ms(ipm_emit_call(*band(128)))

grid, omega = band(256)
euler2d.run(omega, 0.2, cfl=0.4, diag_every=0.1, casimirs=(4,))  # warm-up
steps = [0]
real_cfl = euler2d.cfl_dt


def counting_cfl(*args):
    steps[0] += 1
    return real_cfl(*args)


euler2d.cfl_dt = counting_cfl
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
euler2d.run(omega, 5.0, cfl=0.4, diag_every=1.25, casimirs=(4,))
wall = time.perf_counter() - t0
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
res.update(run_256_s=wall, run_256_steps=steps[0], run_256_ms_per_step=1e3 * wall / steps[0],
           run_256_minflt=faults, run_256_minflt_per_step=faults / steps[0])

sampled = {"builds": 0, "points": 0}
Sampler = lagrangian.VelocitySampler
real_init, real_call = Sampler.__init__, Sampler.__call__


def counting_init(self, *args, **kwargs):
    sampled["builds"] += 1
    real_init(self, *args, **kwargs)


def counting_call(self, points, *args, **kwargs):
    sampled["points"] += points.shape[0]
    return real_call(self, points, *args, **kwargs)


grid = Grid2(96, 96)
omega = presets.shear_plus_band(grid, seed=1, kmax=3, rms=0.02)
euler2d.run(omega, 0.1, cfl=0.4, diag_every=0.1, casimirs=(), marker_lattice=64)  # warm-up
Sampler.__init__, Sampler.__call__ = counting_init, counting_call
steps[0] = 0
t0 = time.perf_counter()
euler2d.run(omega, 2.0 * np.pi, cfl=0.4, diag_every=0.5 * np.pi, casimirs=(), marker_lattice=64)
wall = time.perf_counter() - t0
res.update(run_markers_96_s=wall, run_markers_96_steps=steps[0],
           run_markers_96_ms_per_step=1e3 * wall / steps[0],
           run_markers_96_builds_per_step=sampled["builds"] / steps[0],
           run_markers_96_points_per_step=sampled["points"] / steps[0])

builds, solves = [], []
for _ in range(5):
    t0 = time.perf_counter()
    problem = selfsim.ProfileProblem(n=1024, L=20.0)
    guess = presets.perturbed_profile(problem, 0.05)
    problem.slope_row, selfsim.profile_residual(guess, 1.1, problem)
    t1 = time.perf_counter()
    sol = selfsim.newton_solve(problem, guess, lam0=1.1)
    assert sol.converged
    builds.append(t1 - t0)
    solves.append(time.perf_counter() - t1)
res.update(selfsim_1024_build_ms=1e3 * statistics.median(builds),
           selfsim_1024_newton_ms=1e3 * statistics.median(solves))

datum = presets.clm_cosine(Grid1(65536), 20.0)
res["refined_sup_65536_ms"] = median_ms(lambda: models1d.refined_sup(datum), reps=30, warm=3)
res["clm_65536_run_ms"] = median_ms(
    lambda: models1d.model_run(datum, "clm", t_end=0.2, cfl=0.2, omega_cap=10500.0), reps=3, warm=1)
print(json.dumps(res))
"""


# timed start-up of one fresh interpreter
_STARTUP = r"""
import json, sys, time
t0 = time.perf_counter()
from eulerlab import cli, config
ms = 1e3 * (time.perf_counter() - t0)
print(json.dumps([ms, sum(m.startswith("scipy.") for m in sys.modules)]))
"""

STARTUP_RUNS = 15

# a short markers-96 run in a fresh interpreter: its peak RSS and scipy modules
_MARKERS_FOOTPRINT = r"""
import json, resource, sys, tempfile
from eulerlab import cli, config
text = ("system = euler2d\nnx = 96\nny = 96\npreset = shear_plus_band\nseed = 1\n"
        "kmax = 3\nrms = 0.02\nt_end = 0.5\ncfl = 0.4\ndiag_every = 0.25\n"
        "marker_lattice = 64\n")
with tempfile.TemporaryDirectory() as out:
    assert cli.dispatch(config.parse_config(text), out) == cli.EXIT_OK
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  sum(m.startswith("scipy.") for m in sys.modules)]))
"""


# the selfsim_recovery shape at n = %d in a fresh interpreter: its peak RSS
_SELFSIM_FOOTPRINT = r"""
import json, resource, tempfile
from eulerlab import cli, config
text = ("system = selfsim\nn = %d\ndomain_half_width = 20.0\nguess = perturbed\n"
        "perturb = 0.05\nlam0 = 1.1\ntol = 1e-10\n")
with tempfile.TemporaryDirectory() as out:
    assert cli.dispatch(config.parse_config(text), out) == cli.EXIT_OK
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
"""


# the minor page faults of a warm CLM run of the solvers-1d shape in a
# fresh interpreter
_CLM_FAULTS = r"""
import json, resource
from eulerlab import models1d, presets
from eulerlab.grids import Grid1
datum = presets.clm_cosine(Grid1(65536), 20.0)
models1d.model_run(datum, "clm", t_end=0.2, cfl=0.2, omega_cap=10500.0)
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
models1d.model_run(datum, "clm", t_end=0.2, cfl=0.2, omega_cap=10500.0)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0))
"""


# (config, expected exit) pairs run back to back in a fresh interpreter:
# its own peak RSS (VmHWM), in MiB
_HWM_FOOTPRINT = r"""
import json, sys, tempfile
from eulerlab import cli, config
for text, expected in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as out:
        assert cli.dispatch(config.parse_config(text), out) == expected
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
print(json.dumps(int(hwm.split()[1]) / 1024.0))
"""


@functools.cache
def _workload_runs(name: str) -> str:
    """The (config, expected exit) pairs of a benchmark workload for seed 1,
    as JSON.

    They are made in a child: the transforms of the ``euler-256`` config's
    ``rms`` would raise this process's resident set, which the
    ``ru_maxrss`` rows of the children it starts afterwards would read as
    their floor."""
    script = ("import json, workloads; print(json.dumps([[run.config, run.expected_exit] "
              f"for run in workloads.WORKLOADS[{name!r}].make_runs(1)]))")
    return subprocess.run([sys.executable, "-B", "-c", script], cwd=ROOT / "bench", check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def _fresh(script: str, env: dict, *args: str):
    """Run ``script`` in a fresh interpreter; the JSON of its last line."""
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _startup(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(STARTUP_RUNS):
        out = subprocess.run([sys.executable, "-c", _STARTUP], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        ms, count = json.loads(out.strip().splitlines()[-1])
        times.append(ms)
    trace = subprocess.run([sys.executable, "-X", "importtime", "-c", "from eulerlab import cli"],
                           env=env, check=True, stderr=subprocess.PIPE, text=True).stderr
    line = next(ln for ln in trace.splitlines() if ln.split("|")[-1].strip() == "eulerlab.cli")
    maxrss_mb, markers_count = _fresh(_MARKERS_FOOTPRINT, env)
    return {"import_cli_ms": statistics.median(times),
            "scipy_modules_at_import": count,
            "importtime_cli_ms": int(line.split("|")[1]) / 1e3,
            "markers_96_maxrss_mb": maxrss_mb,
            "scipy_modules_after_markers_96": markers_count,
            "selfsim_1024_maxrss_mb": _fresh(_SELFSIM_FOOTPRINT % 1024, env),
            "selfsim_2048_maxrss_mb": _fresh(_SELFSIM_FOOTPRINT % 2048, env),
            "clm_65536_minflt": _fresh(_CLM_FAULTS, env),
            "euler_256_peak_rss_mb": _fresh(_HWM_FOOTPRINT, env, _workload_runs("euler-256")),
            "solvers_1d_peak_rss_mb": _fresh(_HWM_FOOTPRINT, env, _workload_runs("solvers-1d"))}


def _child(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _gates(src: Path) -> dict:
    checkout = src.resolve().parent
    env = dict(os.environ, PYTHONPATH=str(src))
    res = {}
    for name in GATES:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        f"tests/test_acceptance.py::{name}"], cwd=checkout, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        res[f"gate_{name.split('_')[2]}_s"] = time.perf_counter() - t0
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--gates", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent, "change": args.change}
    runs = {label: [] for label in trees}
    for _ in range(args.rounds):
        for label, src in trees.items():
            res = _child(src)
            res.update(_startup(src))
            if args.gates:
                res.update(_gates(src))
            runs[label].append(res)
            print(label, json.dumps(res), file=sys.stderr)

    metrics = {}
    for key in runs["parent"][0]:
        entry = {}
        for label in trees:
            values = [r[key] for r in runs[label]]
            entry[label] = {"median": statistics.median(values), "values": values}
        parent = entry["parent"]["median"]
        entry["change_over_parent"] = entry["change"]["median"] / parent if parent else None
        metrics[key] = entry
    report = {"environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                              "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
                              "machine": platform.machine(),
                              "PYTHONDONTWRITEBYTECODE":
                                  os.environ.get("PYTHONDONTWRITEBYTECODE", "")},
              "rounds": args.rounds, "metrics": metrics}
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
