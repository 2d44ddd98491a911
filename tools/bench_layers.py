"""Time the spectral stage, the marker sampler, the diagnostics records and a
256^2 run in two source trees.

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
- ``diagnostics_128_ms``: one Euler diagnostics record
  (``euler2d._diagnostics``) at 128^2 with the Casimir powers 2, 3 and 4,
  called as the run calls it at a step: with the vorticity samples the
  step made when the tree's signature takes them, else from the
  coefficients alone; median of 200;
- ``ipm_emit_128_ms``: one IPM diagnostics record at 128^2 (the ``emit``
  callback that ``ipm.ipm_run`` hands to ``march``, taken from a run of
  zero length), median of 200;
- ``run_256``: ``euler2d.run`` on seeded band noise at 256^2 with the
  shape of the ``euler-256`` benchmark workload (t_end 5, cfl 0.4,
  diagnostics every 1.25, no snapshots): wall time, steps, ms per step and
  minor page faults (``ru_minflt``) per step.

With ``--gates`` the tool also times, per tree and round, the acceptance
gates 03, 06 and 07 with pytest in the checkout that holds the source tree
(``SRC/../tests``).  The output is one JSON object: per metric, the values
of every round and their median for each tree, plus the environment.  All
inputs are seeded, so both trees do the same arithmetic.
"""

from __future__ import annotations

import argparse
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

GATES = ("test_gate_03_steady_state_preservation", "test_gate_06_weber_invariant",
         "test_gate_07_twisting")

# run by each child with PYTHONPATH set to one source tree
_CHILD = r"""
import inspect, json, resource, statistics, time
import numpy as np
from eulerlab import euler2d, fields, ipm, lagrangian, operators, presets, stepping
from eulerlab.grids import Grid2


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
    stage = euler2d._StageEval(grid, markers=False)
    y = (omega.coeffs.copy(),)
    if "out" in inspect.signature(stage.__call__).parameters:
        out = (np.empty(grid.coeff_shape, np.complex128),)
        return lambda: stage(0.0, y, out)
    return lambda: stage(0.0, y)


def sampler_call(grid, omega, points):
    u1c, u2c = operators.stream_velocity(omega.coeffs, grid)
    if "work" in inspect.signature(lagrangian.VelocitySampler.__init__).parameters:
        work, out = fields.Workspace(), np.empty((points.shape[0], 2))
        return lambda: lagrangian.VelocitySampler(grid, u1c, u2c, work)(points, out)
    return lambda: lagrangian.VelocitySampler(grid, u1c, u2c)(points)


def diagnostics_call(grid, omega):
    c, powers = omega.coeffs, (2, 3, 4)
    if "vals" in inspect.signature(euler2d._diagnostics).parameters:
        vals, work = fields.to_values(c), fields.Workspace()
        return lambda: euler2d._diagnostics(grid, c, 1.0, 0.0, powers, vals, work)
    entries = stepping.casimir_entries(powers, "omega")
    return lambda: euler2d._diagnostics(grid, c, 1.0, 0.0, entries)


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
    if len(inspect.signature(emit).parameters) == 4:
        return lambda: emit(0.0, y, 0, None)
    return lambda: emit(0.0, y, 0)


res = {}
for n in (96, 128, 256):
    res[f"stage_{n}_ms"] = median_ms(stage_call(*band(n)))
grid, omega = band(96)
points = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(4096, 2))
res["sampler_96_ms"] = median_ms(sampler_call(grid, omega, points))
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
print(json.dumps(res))
"""


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
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        metrics[key] = entry
    report = {"environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                              "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
                              "machine": platform.machine()},
              "rounds": args.rounds, "metrics": metrics}
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
