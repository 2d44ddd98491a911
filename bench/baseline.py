"""Repeat the benchmark over seeds and report medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --seconds 20 --out bench/baseline.json
    python3 bench/baseline.py --workloads solvers-1d --seeds 1-5 --no-trace

For every workload it runs ``run.py`` once per seed with ``--trace 0``,
then once with ``--trace 1`` on the first seed.  For each end-to-end
metric it reports the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    env = json.loads(lines[0].partition(": ")[2])
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seeds = seed_range(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        results = []
        for seed in seeds:
            res, report["environment"] = run_once(name, seed, args.seconds, 0)
            results.append(res)
            vals = ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{name} seed {seed}: correct {res['correct']}, {vals}", flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m: dict(summarize([r["metrics"][m]["value"] for r in results]),
                                   unit=results[0]["metrics"][m]["unit"])
                           for m in results[0]["metrics"]},
        }
        for m, s in entry["end_to_end"].items():
            print(f"{name} {m}: median {s['median']:.4g} {s['unit']}, "
                  f"spread {s['spread']:.4f}", flush=True)
        if not args.no_trace:
            traced, _ = run_once(name, seeds[0], args.seconds, 1)
            entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][name] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
