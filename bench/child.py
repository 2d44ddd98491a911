"""One measured child process: import the CLI, parse configs, dispatch them.

Usage: ``python3 child.py SPEC.json``.  The spec names the source tree,
the config files, one output directory per config, whether to trace and
where to write the result.  The result holds the monotonic time at which
the CLI was imported and every config parsed (the parent subtracts its
spawn time to get the set-up time), each run's exit code and wall time,
and the peak resident memory.
"""

import json
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from eulerlab import cli, config

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    configs = [config.parse_config_file(path) for path in spec["configs"]]
    ready = time.monotonic()

    runs = []
    dispatch = tracer.wrap(spans.ROOT, cli.dispatch) if tracer else cli.dispatch
    for cfg, out in zip(configs, spec["outputs"]):
        t0 = time.perf_counter()
        try:
            code = dispatch(cfg, out)
        except Exception:  # a crashed run is a failed run, not a crashed benchmark
            traceback.print_exc()
            code = None
        runs.append({"exit": code, "seconds": time.perf_counter() - t0})

    if tracer:
        tracer.dump(spec["spans"])
    result = {"ready": ready, "runs": runs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
