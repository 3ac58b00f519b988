"""One pipeline run in a fresh process, as a user's `softfem run` call.

usage: python3 child.py --config C --out DIR --result R [--trace]

The parent starts this process and measures set-up from its own clock
reading taken just before the start; CLOCK_MONOTONIC is shared by all
processes on the machine. softfem must be importable (the parent sets
PYTHONPATH to the checkout's `src`).
"""

import argparse
import json
import resource
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import softfem.cli

    with open(args.config) as fh:
        json.load(fh)
    ready = time.monotonic()

    tracer = None
    clock = time.perf_counter
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
        clock = tracer.clock
    try:
        t0 = clock()
        code = softfem.cli.main(["run", args.config, "--out", args.out])
        run_s = clock() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "ready": ready,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(run_s)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
