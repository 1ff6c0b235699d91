"""One benchmark process: runs one workload and prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --ops K [--trace]
    python3 perfbench/worker.py --workload NAME --seed N --ops K --probe

--probe only times the set-up of a fresh process (import kturb, then
the workload's `setup`) and exits.  Otherwise the worker sets up, runs
the K operations with their output checks, and reports the latencies
and peak memory.  With --trace it installs the span recorder before
the set-up, so that set-up and operations are traced from a cold
process, and also reports the per-layer metrics.  run.py starts this
script; it is not meant to be started by hand.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")


def _run_ops(wl, tracer=None):
    """Run every operation once and check each output outside the timing.

    An operation that raises or fails its check counts as failed; its
    time is kept with the others.
    """
    latencies, failed = [], 0
    for i in range(wl.n_ops):
        error = None
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run_op(i)
            else:
                with tracer.span("bench.op"):
                    out = wl.run_op(i)
        except Exception as exc:
            error = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            problems = [f"raised {error!r}"]
        else:
            try:
                problems = wl.check(i, out)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problems = [f"output check raised {exc!r}"]
        if problems:
            failed += 1
            print(f"{wl.name} op {i}: " + "; ".join(problems), file=sys.stderr)
    return latencies, failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # the first import of the package is part of set-up, so it is timed
    t0 = time.perf_counter()
    import kturb  # noqa: F401
    import kturb.harness  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    t2 = time.perf_counter()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.ops, workdir)
    if tracer is None:
        wl.setup()
    else:
        tracer.enabled = True
        with tracer.span("bench.setup"):
            wl.setup()
        tracer.enabled = False
    t3 = time.perf_counter()
    if args.probe:
        print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
        return 0

    try:
        latencies, failed = _run_ops(wl, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "attempted": wl.n_ops,
        "failed": failed,
        "latencies_s": latencies,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
