"""kturb benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {verify32,mms16,criterion} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; kturb is imported from ./src.
The workload runs in one fresh worker process (perfbench/worker.py)
with at most nproc threads.  A run does a fixed number of operations,
round(S / nominal seconds per operation), so two commits given the same
S do the same work.  With --trace 0 the last line of standard output
holds the end-to-end metrics; set-up time is the median over
SETUP_PROBES fresh processes.  With --trace 1 it holds the per-layer
metrics named in BENCHMARK.json, from a traced pass in a second fresh
worker (see README.md).  Details of each run go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
NOMINAL_OP_S = {"verify32": 1.0, "mms16": 2.0, "criterion": 0.005}
SETUP_PROBES = 6
DEADLINE_S = 170.0


def _worker(args, env, deadline):
    """Run the worker to completion and return its JSON line."""
    proc = subprocess.run([sys.executable, WORKER] + args, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_OP_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "kturb", "__init__.py")):
        print(f"no kturb sources under {ROOT}/src", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    ops = max(1, round(args.seconds / NOMINAL_OP_S[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--ops", str(ops)]
    deadline = start + DEADLINE_S
    half = 0 if args.trace else SETUP_PROBES // 2

    def probe():
        return _worker(common + ["--probe"], env, deadline)["setup_s"]

    try:
        # half the probes before the worker and half after, so that they
        # see the machine at two moments
        setup = [probe() for _ in range(half)]
        res = _worker(common, env, deadline)
        setup += [probe() for _ in range(half)]
        if args.trace:
            traced = _worker(common + ["--trace"], env, deadline)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3

    lat = res["latencies_s"]
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = dict(traced["per_layer"])
        layers["trace.overhead_s"] = sum(traced["latencies_s"]) - sum(lat)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = json.load(fh)["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in names}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": sum(lat), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(line, ops=ops, setup_samples_s=setup,
                       latencies_s=lat), fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
