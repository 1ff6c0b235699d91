"""Per-layer timings of the solver, written to one BENCH_<n>.json file.

    PYTHONPATH=src python tools/bench_layers.py --out BENCH_6.json \
        [--label TEXT] [--src DIR] [--parent FILE] [--skip-tier1]

At 16^3, 32^3 and 64^3 it times one tendency-kernel call, the 17-field
inverse and the 14-field forward transform the kernel makes, one RK4
step of `advance` (its guard included), and one `Monitor.sample` of a
state that `advance` handed its callback (`monitor_sample_ms`), on the
acceptance initial data (band 5, default ModelParams).  The two
transform rows repeat the calls that one kernel call makes, with the
kernel's own arrays and keywords, so they time whatever the timed
checkout's kernel does.  These layer rows are timed in LAYER_ROUNDS (5)
fresh processes, and a row is the min and median of the per-process
medians, in ms, those medians as its samples, and their interquartile
range over the median, `iqr_over_median`: the spread between
processes, so a difference between two checkouts smaller than that
ratio does not resolve.  It also times one 16^3 manufactured-solution
study (`run_mms` at t_end 0.04, default dts) as `mms_study_ms`, and
`full_report` with an infinite horizon on fixed-seed random bounds,
drawn as the `criterion` benchmark workload draws them, as
`criterion_report_ms`; each of those rows holds the min and median of
several calls in this process, every sample and `iqr_over_median`.
The printed summary leaves the samples out.  (The `criterion_report_ms`
samples are of 300 different bounds, in the same order on every run, so
they can also be compared input by input.)
`import_ms` is the time of `import kturb, kturb.harness` in fresh
interpreters, with the number of `scipy` and `scipy.*` modules that
import loads.
It also runs the tier-1 suite once in a subprocess and records its wall
time and pass count.

--src times another checkout's package (for example the parent commit's
`src`).  Its layer rows go under "layers" and this checkout's under
"layers_this_checkout", the two checkouts' processes alternating and
each going first in every other round, so that a drift of the machine
falls on both.  --parent copies the layer
figures of an earlier output file into this one, under "parent".
--layers-only prints one process's raw layer samples, in seconds, as
JSON; the rounds run the tool so.
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np

SIZES = (16, 32, 64)
REPEATS = {16: 60, 32: 30, 64: 8}
STEPS_PER_CALL = 4
LAYER_ROUNDS = 5
MMS_REPEATS = 9
CRITERION_REPORTS = 300
IMPORT_REPEATS = 9
_IMPORT_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
import kturb, kturb.harness
t1 = time.perf_counter()
print(t1 - t0, sum(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


def _spread(times):
    """The min and median of times in ms, every sample, and the
    interquartile range over the median."""
    ms = np.asarray(times) * 1e3
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    return {"min": round(float(ms.min()), 4), "median": round(float(med), 4),
            "iqr_over_median": round(float((q3 - q1) / med), 4),
            "samples": [round(float(x), 4) for x in ms]}


def _timed(fn, prepare, repeats):
    """Times of fn() after prepare(), which is not timed."""
    times = []
    for _ in range(repeats):
        prepare()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _kernel_transforms(grid, kern, y_hat):
    """The inverse and the forward transform one call kern(y_hat) makes,
    as callables that repeat them with the kernel's own arguments."""
    calls = {}
    for name in ("irfft", "rfft"):
        def spy(*args, _name=name, _orig=getattr(grid, name), **kwargs):
            calls[_name] = (_orig, args, kwargs)
            return _orig(*args, **kwargs)
        setattr(grid, name, spy)
    try:
        kern(y_hat, 0.0)
    finally:
        del grid.irfft, grid.rfft
    return [lambda f=f, a=a, kw=kw: f(*a, **kw)
            for f, a, kw in (calls["irfft"], calls["rfft"])]


def _summary(value):
    """value without its lists of samples, for printing."""
    if isinstance(value, dict):
        return {k: _summary(v) for k, v in value.items() if k != "samples"}
    return value


def time_layers(kturb, n):
    """The layer rows at n^3 in this process, as lists of seconds."""
    from kturb.harness import (InitialDataSpec, Monitor, extract_bounds,
                               generate_initial)
    from kturb.dynamics import TendencyKernel

    g = kturb.TorusGrid(resolution=(n, n, n))
    params = kturb.ModelParams()
    state = generate_initial(InitialDataSpec(seed=1, band=5), g)
    reps = REPEATS[n]
    y_hat = state.spectrum()
    kern = TendencyKernel(g, params)
    out = np.empty_like(y_hat)
    kern(y_hat, 0.0, out=out)
    kernel = _timed(lambda: kern(y_hat, 0.0, out=out),
                    lambda: None, reps)
    inverse, forward = (_timed(call, lambda: None, reps)
                        for call in _kernel_transforms(g, kern, y_hat))

    dt = kturb.compute_dt(state, params, kturb.StepControl(dt_max=1.0))
    ctl = kturb.StepControl(dt_max=1.0, dt_fixed=dt)
    span = STEPS_PER_CALL * dt
    steps = _timed(lambda: kturb.advance(state, span, params, ctl),
                   lambda: None, max(3, reps // 3))

    handed = []
    kturb.advance(state, span, params, ctl, callbacks=[(1, handed.append)])
    mon = Monitor(extract_bounds(state, params))
    sample = _timed(lambda: mon.sample(handed[-1]), lambda: None, reps)
    return {
        "kernel_ms": kernel,
        "inverse17_ms": inverse,
        "forward14_ms": forward,
        "rk4_step_ms": list(np.asarray(steps) / STEPS_PER_CALL),
        "monitor_sample_ms": sample,
        "dt": dt,
    }


def _layers_in_process(src):
    """time_layers at every size, in a fresh interpreter that imports
    kturb from src."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--layers-only",
         "--src", src], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def time_layer_rounds(sides):
    """Each side's layer rows over LAYER_ROUNDS processes per side, the
    sides' processes alternating, and which side goes first alternating
    from round to round.  A row is the _spread of its per-process
    medians, so its iqr_over_median is the spread between processes."""
    runs = {name: [] for name in sides}
    for r in range(LAYER_ROUNDS):
        for name, src in list(sides.items())[::1 if r % 2 == 0 else -1]:
            runs[name].append(_layers_in_process(src))
    result = {}
    for name, rounds in runs.items():
        result[name] = {}
        for size, rows in rounds[0].items():
            result[name][size] = {
                row: _spread([np.median(r[size][row]) for r in rounds])
                for row in rows if row != "dt"}
            result[name][size]["dt"] = rows["dt"]
    return result


def time_mms_study():
    from kturb.harness import RunConfig, run_mms

    cfg = RunConfig(resolution=(16, 16, 16), t_end=0.04)
    run_mms(cfg)
    return _spread(_timed(lambda: run_mms(cfg), lambda: None, MMS_REPEATS))


def time_criterion_report(kturb):
    rng = np.random.default_rng(2)
    cases = []
    for _ in range(CRITERION_REPORTS):
        om_min = rng.uniform(0.05, 2.0)
        bounds = kturb.DataBounds(
            b_min=rng.uniform(0.01, 5.0), omega_min=om_min,
            omega_max=om_min * rng.uniform(1.0, 4.0),
            b0_l1=rng.uniform(0.0, 10.0), v0_l2sq=rng.uniform(0.0, 10.0),
            lap_sum=rng.uniform(0.0, 10.0), kappa2=rng.uniform(1.0, 3.0),
            c_p=rng.uniform(0.2, 5.0))
        c = math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
        cases.append((bounds, kturb.CriterionConfig(c_omega_kappa=c)))
    kturb.full_report(*cases[0])
    times = []
    for bounds, cfg in cases:
        t0 = time.perf_counter()
        kturb.full_report(bounds, cfg)
        times.append(time.perf_counter() - t0)
    return _spread(times)


def time_import(src):
    """_spread of the package import over fresh interpreters, and the
    scipy and scipy.* modules it loads."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        seconds, modules = out.stdout.split()
        times.append(float(seconds))
    return dict(_spread(times), scipy_modules=int(modules))


def run_tier1(root, src):
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {k: int(v) for v, k in re.findall(
        r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"wall_s": round(wall, 2), "summary": summary,
            "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "returncode": proc.returncode}


def main(argv=None):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    here = os.path.join(root, "src")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="output JSON path")
    ap.add_argument("--label", default="",
                    help="what was timed, for example a commit")
    ap.add_argument("--src", default=here,
                    help="directory holding the kturb package to time")
    ap.add_argument("--parent", help="earlier output whose layers to quote")
    ap.add_argument("--skip-tier1", action="store_true",
                    help="leave out the tier-1 run")
    ap.add_argument("--layers-only", action="store_true",
                    help="print one process's raw layer samples as JSON")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import scipy
    import kturb
    import kturb.grid

    if args.layers_only:
        print(json.dumps({f"{n}^3": time_layers(kturb, n) for n in SIZES}))
        return
    if not args.out:
        ap.error("--out is required")
    sides = {"src": src}
    if src != here:
        sides["this_checkout"] = here
    layers = time_layer_rounds(sides)
    result = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "packages": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "kturb": kturb.__version__},
        "label": args.label,
        "private_pocketfft": getattr(kturb.grid, "_pocketfft", None)
        is not None,
        "layer_rounds": LAYER_ROUNDS,
        "layers": layers["src"],
        "mms_study_ms": time_mms_study(),
        "criterion_report_ms": time_criterion_report(kturb),
        "import_ms": time_import(src),
    }
    if "this_checkout" in layers:
        result["layers_this_checkout"] = layers["this_checkout"]
    if not args.skip_tier1:
        result["tier1"] = run_tier1(os.path.dirname(src), src)
    if args.parent:
        with open(args.parent) as fh:
            parent = json.load(fh)
        result["parent"] = {k: parent[k] for k in (
            "label", "layers", "mms_study_ms", "criterion_report_ms",
            "import_ms", "tier1") if k in parent}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(_summary({k: result[k] for k in (
        "layers", "layers_this_checkout", "mms_study_ms",
        "criterion_report_ms", "import_ms") if k in result}), indent=1))


if __name__ == "__main__":
    main()
