"""sha1 of the solver's outputs on two verify runs, and the MMS errors.

    python tools/solver_digest.py [--src DIR]

It first prints the sha1 of the initial data of the two verify runs,
`generate_initial` with the default `InitialDataSpec` at 16^3 seed 4
and 32^3 seed 1: one of the velocity rows 0-2 and one of the omega and
b rows 3-4, each as little-endian float64 bytes.  Then it runs `kturb
verify --resolution 16 --seed 4 --t-end 0.5` and `kturb verify
--resolution 32 --seed 1 --t-end 0.06 --dt 0.003`, each into a
temporary directory, and prints for each the sha1 of the
`monitor.csv` and `final.snap` it writes and the worst energy-identity
defect |energy_lhs - energy_rhs| over the `monitor.csv` rows, then one
line per `monitor.csv` column with the sha1 of that column's text, so
two checkouts' outputs show which columns a change moved; the
command's own report is not shown.  It then runs the 16^3
manufactured-solution study (`run_mms` at t_end 0.04 and its default
dts, the `mms16` benchmark configuration) and prints its v, omega and
b errors at each dt as `float.hex`.
Last it runs the README's failing example, `kturb simulate --resolution
16 --seed 0 --t-end 9 --dt 0.02`, and prints its exit code and its
`runtime failure:` line.  Two checkouts print the same lines when their
solver outputs and failure paths are the same.

--src imports kturb from another checkout's `src` (for example the parent
commit's).
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INITIAL_DATA = ((16, 4), (32, 1))
VERIFY_RUNS = (
    ["--resolution", "16", "--seed", "4", "--t-end", "0.5"],
    ["--resolution", "32", "--seed", "1", "--t-end", "0.06", "--dt", "0.003"],
)
FAILING_RUN = ["simulate", "--resolution", "16", "--seed", "0",
               "--t-end", "9", "--dt", "0.02"]


def _sha1(path):
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def initial_digest(n, seed):
    from kturb import TorusGrid
    from kturb.harness import InitialDataSpec, generate_initial
    y = generate_initial(InitialDataSpec(seed=seed),
                         TorusGrid(resolution=(n, n, n))).y
    return [hashlib.sha1(rows.astype("<f8").tobytes()).hexdigest()
            for rows in (y[:3], y[3:])]


def verify_digest(flags):
    from kturb import cli
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify"] + flags + ["--out", out])
        if code != 0:
            raise SystemExit(f"kturb verify {' '.join(flags)} exited {code}")
        monitor = os.path.join(out, "monitor.csv")
        cols = np.genfromtxt(monitor, delimiter=",", names=True)
        defect = np.max(np.abs(cols["energy_lhs"] - cols["energy_rhs"]))
        with open(monitor) as fh:
            columns = zip(*(line.rstrip("\n").split(",") for line in fh))
        column_sha1s = [
            (name, hashlib.sha1("\n".join(values).encode()).hexdigest())
            for name, *values in columns]
        return ([_sha1(monitor), _sha1(os.path.join(out, "final.snap")),
                 f"defect {defect:.3e}"], column_sha1s)


def mms_errors():
    from kturb.harness import RunConfig, run_mms
    report = run_mms(RunConfig(resolution=(16, 16, 16), t_end=0.04))
    return {name: [err.hex() for err in errs]
            for name, errs in report.errors.items()}


def failure_line():
    from kturb import cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(FAILING_RUN)
    lines = [ln for ln in err.getvalue().splitlines()
             if ln.startswith("runtime failure:")]
    return f"exit {code}: " + (lines[0] if lines else "no runtime failure")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    for n, seed in INITIAL_DATA:
        v, scalars = initial_digest(n, seed)
        print(f"initial {n}^3 seed {seed}: v {v} omega,b {scalars}",
              flush=True)
    for flags in VERIFY_RUNS:
        files, column_sha1s = verify_digest(flags)
        print(" ".join(flags), *files, flush=True)
        for name, sha1 in column_sha1s:
            print("  column", name, sha1, flush=True)
    for name, errs in mms_errors().items():
        print("mms", name, *errs, flush=True)
    print(failure_line(), flush=True)


if __name__ == "__main__":
    main()
