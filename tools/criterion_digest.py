"""sha1 of the criterion reports on the `criterion` benchmark inputs.

    python tools/criterion_digest.py [--seeds 1 2 3] [--src DIR]

For each seed it draws the inputs as the `criterion` workload of
`perfbench/workloads.py` draws them (5000 operations), runs each through
that workload's `run_op` (`run_check`, `format_report`, `report_to_kv`)
with every warning turned into an error, and prints one line per seed:
the seed and the sha1 of `repr(report)`, the text report and the
key-value report of every operation, in order.  Two checkouts print the
same digests when their criterion reports are byte-identical.

--src imports kturb from another checkout's `src` (for example the parent
commit's); the workload module is always read from this checkout.
"""

import argparse
import hashlib
import os
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPERATIONS = 5000


def digest(seed):
    import workloads
    work = workloads.Criterion(seed, OPERATIONS, None)
    work.setup()
    h = hashlib.sha1()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(OPERATIONS):
            report, text, kv = work.run_op(i)
            for part in (repr(report), text, kv):
                h.update(part.encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    for seed in args.seeds:
        print(seed, digest(seed), flush=True)


if __name__ == "__main__":
    main()
