"""Command-line entry point.

Subcommands: check (existence criterion), simulate, verify (simulate +
envelope assertions), mms (temporal convergence study).

Exit codes: 0 success, 2 verification/convergence failure, 3 invalid
parameters (including a malformed command line, and kappa2 <= 1/2 where
the theory requires more), 4 runtime blow-up or positivity loss.
"""

import argparse
import dataclasses
import os
import sys

from .envelopes import DataBounds
from .errors import (BlowUp, ConfigError, InconclusiveTail, Kappa2TooSmall,
                     PositivityViolation, VerificationFailure)
from .harness import (format_report, load_config, report_to_kv, run_check,
                      run_mms, run_simulate, run_verify)
from .harness.config import RunConfig

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INVALID = 3
EXIT_RUNTIME = 4

_BOUND_FLAGS = ("b_min", "omega_min", "omega_max", "b0_l1", "v0_l2sq",
                "lap_sum", "c_p")


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_INVALID on a malformed command line, such as a
    flag value of the wrong type: argparse's own code 2 means a
    verification failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(
        prog="kturb",
        description="pseudo-spectral two-equation turbulence model solver "
                    "and analytic envelope verifier")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH",
                        help="run configuration file")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--seed", type=int, help="initial data seed override")
        sp.add_argument("--t-end", type=float, dest="t_end",
                        help="final time override")
        sp.add_argument("--resolution", type=int, metavar="N",
                        help="cubic resolution override (N^3)")
        sp.add_argument("--constant-C", type=float, dest="constant_c",
                        help="criterion constant C override")
        sp.add_argument("--horizon", type=float,
                        help="criterion horizon (number or inf)")
        sp.add_argument("--kappa2", type=float, help="kappa2 override")

    sp = sub.add_parser("check", help="evaluate the existence criterion")
    common(sp)
    for name in _BOUND_FLAGS:
        sp.add_argument("--" + name.replace("_", "-"), type=float, dest=name,
                        help=f"explicit bound scalar {name}")

    for name, help_ in (("simulate", "advance the configured initial data"),
                        ("verify", "simulate and assert analytic envelopes"),
                        ("mms", "manufactured-solution temporal order check")):
        sp = sub.add_parser(name, help=help_)
        common(sp)
        if name != "mms":
            sp.add_argument("--dt", type=float,
                            help="fixed time step override")
    return p


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    params = cfg.params
    if args.kappa2 is not None:
        params = dataclasses.replace(params, kappa2=args.kappa2)
    control = cfg.control
    dt = getattr(args, "dt", None)   # only simulate and verify step
    if dt is not None:
        control = dataclasses.replace(control, dt_fixed=dt)
    initial = cfg.initial
    if args.seed is not None:
        initial = dataclasses.replace(initial, seed=args.seed)
    criterion = cfg.criterion
    if args.constant_c is not None:
        criterion = dataclasses.replace(criterion,
                                        c_omega_kappa=args.constant_c)
    if args.horizon is not None:
        criterion = dataclasses.replace(criterion, horizon=args.horizon)
    kw = {}
    if args.resolution is not None:
        kw["resolution"] = (args.resolution,) * 3
    if args.t_end is not None:
        kw["t_end"] = args.t_end
    if args.out is not None:
        kw["out_dir"] = args.out
    return dataclasses.replace(cfg, params=params, control=control,
                               initial=initial, criterion=criterion, **kw)


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return _apply_overrides(cfg, args)


def _explicit_bounds(args, cfg):
    given = {k: getattr(args, k) for k in _BOUND_FLAGS
             if getattr(args, k) is not None}
    if not given:
        return None
    defaults = dict(b_min=1.0, omega_min=1.0, omega_max=1.0, b0_l1=0.0,
                    v0_l2sq=0.0, lap_sum=0.0, c_p=1.0)
    defaults.update(given)
    return DataBounds(kappa2=cfg.params.kappa2, **defaults)


def _cmd_check(args):
    cfg = _load(args)
    bounds = _explicit_bounds(args, cfg)
    report = run_check(cfg, bounds=bounds)
    text = format_report(report)
    sys.stdout.write(text)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "report.txt"), "w") as fh:
            fh.write(text)
        with open(os.path.join(cfg.out_dir, "report.kv"), "w") as fh:
            fh.write(report_to_kv(report))
    return EXIT_OK


def _cmd_simulate(args):
    cfg = _load(args)
    result = run_simulate(cfg)
    s = result.final_state
    print(f"advanced to t = {s.t:.12g} with {len(result.records)} monitor "
          f"samples")
    if result.monitor_path:
        print(f"monitor stream: {result.monitor_path}")
    if result.snapshot_path:
        print(f"final snapshot: {result.snapshot_path}")
    return EXIT_OK


def _cmd_verify(args):
    cfg = _load(args)
    report = run_verify(cfg)
    print(f"verify: all envelope checks passed on {len(report.records)} "
          f"samples (tol_rel = {report.tol_rel:.3e})")
    print(f"criterion holds on [0, t_end]: {report.criterion_holds}")
    print(f"informational: X2 within Y2 envelope: {report.x2_within_y2}")
    return EXIT_OK


def _cmd_mms(args):
    cfg = _load(args)
    report = run_mms(cfg)
    print("dts: " + ", ".join(f"{dt:g}" for dt in report.dts))
    for name in ("v", "omega", "b"):
        orders = ", ".join(f"{p:.3f}" for p in report.orders[name])
        errs = ", ".join(f"{e:.3e}" for e in report.errors[name])
        print(f"{name}: errors [{errs}] observed orders [{orders}]")
    if not report.passed:
        print(f"FAIL: observed order below threshold {report.threshold}")
        return EXIT_VERIFY
    print(f"PASS: all observed orders >= {report.threshold}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"check": _cmd_check, "simulate": _cmd_simulate,
               "verify": _cmd_verify, "mms": _cmd_mms}[args.command]
    try:
        return handler(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            for line in exc.report.failures[:10]:
                print("  " + line, file=sys.stderr)
        return EXIT_VERIFY
    except (Kappa2TooSmall, InconclusiveTail, ConfigError, ValueError,
            OSError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PositivityViolation, BlowUp) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
