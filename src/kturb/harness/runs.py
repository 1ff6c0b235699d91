"""Run orchestration: simulate, verify, manufactured-solution order
checks, and the criterion front end."""

import dataclasses
import math
import os
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import ops
from ..criterion import CriterionReport, check_glob_add, full_report
from ..dynamics import Forcing, State, TendencyKernel
from ..envelopes import EnvelopeSet, require_large_kappa2
from ..errors import VerificationFailure
from ..integrator import StepControl, advance, compute_dt
from .config import RunConfig
from .initial import extract_bounds, generate_initial
from .monitor import Monitor, write_csv
from .snapshot import write_snapshot


@dataclass
class SimulationResult:
    final_state: State
    records: list
    bounds: object
    monitor_path: Optional[str] = None
    snapshot_path: Optional[str] = None


def run_simulate(config: RunConfig) -> SimulationResult:
    """Advance the configured initial data to t_end, sampling monitors
    every monitor_every steps.  Partial monitor output is flushed even
    when the march aborts."""
    grid = config.make_grid()
    # validated with its y_hat set, which extract_bounds, the first
    # sample and advance share
    state0 = generate_initial(config.initial, grid)
    bounds = extract_bounds(state0, config.params, config.c_p_override)
    mon = Monitor(bounds, state0.t)
    mon.sample(state0)

    out = config.out_dir
    if out:
        os.makedirs(out, exist_ok=True)
    callbacks = [(config.monitor_every, mon.sample)]
    snap_count = [0]
    if out and config.snapshot_every > 0:
        def snap_cb(state):
            snap_count[0] += 1
            write_snapshot(os.path.join(out, f"state_{snap_count[0]:05d}.snap"),
                           state, config.params)
        callbacks.append((config.snapshot_every, snap_cb))

    monitor_path = os.path.join(out, "monitor.csv") if out else None
    try:
        final = advance(state0, config.t_end, config.params, config.control,
                        callbacks=callbacks)
        if final.t > mon.records[-1].t:
            mon.sample(final)
    finally:
        mon.finalize()
        if monitor_path:
            write_csv(monitor_path, mon.records)
    snapshot_path = None
    if out:
        snapshot_path = os.path.join(out, "final.snap")
        write_snapshot(snapshot_path, final, config.params)
    return SimulationResult(final, mon.records, bounds,
                            monitor_path, snapshot_path)


@dataclass
class VerificationReport:
    passed: bool
    failures: List[str]
    records: list
    criterion_holds: bool
    x2_within_y2: bool
    tol_abs_coeff: float
    tol_rel: float
    result: SimulationResult = None


def run_verify(config: RunConfig) -> VerificationReport:
    """Simulate, then check every sampled state against the analytic
    envelope values its monitor record holds.

    Absolute tolerances are 1e-6*scale + 10*dt^2 (scale = local envelope
    value), relative ones 1e-6 + 10*dt^2, reflecting the O(dt^2)-or-
    better accuracy of the sampled comparisons.  The H2 aggregate X2 is
    checked for non-growth (within 1%) whenever the existence margin is
    positive on [t0, t_end], where t0 is the initial data's time (a
    snapshot's, or 0); the pointwise X2 <= Y2 comparison is only
    reported, not asserted.  kappa2 <= 1/2, where these envelopes do not
    exist, is refused before the simulation starts.
    """
    require_large_kappa2(config.params.kappa2)
    result = run_simulate(config)
    bounds = result.bounds
    env = EnvelopeSet(bounds)
    state_probe = State.uniform(result.final_state.grid, bounds.omega_max,
                                bounds.b_min)
    dt = compute_dt(state_probe, config.params, config.control)
    slack = 10.0 * dt * dt
    tol_rel = 1e-6 + slack

    # the bounds are those of the data at t0, so their envelopes and
    # criterion start there
    t0 = result.records[0].t
    crit_cfg = dataclasses.replace(config.criterion,
                                   horizon=config.t_end - t0)
    crit = check_glob_add(bounds, crit_cfg)

    failures = []

    def fail(rec, what, measured, bound):
        failures.append(
            f"t = {rec.t:.8g}: {what}: measured {measured:.12g} vs "
            f"bound {bound:.12g}")

    def tol(scale):
        return 1e-6 * abs(scale) + slack

    x2_0 = result.records[0].x2
    x2_within_y2 = True
    for rec in result.records:
        lo, hi = rec.env_omega_lower, rec.env_omega_upper
        if rec.min_omega < lo - tol(lo):
            fail(rec, "min omega below lower envelope", rec.min_omega, lo)
        if rec.max_omega > hi + tol(hi):
            fail(rec, "max omega above upper envelope", rec.max_omega, hi)
        bl = rec.env_b_lower
        if rec.min_b < bl - tol(bl):
            fail(rec, "min b below lower envelope", rec.min_b, bl)
        if rec.v_l2 > rec.env_v_l2 * (1.0 + tol_rel):
            fail(rec, "velocity L2 above decay envelope", rec.v_l2,
                 rec.env_v_l2)
        if rec.b_l1 > rec.env_b_l1 * (1.0 + tol_rel):
            fail(rec, "b L1 mass above decay envelope", rec.b_l1, rec.env_b_l1)
        if crit.holds and rec.x2 > 1.01 * x2_0:
            fail(rec, "X2 grew beyond 1% of its initial value", rec.x2, x2_0)
        if rec.x2 > float(env.y2(rec.t - t0)) * (1.0 + tol_rel):
            x2_within_y2 = False

    report = VerificationReport(
        passed=not failures,
        failures=failures,
        records=result.records,
        criterion_holds=crit.holds,
        x2_within_y2=x2_within_y2,
        tol_abs_coeff=slack,
        tol_rel=tol_rel,
        result=result,
    )
    if failures:
        raise VerificationFailure(failures[0], report=report)
    return report


# ---------------------------------------------------------------------------
# manufactured-solution temporal order check

@dataclass
class ConvergenceReport:
    dts: List[float]
    errors: dict       # field name -> list of L2 errors, one per dt
    orders: dict       # field name -> list of observed orders
    passed: bool
    threshold: float = 3.8


class _Manufactured:
    """The exact fields y*(x, t) = sigma(t) Y(x), with

        Y = (0.1 (sin k2 x2, sin k3 x3, sin k1 x1),
             2 + 0.5 cos k1 x1, 2 + 0.5 sin k2 x2),
        sigma(t) = 1 + 0.5 sin 5t.

    The velocity of Y is divergence-free and zero-mean, and omega* and b*
    stay positive.  The modulation frequency is large enough that the RK4
    error clears the roundoff floor at the smallest tested dt.

    Every term of the tendency kernel K is of degree 1 or 2 in the
    fields, and mu = b/omega does not change when both are scaled by one
    factor, so K(sigma Y_hat) = sigma K1 + sigma^2 K2 in real arithmetic.
    K1 and K2 come from the two kernel calls at sigma = 1 and 2 made
    here; no forcing evaluation calls the kernel.
    """

    def __init__(self, grid, params):
        self.grid = grid
        x1, x2, x3 = grid.coordinates()
        k1, k2, k3 = (2.0 * math.pi / L for L in grid.lengths)
        self.profile = np.stack([np.broadcast_to(f, grid.resolution) for f in (
            0.1 * np.sin(k2 * x2), 0.1 * np.sin(k3 * x3), 0.1 * np.sin(k1 * x1),
            2.0 + 0.5 * np.cos(k1 * x1), 2.0 + 0.5 * np.sin(k2 * x2))])
        self.profile_hat = grid.rfft(self.profile)
        kernel = TendencyKernel(grid, params)
        rhs1 = kernel(self.profile_hat)
        rhs2 = kernel(2.0 * self.profile_hat)
        # rhs1 = K1 + K2 and rhs2 = 2 K1 + 4 K2
        self.quadratic = 0.5 * rhs2 - rhs1
        self.linear = rhs1 - self.quadratic

    @staticmethod
    def sigma(t):
        return 1.0 + 0.5 * math.sin(5.0 * t)

    @staticmethod
    def dsigma(t):
        return 2.5 * math.cos(5.0 * t)

    def exact(self, t):
        return self.sigma(t) * self.profile

    def forcing(self, t):
        """The spectrum F = d/dt y*_hat - K(y*_hat) on the kept block, so
        the exact fields solve the forced semi-discrete system with zero
        spatial error.  Every call returns a fresh array."""
        s = self.sigma(t)
        return (self.dsigma(t) * self.profile_hat
                - s * (self.linear + s * self.quadratic))

    def initial_state(self):
        """The exact state at t = 0 with sigma(0) profile_hat, the
        spectrum the forcing is made against, as its y_hat, so advance
        projects nothing."""
        s = self.sigma(0.0)
        return State(self.grid, s * self.profile, 0.0, s * self.profile_hat)


def _mms_errors(config: RunConfig, dt):
    """L2 errors of v, omega and b at config.t_end of one fixed-dt run
    against the manufactured solution."""
    grid = config.make_grid()
    mms = _Manufactured(grid, config.params)
    final = advance(mms.initial_state(), config.t_end, config.params,
                    StepControl(dt_max=dt, dt_fixed=dt),
                    forcing=Forcing(func=mms.forcing))
    exact = mms.exact(config.t_end)
    return (float(np.sqrt(sum(ops.lp_norm(grid, final.y[i] - exact[i], 2) ** 2
                              for i in range(3)))),
            ops.lp_norm(grid, final.y[3] - exact[3], 2),
            ops.lp_norm(grid, final.y[4] - exact[4], 2))


def _mms_outcome(config, dt):
    """The (errors, exception, warnings) outcome of the run at dt, which
    _mms_study reads back in dts order from every process."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            errors, exc = _mms_errors(config, dt), None
        except Exception as err:  # raised again by _mms_study
            errors, exc = None, err
    return errors, exc, [w.message for w in caught]


def _mms_study(config: RunConfig, dts, processes):
    """Errors of every dt's run, in dts order, made by `processes`
    processes.  With one, the caller makes every run in dts order, and
    the first failure is raised where it happens.  Otherwise the caller
    makes the run with the most steps, after handing the others, longest
    first, to a pool of processes - 1 forked workers, each of which takes
    the next run when it is free.

    Every run is deterministic, so its errors do not depend on the
    process that made it.  Warnings from the runs are issued again here,
    and failures are raised, as a serial loop over dts would: in dts
    order, up to the first failing dt, whose error is raised with its
    type, message and t.
    """
    if processes == 1:
        return [_mms_errors(config, dt) for dt in dts]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    fork = multiprocessing.get_context("fork")
    (i0, dt0), *rest = sorted(enumerate(dts), key=lambda run: run[1])
    made = [None] * len(dts)
    with ProcessPoolExecutor(processes - 1, mp_context=fork) as pool:
        futures = {i: pool.submit(_mms_outcome, config, dt) for i, dt in rest}
        made[i0] = _mms_outcome(config, dt0)
        for i, fut in futures.items():
            made[i] = fut.result()
    for _, exc, messages in made:
        for message in messages:
            warnings.warn(message, stacklevel=3)
        if exc is not None:
            raise exc
    return [errors for errors, _, _ in made]


def run_mms(config: RunConfig, dts=(4e-3, 2e-3, 1e-3),
            threshold=3.8) -> ConvergenceReport:
    """Temporal convergence study against the manufactured solution
    sigma(t) Y of `_Manufactured`: one fixed-dt run per dt, whose error
    at t_end is purely temporal, since the forcing is formed against the
    discrete operator.  Each run makes 4 kernel calls per step and 2
    more for the forcing.  A config that sets dt_fixed is refused, since
    the study would ignore it.

    The runs at the different dts are independent, so they are spread
    over one process per usable CPU, up to one per run (see
    `_mms_study`), and over one process where fork or the CPU affinity
    is unavailable.  The report is the one a serial loop over dts gives,
    bit for bit."""
    dts = tuple(dts)
    t_end = config.t_end
    if config.control.dt_fixed is not None:
        raise ValueError(f"[step] dt_fixed = {config.control.dt_fixed!r} is "
                         f"not used: the study runs its own dts")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    if len(dts) < 2:
        raise ValueError(f"dts must hold at least two steps, got {dts!r}")
    if not all(math.isfinite(dt) and dt > 0 for dt in dts):
        raise ValueError(f"dts must be finite and positive, got {dts!r}")
    if len(set(dts)) < len(dts):
        raise ValueError(f"dts must not repeat a step, got {dts!r}")
    if max(dts) > t_end:
        raise ValueError(f"dts must not exceed t_end = {t_end!r}, "
                         f"got {dts!r}")
    import multiprocessing
    processes = 1
    if ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity")):
        processes = min(len(dts), len(os.sched_getaffinity(0)))
    runs = _mms_study(config, dts, processes)
    errors = {name: [r[j] for r in runs]
              for j, name in enumerate(("v", "omega", "b"))}
    orders = {name: [math.log2(errs[i] / errs[i + 1])
                     / math.log2(dts[i] / dts[i + 1])
                     for i in range(len(dts) - 1)]
              for name, errs in errors.items()}
    passed = not any(min(ords) < threshold for ords in orders.values())
    return ConvergenceReport(dts=list(dts), errors=errors, orders=orders,
                             passed=passed, threshold=threshold)


# ---------------------------------------------------------------------------
# criterion front end

def run_check(config: RunConfig, bounds=None) -> CriterionReport:
    """Evaluate the existence criterion; bounds default to statistics of
    the configured initial data."""
    if bounds is None:
        grid = config.make_grid()
        state0 = generate_initial(config.initial, grid)
        bounds = extract_bounds(state0, config.params, config.c_p_override)
    return full_report(bounds, config.criterion)


def format_report(report: CriterionReport) -> str:
    lines = []
    verdict = "HOLDS" if report.holds else "VIOLATED"
    hz = "inf" if math.isinf(report.horizon) else "%.17g" % report.horizon
    lines.append(f"existence criterion: {verdict} "
                 f"(C = {report.c_omega_kappa:g}, horizon = {hz})")
    if report.first_violation_t is not None:
        lines.append(f"first violation at t = {report.first_violation_t:.12g}")
    if report.a0 is not None:
        lines.append(f"a0 = {report.a0:.12g}")
    if report.z1_holds is not None:
        lines.append(f"z1 holds: {report.z1_holds}")
    if report.z2_holds is not None:
        lines.append(f"z2 holds: {report.z2_holds}")
    n = len(report.margin_samples)
    if n:
        m0 = report.margin_samples[0][1]
        mN = report.margin_samples[-1][1]
        lines.append(f"margin sampled at {n} points: "
                     f"start {m0:.6g}, end {mN:.6g}")
    return "\n".join(lines) + "\n"


def report_to_kv(report: CriterionReport) -> str:
    """Machine-readable key = value mirror of the report."""
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "none"
        if isinstance(v, float):
            return "%.17g" % v
        return str(v)

    pairs = [
        ("holds", report.holds),
        ("first_violation_t", report.first_violation_t),
        ("c_omega_kappa", report.c_omega_kappa),
        ("horizon", report.horizon),
        ("a0", report.a0),
        ("z1_holds", report.z1_holds),
        ("z2_holds", report.z2_holds),
        ("margin_samples", len(report.margin_samples)),
        ("margin_start", report.margin_samples[0][1]
         if report.margin_samples else None),
        ("margin_end", report.margin_samples[-1][1]
         if report.margin_samples else None),
    ]
    return "".join(f"{k} = {fmt(v)}\n" for k, v in pairs)
