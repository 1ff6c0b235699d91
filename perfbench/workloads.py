"""The three benchmark workloads: inputs, one operation, output checks.

Every workload draws its inputs from the run seed in `setup`, which is
also what `setup_s` times.  `run_op(i)` is one timed operation and
returns its output; `check(i, out)` returns the list of problems found
in that output (empty when it is correct) and is never timed.  Calls
into kturb go through module attributes looked up at call time, so the
traced pass sees them.
"""

import math
import os
import shutil

import numpy as np
from scipy.optimize import brentq

import kturb
import kturb.harness
import oracle

C_P = math.sqrt(2.0)


class Verify32:
    """`kturb verify` on the acceptance-suite configuration at 32^3."""

    name = "verify32"
    resolution = (32, 32, 32)
    dt = 0.003
    t_end = 0.03

    def __init__(self, seed, n_ops, workdir):
        self.seed, self.n_ops, self.workdir = seed, n_ops, workdir

    def _spec(self, seed):
        return kturb.harness.InitialDataSpec(
            seed=seed, b_mean=2.0, b_amp=0.1, omega_mean=1.0,
            omega_amp=0.1, v_amp=1e-3, band=5)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.op_seeds = [int(s) for s in rng.integers(1, 2**31 - 1, self.n_ops)]
        params = kturb.ModelParams(kappa2=1.0)
        grid = kturb.TorusGrid(resolution=self.resolution)
        state = kturb.harness.generate_initial(self._spec(self.op_seeds[0]), grid)
        kturb.harness.extract_bounds(state, params, C_P)
        self.configs = [kturb.harness.RunConfig(
            resolution=self.resolution,
            params=params,
            control=kturb.StepControl(dt_max=0.1, dt_fixed=self.dt),
            initial=self._spec(s),
            criterion=kturb.CriterionConfig(c_omega_kappa=1e-8, horizon=2.0),
            t_end=self.t_end,
            monitor_every=1,
            c_p_override=C_P,
            out_dir=os.path.join(self.workdir, f"op-{i:04d}"),
        ) for i, s in enumerate(self.op_seeds)]

    def run_op(self, i):
        try:
            return kturb.harness.run_verify(self.configs[i])
        except kturb.VerificationFailure as exc:
            # an envelope violation fails this operation's check below
            return exc.report

    def check(self, i, report):
        out_dir = self.configs[i].out_dir
        try:
            return self._check_files(report, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_files(self, report, out_dir):
        dt, t_end = self.dt, self.t_end
        problems = []
        if not report.passed:
            problems.append(f"run_verify did not pass: {report.failures[:1]}")
        mon = oracle.read_monitor_csv(os.path.join(out_dir, "monitor.csv"))
        t = mon["t"]
        steps = math.ceil(t_end / dt - 1e-9)
        if t.size != steps + 1:
            problems.append(f"monitor.csv has {t.size} rows, expected {steps + 1}")
            return problems
        if t[0] != 0.0 or t[-1] != t_end or \
                np.max(np.abs(t - dt * np.arange(t.size))) > 1e-12:
            problems.append("monitor times are not 0, dt, 2 dt, ..., t_end")
        defect = np.max(np.abs(mon["energy_lhs"][1:] - mon["energy_rhs"][1:]))
        if not defect <= 10.0 * dt * dt + 1e-9:
            problems.append(f"energy-identity defect {defect:.3e}")
        if np.any(np.diff(mon["omega_l2"]) > 0.0):
            problems.append("omega L2 norm grew between samples")
        if np.max(mon["x2"]) > 1.01 * mon["x2"][0]:
            problems.append("X2 grew by more than 1%")
        # envelopes from the closed forms, fed the measured t = 0 statistics
        bd = oracle.Bounds(b_min=mon["min_b"][0], omega_min=mon["min_omega"][0],
                           omega_max=mon["max_omega"][0], b0_l1=mon["b_l1"][0],
                           v0_l2sq=mon["v_l2"][0] ** 2, lap_sum=mon["x2"][0],
                           kappa2=1.0, c_p=C_P)
        env = {
            "env_omega_lower": oracle.omega_lower(bd, t),
            "env_omega_upper": oracle.omega_upper(bd, t),
            "env_b_lower": oracle.b_lower(bd, t),
            "env_v_l2": oracle.v_l2(bd, t),
            "env_b_l1": oracle.b_mass(bd, t, bd.omega_min),
        }
        for col, want in env.items():
            if np.max(np.abs(mon[col] - want) / np.abs(want)) > 1e-9:
                problems.append(f"{col} differs from the closed form")
        tol = 10.0 * dt * dt
        if np.any(mon["min_omega"] < env["env_omega_lower"] * (1 - 1e-6) - tol) \
                or np.any(mon["max_omega"] > env["env_omega_upper"] * (1 + 1e-6) + tol) \
                or np.any(mon["min_b"] < env["env_b_lower"] * (1 - 1e-6) - tol):
            problems.append("an extremum left its pointwise envelope")
        if np.any(mon["v_l2"] > env["env_v_l2"] * (1 + 1e-6 + tol)) \
                or np.any(mon["b_l1"] > env["env_b_l1"] * (1 + 1e-6 + tol)):
            problems.append("a norm left its decay envelope")
        t_snap, lengths, fields = oracle.read_snapshot(
            os.path.join(out_dir, "final.snap"))
        if t_snap != t_end:
            problems.append(f"final.snap is at t = {t_snap!r}, not {t_end!r}")
        ratio = oracle.divergence_ratio(fields[:3], lengths)
        if not ratio <= 1e-12:
            problems.append(f"final velocity divergence ratio {ratio:.3e}")
        if abs(np.min(fields[3]) - mon["min_omega"][-1]) > 1e-12 * mon["min_omega"][-1]:
            problems.append("final.snap disagrees with the last monitor row")
        return problems


class Mms16:
    """One manufactured-solution temporal-order study at 16^3."""

    name = "mms16"
    resolution = (16, 16, 16)
    dts = (4e-3, 2e-3, 1e-3)
    t_end = 0.04

    def __init__(self, seed, n_ops, workdir):
        self.seed, self.n_ops = seed, n_ops

    def setup(self):
        grid = kturb.TorusGrid(resolution=self.resolution)
        params = kturb.ModelParams()
        state = kturb.harness.generate_initial(
            kturb.harness.InitialDataSpec(seed=self.seed), grid)
        kturb.harness.extract_bounds(state, params)
        self.config = kturb.harness.RunConfig(resolution=self.resolution,
                                              params=params, t_end=self.t_end)

    def run_op(self, i):
        return kturb.harness.run_mms(self.config, dts=self.dts, threshold=3.8)

    def check(self, i, report):
        problems = []
        if list(report.dts) != list(self.dts):
            return [f"study ran dts {report.dts}, expected {self.dts}"]
        ratio = math.log2(self.dts[0] / self.dts[1])
        for field, errs in report.errors.items():
            errs = np.asarray(errs)
            if not np.all(errs[1:] < errs[:-1]):
                problems.append(f"{field} errors do not fall with dt: {errs}")
                continue
            orders = np.log2(errs[:-1] / errs[1:]) / ratio
            if np.min(orders) < 3.8:
                problems.append(f"{field} observed order {np.min(orders):.3f} < 3.8")
            if np.max(np.abs(orders - np.asarray(report.orders[field]))) > 1e-9:
                problems.append(f"{field} reported orders disagree with the errors")
        if not report.passed:
            problems.append("run_mms reported failure")
        return problems


class Criterion:
    """`kturb check` on explicit bounds with an infinite horizon.

    Operation 0 is the uniform box at rest, whose margin is known in
    closed form; every other operation draws random bounds.
    """

    name = "criterion"
    a0_every = 500
    box_beta = 0.7
    box_volume = (2.0 * math.pi) ** 3

    def __init__(self, seed, n_ops, workdir):
        self.seed, self.n_ops = seed, n_ops

    def setup(self):
        rng = np.random.default_rng(self.seed)
        inputs = [(kturb.DataBounds(
            b_min=self.box_beta, omega_min=1.0, omega_max=1.0,
            b0_l1=self.box_beta * self.box_volume, v0_l2sq=0.0, lap_sum=0.0,
            kappa2=1.0, c_p=1.0), 1.0)]
        for _ in range(self.n_ops - 1):
            om_min = rng.uniform(0.05, 2.0)
            bd = kturb.DataBounds(
                b_min=rng.uniform(0.01, 5.0), omega_min=om_min,
                omega_max=om_min * rng.uniform(1.0, 4.0),
                b0_l1=rng.uniform(0.0, 10.0), v0_l2sq=rng.uniform(0.0, 10.0),
                lap_sum=rng.uniform(0.0, 10.0), kappa2=rng.uniform(1.0, 3.0),
                c_p=rng.uniform(0.2, 5.0))
            inputs.append((bd, math.exp(rng.uniform(math.log(1e-3),
                                                    math.log(1e-1)))))
        self.inputs = inputs
        self.configs = [kturb.harness.RunConfig(
            params=kturb.ModelParams(kappa2=bd.kappa2),
            criterion=kturb.CriterionConfig(c_omega_kappa=c, horizon=math.inf))
            for bd, c in inputs]

    def run_op(self, i):
        report = kturb.harness.run_check(self.configs[i], self.inputs[i][0])
        return (report, kturb.harness.format_report(report),
                kturb.harness.report_to_kv(report))

    def check(self, i, out):
        report, text, kv = out
        bd, c = self.inputs[i]
        problems = []
        ts, ms = np.asarray(report.margin_samples).T
        mu, cz = oracle.margin_terms(bd, c, ts)
        if np.any(np.abs(ms - (mu - cz)) > 1e-12 * (mu + cz)):
            problems.append("a margin sample differs from mu_min - C Z0")
        if report.holds != bool(np.all(ms > 0.0)):
            problems.append(f"holds = {report.holds} but the samples say otherwise")
        if report.z1_holds and report.z2_holds and not report.holds:
            problems.append("z1 and z2 hold but the criterion does not")
        fields = dict(line.split(" = ") for line in kv.splitlines())
        if fields["holds"] != ("true" if report.holds else "false") \
                or int(fields["margin_samples"]) != ts.size \
                or ("HOLDS" in text.splitlines()[0]) != report.holds:
            problems.append("the text reports disagree with the report")
        if i % self.a0_every == 1:
            brute = oracle.a0_brute(bd, c)
            if abs(report.a0 - brute) > 1e-3 * brute:
                problems.append(f"a0 = {report.a0!r}, brute force {brute!r}")
        if i == 0:
            problems += self._check_box(report, ts, ms, c)
        return problems

    def _check_box(self, report, ts, ms, c):
        """Uniform b = beta, omega = 1 at rest, kappa2 = 1:
        margin(t) = beta (1 - C vol / (1 + t)), zero at t = C vol - 1."""
        beta, vol = self.box_beta, self.box_volume
        want = beta * (1.0 - c * vol / (1.0 + ts))
        if np.any(np.abs(ms - want) > 1e-12 * beta * (1.0 + c * vol / (1.0 + ts))):
            return ["uniform box margin differs from its closed form"]
        t_star = c * vol - 1.0
        j = int(np.nonzero(ms <= 0.0)[0][-1])
        if not ts[j] <= t_star < ts[j + 1]:
            return [f"uniform box margin changes sign in [{ts[j]}, {ts[j + 1]}],"
                    f" not at {t_star}"]
        cfg = kturb.CriterionConfig(c_omega_kappa=c)
        bd = self.inputs[0][0]
        root = brentq(lambda t: float(kturb.margin(t, bd, cfg)), ts[j], ts[j + 1],
                      rtol=1e-12)
        if abs(root - t_star) > 1e-10 * t_star or report.holds:
            return [f"uniform box zero crossing at {root!r}, expected {t_star!r}"]
        return []


WORKLOADS = {w.name: w for w in (Verify32, Mms16, Criterion)}
