"""Acceptance suite: twelve end-to-end criteria at their stated
tolerances.  Each test emits one pass/fail line on the terminal."""

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.optimize import brentq

from kturb import (CriterionConfig, DataBounds, InconclusiveTail,
                   ModelParams, State, StepControl, TorusGrid, advance,
                   check_glob_add, compute_a0, margin, ops)
from kturb.cli import main
from kturb.harness import (InitialDataSpec, RunConfig, run_mms, run_verify)
from kturb.errors import KturbError
from tests.test_criterion import a_oracle, corollary, uniform_box_bounds
from tests.test_envelopes import random_bounds
from tests.test_spectral import random_scalar, random_vector

PI2 = 2.0 * math.pi


def integral(grid, values):
    """Uniform-quadrature integral of a physical array over the box."""
    return float(np.sum(values)) * grid.cell_volume


_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_capture(capsys):
    # _line suspends capture so the one-line verdicts reach the terminal
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(num, ok, desc):
    tag = "PASS" if ok else "FAIL"
    msg = f"acceptance {num:02d} {tag}: {desc}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(msg, flush=True)
    else:  # pragma: no cover - direct invocation outside pytest
        print(msg, file=sys.stdout, flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


# -- shared small-data verification runs (criteria 2-5) ---------------------

VERIFY_DT = 0.003


def _envelope_run(seed):
    cfg = RunConfig(
        resolution=(32, 32, 32),
        params=ModelParams(kappa2=1.0),
        control=StepControl(dt_max=0.1, dt_fixed=VERIFY_DT),
        initial=InitialDataSpec(seed=seed, b_mean=2.0, b_amp=0.1,
                                omega_mean=1.0, omega_amp=0.1,
                                v_amp=1e-3, band=5),
        criterion=CriterionConfig(c_omega_kappa=1e-8, horizon=2.0),
        t_end=2.0,
        monitor_every=1,
        c_p_override=math.sqrt(2.0),
    )
    try:
        return run_verify(cfg)
    except KturbError as exc:  # pragma: no cover - diagnostic path
        return exc


@pytest.fixture(scope="module")
def envelope_runs():
    """Ten random admissible small-data runs at 32^3, verified once and
    shared by criteria 2 through 5.  The runs are independent, so they
    are shared out over at most two worker processes."""
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_envelope_run, range(1, 11)))


def test_01_ode_reduction_exactness():
    g = TorusGrid(resolution=(16, 16, 16))
    s = State.uniform(g, 1.0, 2.0)
    t0 = time.perf_counter()
    out = advance(s, 5.0, ModelParams(kappa2=1.0),
                  StepControl(dt_max=1.0, dt_fixed=1e-3))
    elapsed = time.perf_counter() - t0
    err_om = float(np.max(np.abs(out.omega * 6.0 - 1.0)))
    err_b = float(np.max(np.abs(out.b * 3.0 - 1.0)))
    ok = err_om <= 1e-8 and err_b <= 1e-8 and elapsed < 10.0
    _line(1, ok, f"uniform-data ODE reduction: rel err omega {err_om:.2e}, "
                 f"b {err_b:.2e}, runtime {elapsed:.2f} s")


def test_02_pointwise_envelope_suite(envelope_runs):
    bad = [r for r in envelope_runs if isinstance(r, Exception)]
    ok = not bad and all(r.passed for r in envelope_runs)
    detail = f"10 runs at 32^3, t_end 2, dt {VERIFY_DT}"
    if bad:
        detail += f"; first failure: {bad[0]}"
    _line(2, ok, "pointwise envelope suite: " + detail)


def test_03_energy_identity(envelope_runs):
    tol = 10.0 * VERIFY_DT**2 + 1e-9
    worst = 0.0
    ok = True
    for rep in envelope_runs:
        if isinstance(rep, Exception):
            ok = False
            continue
        for rec in rep.records[1:]:
            gap = abs(rec.energy_lhs - rec.energy_rhs)
            worst = max(worst, gap)
            if gap > tol:
                ok = False
    _line(3, ok, f"energy identity: worst defect {worst:.2e} "
                 f"(tol {tol:.2e})")


def test_04_omega_l2_monotone(envelope_runs):
    ok = True
    worst = 0.0
    for rep in envelope_runs:
        if isinstance(rep, Exception):
            ok = False
            continue
        vals = [r.omega_l2 for r in rep.records]
        for a, b in zip(vals, vals[1:]):
            growth = b / a - 1.0
            worst = max(worst, growth)
            if growth > 1e-9:
                ok = False
    _line(4, ok, f"omega L2 monotone decay: worst relative growth "
                 f"{worst:.2e} (tol 1e-09)")


def test_05_h2_nongrowth(envelope_runs):
    checked = 0
    ok = True
    for rep in envelope_runs:
        if isinstance(rep, Exception):
            ok = False
            continue
        if not rep.criterion_holds:
            continue
        checked += 1
        x2_0 = rep.records[0].x2
        if any(r.x2 > 1.01 * x2_0 for r in rep.records):
            ok = False
    ok = ok and checked > 0
    _line(5, ok, f"H2 non-growth under a positive margin: {checked} of "
                 f"{len(envelope_runs)} runs had the criterion hold")


def test_06_criterion_closed_form():
    beta, vol, C = 0.7, PI2**3, 1.0
    bd = uniform_box_bounds(beta, vol)
    cfg = CriterionConfig(c_omega_kappa=C, horizon=300.0)
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 290.0, 200)])
    worst = 0.0
    for t in ts:
        want = beta * (1.0 - C * vol / (1.0 + t))
        got = float(margin(t, bd, cfg))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    t_star = brentq(lambda t: float(margin(t, bd, cfg)), 0.0, 300.0,
                    rtol=1e-12)
    cross_err = abs(t_star - (C * vol - 1.0))
    ok = worst <= 1e-12 and cross_err <= 1e-10 * (C * vol - 1.0)
    _line(6, ok, f"closed-form margin: worst rel err {worst:.2e}, zero "
                 f"crossing located to {cross_err:.2e}")


def _a0_peak_time(bd):
    """Latest analytic peak of the a(t) constituents; the supremum is
    attained no later than this."""
    if bd.lap_sum == 0.0:
        return 0.0
    k2 = bd.kappa2
    r = 2.0 - 1.0 / k2
    beta = k2 * bd.b_min / (bd.c_p**2 * bd.omega_max**2 * (2.0 * k2 - 1.0))
    t_peak = 0.0
    for p, q in ((1.0 / k2 + 1.0, 0.25), (1.0 / k2 + 2.0, 0.75),
                 (1.0 / k2 + 2.0, 1.25)):
        s_star = (p / (q * beta * r)) ** (1.0 / r)
        t_peak = max(t_peak, (s_star - 1.0) / (k2 * bd.omega_max))
    return t_peak


def test_07_a0_sup_search():
    rng = np.random.default_rng(2607)
    t = np.geomspace(1.0, 1.0 + 1.0e4, 1_000_000) - 1.0
    cfg = CriterionConfig()
    worst = 0.0
    ok = True
    accepted = 0
    while accepted < 100:
        k2 = rng.uniform(0.6, 3.0)
        bd = random_bounds(rng, kappa2=k2)
        if k2 < 1.0 and bd.v0_l2sq > 0.0:
            # the supremum is infinite in this regime; zero the initial
            # velocity so the finite search is the right oracle
            bd = DataBounds(b_min=bd.b_min, omega_min=bd.omega_min,
                            omega_max=bd.omega_max, b0_l1=bd.b0_l1,
                            v0_l2sq=0.0, lap_sum=bd.lap_sum,
                            kappa2=k2, c_p=bd.c_p)
        if _a0_peak_time(bd) > 1e3:
            # the true supremum sits beyond the oracle horizon 1e4,
            # where fixed-horizon sampling cannot see it; resample
            continue
        accepted += 1
        got = compute_a0(bd, cfg)
        brute = float(np.max(a_oracle(bd, cfg.c_omega_kappa, t)))
        rel = abs(got - brute) / brute
        worst = max(worst, rel)
        if rel > 1e-3:
            ok = False
    _line(7, ok, f"a0 supremum vs 1e6-point brute force on 100 instances: "
                 f"worst rel diff {worst:.2e} (tol 1e-03)")


def test_08_corollary_implies_criterion():
    rng = np.random.default_rng(2608)
    cfg = CriterionConfig(c_omega_kappa=0.02, horizon=math.inf)
    accepted = 0
    ok = True
    for _ in range(20000):
        if accepted >= 100:
            break
        bd = random_bounds(rng, kappa2=rng.uniform(0.9, 2.5))
        try:
            z1, z2 = corollary(bd, cfg)
            if not (z1 and z2):
                continue
            accepted += 1
            if not check_glob_add(bd, cfg).holds:
                ok = False
        except InconclusiveTail:
            continue
    ok = ok and accepted >= 100
    _line(8, ok, f"corollary implies infinite-horizon criterion on "
                 f"{accepted} rejection-sampled instances")


def test_09_mms_temporal_order():
    cfg = RunConfig(resolution=(16, 16, 16), t_end=0.4)
    rep = run_mms(cfg, dts=(4e-3, 2e-3, 1e-3), threshold=3.8)
    mins = {k: min(v) for k, v in rep.orders.items()}
    ok = rep.passed
    _line(9, ok, "MMS temporal order >= 3.8: observed minima "
          + ", ".join(f"{k} {v:.3f}" for k, v in mins.items()))


def test_10_spectral_invariants():
    rng = np.random.default_rng(2610)
    worst = 0.0
    for i in range(100):
        n = int(rng.choice([12, 16]))
        lengths = (PI2, PI2 * rng.uniform(0.5, 2.0),
                   PI2 * rng.uniform(0.5, 2.0))
        g = TorusGrid(lengths=lengths, resolution=(n, n, n))
        band = int(rng.integers(1, (n - 1) // 3 + 1))
        f = random_scalar(g, rng, band=band)
        u = random_vector(g, rng, band=band)
        w = random_vector(g, rng, band=band)
        # transform round trip
        back = g.irfft(g.rfft(f))
        worst = max(worst, float(np.max(np.abs(back - f)))
                    / float(np.max(np.abs(f))))
        # Parseval
        quad = ops.lp_norm(g, f, 2)
        spec = math.sqrt(ops.l2sq_hat(g, g.rfft(f)))
        worst = max(worst, abs(spec - quad) / quad)
        # Leray idempotence and self-adjointness
        once = g.irfft(ops.leray_hat(g, g.rfft(u)))
        twice = g.irfft(ops.leray_hat(g, g.rfft(once)))
        worst = max(worst, float(np.max(np.abs(twice - once)))
                    / float(np.max(np.abs(once))))
        pw = g.irfft(ops.leray_hat(g, g.rfft(w)))
        lhs = integral(g, once * w)
        rhs = integral(g, u * pw)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        # Poincare with the sharp constant
        c_p = max(lengths) / PI2
        grad_l2 = math.sqrt(ops.l2sq_hat(g, g.rfft(f), 1))
        ratio = ops.lp_norm(g, f, 2) / (c_p * grad_l2)
        worst = max(worst, ratio - 1.0)
    ok = worst <= 1e-12
    _line(10, ok, f"spectral invariants on 100 random fields: worst "
                  f"relative defect {worst:.2e} (tol 1e-12)")


def test_11_determinism(tmp_path, capsys):
    args = ["verify", "--resolution", "16", "--t-end", "0.05",
            "--dt", "0.005", "--seed", "4"]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    csv_a = (tmp_path / "a" / "monitor.csv").read_bytes()
    csv_b = (tmp_path / "b" / "monitor.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and csv_a == csv_b
    _line(11, ok, f"repeated verify runs byte-identical: "
                  f"{len(csv_a)} bytes of monitor stream")


def test_12_kappa2_gate(capsys):
    code = main(["check", "--kappa2", "0.4", "--b-min", "1.0"])
    err = capsys.readouterr().err
    ok = code == 3 and "kappa2" in err and "1/2" in err
    _line(12, ok, f"kappa2 gate: exit code {code}, message {err.strip()!r}")
