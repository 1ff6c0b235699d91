"""Existence criterion: closed-form checks, root finding, a0, corollary."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from kturb import (CriterionConfig, DataBounds, EnvelopeSet, InconclusiveTail,
                   Kappa2TooSmall, check_glob_add, compute_a0, full_report,
                   geometric_times, margin)
from kturb.cli import main
from kturb import criterion
from kturb.criterion import (SUP_HORIZON, _brentq, _first_root, _fminbound,
                             _joint_times, _TailModel)
from kturb.envelopes import decay_exponent
from tests.test_envelopes import random_bounds, simple_bounds

PI2 = 2.0 * math.pi


def uniform_box_bounds(beta, vol, kappa2=1.0, c_p=1.0):
    """Bounds of the constant state b = beta, omega = 1 on a box of the
    given volume, at rest."""
    return DataBounds(b_min=beta, omega_min=1.0, omega_max=1.0,
                      b0_l1=beta * vol, v0_l2sq=0.0, lap_sum=0.0,
                      kappa2=kappa2, c_p=c_p)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CriterionConfig(c_omega_kappa=0.0)
        with pytest.raises(ValueError):
            CriterionConfig(horizon=-1.0)


class TestMarginClosedForm:
    def test_uniform_data_formula(self):
        # uniform b = beta, omega = 1, kappa2 = 1:
        # mu_min = beta, Z0 = beta V / (1 + t), so
        # margin(t) = beta (1 - C V / (1 + t))
        beta, vol, C = 0.7, PI2**3, 1.0
        bd = uniform_box_bounds(beta, vol)
        cfg = CriterionConfig(c_omega_kappa=C, horizon=300.0)
        for t in (0.0, 1.0, 10.0, 100.0, 250.0):
            want = beta * (1.0 - C * vol / (1.0 + t))
            assert margin(t, bd, cfg) == pytest.approx(want, rel=1e-12)

    def test_brentq_finds_analytic_zero(self):
        # the closed form crosses zero at t = C V - 1
        beta, vol, C = 0.7, PI2**3, 1.0
        bd = uniform_box_bounds(beta, vol)
        cfg = CriterionConfig(c_omega_kappa=C, horizon=300.0)
        root = brentq(lambda t: float(margin(t, bd, cfg)), 0.0, 300.0,
                      rtol=1e-12)
        assert root == pytest.approx(C * vol - 1.0, rel=1e-10)

    def test_monotone_in_constant(self):
        bd = random_bounds(np.random.default_rng(51))
        t = 2.0
        vals = [float(margin(t, bd, CriterionConfig(c_omega_kappa=c)))
                for c in (0.01, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_linear_scaling_without_laplacian_energy(self):
        # with lap_sum = v0_l2sq = 0 the margin is jointly linear in
        # (b_min, b0_l1) at fixed omega bounds
        bd = DataBounds(b_min=0.3, omega_min=0.8, omega_max=1.6, b0_l1=2.0,
                        v0_l2sq=0.0, lap_sum=0.0, kappa2=1.3, c_p=1.0)
        cfg = CriterionConfig(c_omega_kappa=0.05)
        lam = 7.0
        scaled = DataBounds(b_min=lam * 0.3, omega_min=0.8, omega_max=1.6,
                            b0_l1=lam * 2.0, v0_l2sq=0.0, lap_sum=0.0,
                            kappa2=1.3, c_p=1.0)
        for t in (0.0, 0.7, 5.0, 40.0):
            assert float(margin(t, scaled, cfg)) == pytest.approx(
                lam * float(margin(t, bd, cfg)), rel=1e-12)


class TestCheckGlobAdd:
    def test_holds_for_generous_data(self):
        bd = uniform_box_bounds(1.0, 1.0)
        rep = check_glob_add(bd, CriterionConfig(c_omega_kappa=0.1,
                                                 horizon=50.0))
        assert rep.holds and rep.first_violation_t is None
        assert rep.c_omega_kappa == 0.1 and rep.horizon == 50.0
        assert rep.margin_samples[0][0] == 0.0
        assert all(v > 0 for _, v in rep.margin_samples)

    def test_immediate_violation(self):
        bd = uniform_box_bounds(0.7, PI2**3)
        rep = check_glob_add(bd, CriterionConfig(horizon=300.0))
        assert not rep.holds
        assert rep.first_violation_t == 0.0

    def test_interior_violation_located_to_root_accuracy(self):
        # mu_min stays flat (kappa2 = 1) while the laplacian-energy part
        # of Z0 swells before its exponential decay kicks in, so the
        # margin starts positive and dips negative at an interior time
        bd = DataBounds(b_min=0.1288, omega_min=1.0, omega_max=1.0,
                        b0_l1=0.00897, v0_l2sq=0.0, lap_sum=0.00776,
                        kappa2=1.0, c_p=9.08)
        cfg = CriterionConfig(c_omega_kappa=0.00157, horizon=200.0)
        assert float(margin(0.0, bd, cfg)) > 0.0
        rep = check_glob_add(bd, cfg)
        assert not rep.holds
        t_star = rep.first_violation_t
        assert 1.0 < t_star < 200.0
        scale = float(margin(0.0, bd, cfg))
        assert abs(float(margin(t_star, bd, cfg))) < 1e-8 * scale

    def test_infinite_horizon_certificate(self):
        bd = uniform_box_bounds(1.0, 0.5, kappa2=1.5)
        rep = check_glob_add(bd, CriterionConfig(c_omega_kappa=0.2,
                                                 horizon=math.inf))
        assert rep.holds and math.isinf(rep.horizon)

    def test_scalar_margin_disagreeing_with_samples(self):
        # the scalar margin brentq reads may differ from the sampled one in
        # the last bit; a bracket end that already shows the sign change
        # is the root, and brentq only sees brackets that change sign
        ts, vals = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, -0.5])
        assert _first_root(ts, vals, lambda t: -1.0) == 1.0
        assert _first_root(ts, vals, lambda t: 1.0) == 2.0
        assert _first_root(ts, vals, lambda t: 1.5 - t) == pytest.approx(1.5)

    def test_sample_sign_flip_cli(self, capsys):
        # C sits within an ulp of a sample's critical value; brentq used to
        # see two positive ends and the command failed with exit 3
        args = ["check", "--b-min", "3.7592877558287747",
                "--omega-min", "1.6524364281608261",
                "--omega-max", "6.324655229935287",
                "--b0-l1", "9.216691367522627",
                "--v0-l2sq", "5.530379528488172",
                "--lap-sum", "6.917257743704043",
                "--kappa2", "1.7053574527161148",
                "--c-p", "2.7839656427229507",
                "--constant-C", "0.0018376849303752742", "--horizon", "20"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "first violation at t = " in out

    def test_infinite_horizon_inconclusive_for_extreme_ratio(self):
        # omega_min / omega_max ~ 1e-250 pushes the certified tail start
        # beyond the searchable range
        bd = DataBounds(b_min=1.0, omega_min=1e-250, omega_max=1.0,
                        b0_l1=1.0, v0_l2sq=0.0, lap_sum=0.0,
                        kappa2=1.0, c_p=1.0)
        with pytest.raises(InconclusiveTail):
            check_glob_add(bd, CriterionConfig(horizon=math.inf))


def a_oracle(bd, C, t):
    """Independent evaluation of the a(t) integrand on an array of times."""
    s = 1.0 + bd.kappa2 * bd.omega_max * t
    bmax = (bd.b0_l1 + 0.5 * bd.v0_l2sq) / s ** (1.0 / bd.kappa2)
    w = bd.omega_min / (1.0 + bd.kappa2 * bd.omega_min * t)
    rate = bd.b_min / (bd.c_p**2 * bd.omega_max**2 * (2 * bd.kappa2 - 1))
    y = bd.lap_sum * np.exp(
        -bd.kappa2 * rate * (s ** (2.0 - 1.0 / bd.kappa2) - 1.0))
    A = (bd.v0_l2sq + bmax**2) ** 0.25
    B = 1.0 + 1.0 / w + bmax / w + bmax / w**2
    Cf = 1.0 / w + 1.0 / w**2 + bmax / w**2 + bmax / w**3
    D = 1.0 / w**2 + 1.0 / w**3
    return (2.0 * C * s ** (1.0 / bd.kappa2 - 1.0)
            * (A + B * y**0.25 + Cf * y**0.75 + D * y**1.25))


class TestComputeA0:
    def test_closed_form_no_laplacian_energy(self):
        # kappa2 = 1, lap_sum = 0: a(t) = 2 C (v0_l2sq + bmax^2)^{1/4}
        # decays, so the supremum sits at t = 0
        bd = DataBounds(b_min=1.0, omega_min=1.0, omega_max=1.0, b0_l1=3.0,
                        v0_l2sq=2.0, lap_sum=0.0, kappa2=1.0, c_p=1.0)
        C = 0.8
        M = 3.0 + 1.0
        want = 2.0 * C * (2.0 + M * M) ** 0.25
        got = compute_a0(bd, CriterionConfig(c_omega_kappa=C))
        assert got == pytest.approx(want, rel=1e-10)

    def test_linear_in_constant(self):
        bd = random_bounds(np.random.default_rng(52), kappa2=1.4)
        a1 = compute_a0(bd, CriterionConfig(c_omega_kappa=0.3))
        a2 = compute_a0(bd, CriterionConfig(c_omega_kappa=0.6))
        assert a2 == pytest.approx(2.0 * a1, rel=1e-9)

    def test_infinite_for_small_kappa2_with_velocity(self):
        bd = simple_bounds(kappa2=0.8, v0_l2sq=1.0)
        assert compute_a0(bd, CriterionConfig()) == math.inf
        finite = compute_a0(simple_bounds(kappa2=0.8, v0_l2sq=0.0),
                            CriterionConfig())
        assert math.isfinite(finite)

    def test_against_dense_grid_oracle(self):
        rng = np.random.default_rng(53)
        cfg = CriterionConfig()
        t = np.concatenate([[0.0], np.logspace(-4, 5, 200_000)])
        for _ in range(20):
            bd = random_bounds(rng)
            if bd.kappa2 < 1.0:
                bd = random_bounds(rng, kappa2=rng.uniform(1.0, 3.0))
            got = compute_a0(bd, cfg)
            brute = float(np.max(a_oracle(bd, cfg.c_omega_kappa, t)))
            assert got >= brute * (1.0 - 1e-9)
            assert got == pytest.approx(brute, rel=1e-3)


def corollary(bd, cfg):
    """The corollary's (z1, z2), z1: b_min/omega_max > 2C(b0_l1 + v0_l2sq/2)
    and z2: b_min/omega_max > a0 lap_sum^{1/4}, or > 0 if lap_sum = 0."""
    lhs = bd.b_min / bd.omega_max
    z1 = lhs > 2.0 * cfg.c_omega_kappa * (bd.b0_l1 + bd.v0_l2sq / 2.0)
    if bd.lap_sum == 0.0:
        return z1, lhs > 0.0
    return z1, lhs > compute_a0(bd, cfg) * bd.lap_sum**0.25


class TestCorollary:
    def test_z1_threshold_arithmetic(self):
        cfg = CriterionConfig(c_omega_kappa=1.0)
        base = dict(b_min=1.0, omega_min=1.0, omega_max=1.0, v0_l2sq=0.0,
                    lap_sum=0.0, kappa2=1.0, c_p=1.0)
        z1, z2 = corollary(DataBounds(b0_l1=0.4, **base), cfg)
        assert z1 and z2  # 1 > 2 * 0.4 and lap_sum = 0 is trivial
        z1, z2 = corollary(DataBounds(b0_l1=0.6, **base), cfg)
        assert not z1 and z2  # 1 > 1.2 fails

    def test_z2_uses_a0(self):
        bd = DataBounds(b_min=5.0, omega_min=1.0, omega_max=1.0, b0_l1=0.1,
                        v0_l2sq=0.0, lap_sum=1e-6, kappa2=1.0, c_p=1.0)
        cfg = CriterionConfig(c_omega_kappa=0.01)
        z1, z2 = corollary(bd, cfg)
        assert z1 and z2
        a0 = compute_a0(bd, cfg)
        assert 5.0 > a0 * 1e-6**0.25

    def test_corollary_implies_infinite_certificate(self):
        # sampled consistency: when both closed-form conditions hold the
        # margin check must certify the infinite horizon
        rng = np.random.default_rng(54)
        cfg = CriterionConfig(c_omega_kappa=0.02, horizon=math.inf)
        found = 0
        for _ in range(400):
            bd = random_bounds(rng, kappa2=rng.uniform(0.9, 2.5))
            try:
                z1, z2 = corollary(bd, cfg)
            except InconclusiveTail:
                continue
            if not (z1 and z2):
                continue
            found += 1
            rep = check_glob_add(bd, cfg)
            assert rep.holds, bd
            if found >= 20:
                break
        assert found >= 20


class TestGates:
    def test_small_kappa2_raises_everywhere(self):
        bd = simple_bounds(kappa2=0.5)
        cfg = CriterionConfig()
        env = EnvelopeSet(bd)
        messages = set()
        for call in (lambda: margin(1.0, bd, cfg),
                     lambda: check_glob_add(bd, cfg),
                     lambda: compute_a0(bd, cfg),
                     lambda: full_report(bd, cfg),
                     lambda: env.v_l2_envelope(1.0),
                     lambda: env.y2(1.0),
                     lambda: env.z0(1.0)):
            with pytest.raises(Kappa2TooSmall) as err:
                call()
            messages.add(str(err.value))
        assert messages == {"kappa2 = 0.5 but the decay envelopes and the "
                            "existence criterion require kappa2 > 1/2"}


class TestZeroTerms:
    def test_report_without_mass_or_velocity(self):
        # b0_l1 = v0_l2sq = 0 make the A coefficient and the b-mass term
        # zero; both are left out of the tail majorants
        bd = simple_bounds(b0_l1=0.0, v0_l2sq=0.0, lap_sum=1.0)
        for horizon in (math.inf, 5.0):
            rep = full_report(bd, CriterionConfig(c_omega_kappa=0.01,
                                                  horizon=horizon))
            assert rep.holds and math.isfinite(rep.a0) and rep.a0 > 0.0
            assert rep.horizon == horizon

    def test_cli_defaults_with_laplacian_energy(self, capsys):
        # the CLI's own defaults are b0_l1 = v0_l2sq = 0
        assert main(["check", "--lap-sum", "1"]) == 0
        assert main(["check", "--lap-sum", "1", "--horizon", "5"]) == 0
        assert capsys.readouterr().out.count("existence criterion:") == 2


class TestTailOutOfRange:
    def test_peak_beyond_float_range_is_inconclusive(self, capsys):
        # kappa2 just above 1/2 gives r = 2 - 1/kappa2 ~ 0.009, and the
        # peak (p/(q beta r))^{1/r} of a Z0 term overflows
        args = ["check", "--kappa2", "0.5022", "--b-min", "0.12",
                "--omega-min", "0.0052", "--omega-max", "24", "--b0-l1", "1",
                "--lap-sum", "4747", "--c-p", "3.3", "--constant-C", "0.0011"]
        assert main(args) == 3
        assert "floating-point range" in capsys.readouterr().err

    def test_underflowing_coefficient_is_inconclusive(self, capsys):
        # omega_min**2 underflows to 0, so the B coefficient at t = 0
        # divides by zero
        assert main(["check", "--omega-min", "1e-200", "--lap-sum", "1"]) == 3
        err = capsys.readouterr().err
        assert "Z0 coefficient B" in err and "floating-point range" in err

    @pytest.mark.parametrize("args, term", [
        # 1/omega_min**3 is inf and lap_sum = 0 multiplies it by 0: every
        # margin sample was NaN, and the report said HOLDS
        ("--omega-min 1e-120 --b0-l1 1", "existence margin at t = 0 "),
        ("--omega-min 1e-120 --b0-l1 1e300", "existence margin at t = 0 "),
        # the a0 tail bound raised OverflowError; in the second case every
        # sample is finite
        ("--omega-min 1e-250 --b0-l1 1", "existence margin at t = 0 "),
        ("--omega-min 1e-100 --omega-max 1e100 --b0-l1 1 --kappa2 0.6",
         "Z0 coefficient A at t = 10000 "),
        # omega_max**2 in the tail decay rate raised OverflowError, and
        # underflowed to a division by zero
        ("--omega-max 1e200", "tail decay rate beta at t = 0 "),
        ("--omega-min 1e-200 --omega-max 1e-200",
         "tail decay rate beta at t = 0 "),
    ])
    def test_out_of_range_term_is_inconclusive(self, capsys, args, term):
        # numpy's RuntimeWarnings were printed ahead of the verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", *args.split(), "--horizon", "5"]) == 3
        err = capsys.readouterr().err
        assert err == f"invalid parameters: the {term}is out of " \
            "floating-point range\n"

    @pytest.mark.parametrize("args, term", [
        # s**r in the tail model raised OverflowError
        ("--kappa2 1e300", "a0 integrand a(t) at t = 0.01 "),
        # the certified range end (s - 1)/(kappa2 omega_max) was inf, and
        # geometric_times failed on int(inf)
        ("--b-min 0.021 --omega-min 9.2e-196 --omega-max 4.8e-123 "
         "--b0-l1 3.3e237 --v0-l2sq 4.4 --kappa2 1.04 --c-p 0.26",
         "end of the sampled margin range at t = inf "),
        # omega_min/omega_max underflowed to 0: "math domain error"
        ("--omega-min 1e-200 --omega-max 1e150 --b0-l1 1",
         "b-mass envelope majorant at t = 0 "),
    ])
    def test_former_crash_is_inconclusive(self, capsys, args, term):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", *args.split()]) == 3
        err = capsys.readouterr().err
        assert err == f"invalid parameters: the {term}is out of " \
            "floating-point range\n"

    def test_overflowing_decay_rate_gives_closed_form_verdict(self, capsys):
        # omega_max**2 overflows in the v and Y2 decay rate, which raised
        # OverflowError; in float64 the rate is 0, and the margin at t = 0
        # is mu_min - C M = 1e-160 - 0.5
        args = "--omega-max 1e160 --kappa2 0.9 --v0-l2sq 1 --horizon 5"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", *args.split()]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "first violation at t = 0\n" in out
        bd = simple_bounds(omega_max=1e160, kappa2=0.9, v0_l2sq=1.0,
                           b0_l1=0.0, lap_sum=0.0)
        rep = full_report(bd, CriterionConfig(horizon=5.0))
        assert rep.margin_samples[0] == (0.0, -0.5)

    def test_decay_exponent_past_overflowing_clock_power(self):
        # s**r overflows, but rate * s**r need not: from logs it is finite
        # where its true value is.  With a rate that underflowed to 0 the
        # product is unknown there: NaN, which the criterion reports.
        s = np.array([2.0, 1e160, 1e300])
        with np.errstate(all="ignore"):
            got = decay_exponent(1e-300, s, 2.0)
            scalar = decay_exponent(1e-300, np.float64(1e160), 2.0)
            zero = decay_exponent(0.0, s, 2.0)
            huge = decay_exponent(1.0, s, 2.0)
        assert got[0] == 1e-300 * 3.0
        assert math.isclose(got[1], 1e20, rel_tol=1e-12)
        assert math.isclose(got[2], 1e300, rel_tol=1e-12)
        assert huge.tolist() == [3.0, math.inf, math.inf]
        assert type(scalar) is np.float64 and scalar == got[1]
        assert zero[0] == 0.0 and np.isnan(zero[1:]).all()

    def test_tiny_beta_keeps_tail_terms_past_overflow(self):
        # beta ~ 1e-308 and r ~ 2: at s = 1e160, s**r overflows while
        # q beta s^r ~ 1e12.  An infinite decay would drop the term from
        # the tail sum and could certify a bound that does not hold.
        bd = simple_bounds(b_min=2e-308, kappa2=1e10)
        with np.errstate(all="ignore"):
            tail = _TailModel(EnvelopeSet(bd), 1.0)
            s = 1e160
            assert 0.0 < tail.beta < 2e-308
            for logc, p, q in tail.terms[1:]:
                want = logc + p * math.log(s) - math.exp(
                    math.log(q * tail.beta) + tail.r * math.log(s))
                got = tail.log_term(logc, p, q, s)
                assert -1e13 < got and math.isclose(got, want, rel_tol=1e-12)

    @staticmethod
    def extreme_bounds(rng):
        """Bounds with magnitudes up to the ends of the float range."""
        def mag():
            u = rng.uniform()
            if u < 0.4:
                return 10 ** rng.uniform(-300, 300)
            if u < 0.45:
                return float(rng.choice([5e-324, 1e-310, 1e-154, 1e154,
                                         1.7e308]))
            return 10 ** rng.uniform(-3, 3)

        om = sorted([mag(), mag()])
        norms = [0.0 if rng.uniform() < 0.2 else mag() for _ in range(3)]
        u = rng.uniform()
        k2 = (0.5 + 10 ** rng.uniform(-5, 0) if u < 0.3
              else rng.uniform(0.5001, 3.0) if u < 0.8
              else 10 ** rng.uniform(0, 300))
        return DataBounds(b_min=mag(), omega_min=om[0], omega_max=om[1],
                          b0_l1=norms[0], v0_l2sq=norms[1],
                          lap_sum=norms[2], kappa2=k2, c_p=mag()), mag()

    def test_extreme_bounds_return_or_are_inconclusive(self):
        # every closed form runs in float64, so no overflow or division by
        # zero may escape as an exception or a numpy warning
        rng = np.random.default_rng(65)
        kinds = {"report": 0, "inconclusive": 0}
        for _ in range(200):
            bd, C = self.extreme_bounds(rng)
            for horizon in (math.inf, 5.0):
                cfg = CriterionConfig(c_omega_kappa=C, horizon=horizon)
                for fn in (check_glob_add, compute_a0, full_report):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            out = fn(bd, cfg)
                        except InconclusiveTail:
                            kinds["inconclusive"] += 1
                            continue
                    kinds["report"] += 1
                    if fn is compute_a0:
                        assert type(out) is float
                    else:
                        assert type(out.holds) is bool
                        assert out.first_violation_t is None or \
                            type(out.first_violation_t) is float
                    if fn is full_report:
                        assert type(out.a0) is float
                        assert type(out.z1_holds) is type(out.z2_holds) \
                            is bool
        assert min(kinds.values()) > 0, kinds

    def test_infinite_a_samples_are_inconclusive(self):
        # bmax**2 overflows, so every a(t) sample is +inf
        bd = simple_bounds(b0_l1=1e300, v0_l2sq=0.0, lap_sum=0.0)
        with np.errstate(all="ignore"), pytest.raises(
                InconclusiveTail, match=r"a0 integrand a\(t\) at t = 0 "):
            compute_a0(bd, CriterionConfig(horizon=5.0))


class TestSharedEnvelopeTerms:
    """z0 and a(t) build s, the b-mass and omega envelopes and Y2 once; they
    must equal, bit for bit, the same formulas read from the public
    envelope methods."""

    @staticmethod
    def from_public_methods(env, t, C):
        bd = env.bounds
        y = env.y2(t)
        q = y**0.25
        z0 = (env.b_l1_upper(t, "max") + env.coeff_A(t) * q
              + env.coeff_B(t) * q**2 + env.coeff_C(t) * y
              + env.coeff_D(t) * y**1.5)
        s = 1.0 + bd.kappa2 * bd.omega_max * np.asarray(t, dtype=float)
        inner = (env.coeff_A(t) + env.coeff_B(t) * q
                 + env.coeff_C(t) * q**3 + env.coeff_D(t) * q**5)
        a = 2.0 * C * s ** (1.0 / bd.kappa2 - 1.0) * inner
        return z0, a

    def test_bitwise_equal_to_public_formula(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            bd = random_bounds(rng, kappa2=rng.uniform(0.5, 3.0))
            cfg = CriterionConfig(c_omega_kappa=10 ** rng.uniform(-3, 0))
            C = cfg.c_omega_kappa
            env = EnvelopeSet(bd)
            times = [np.concatenate([[0.0], rng.uniform(0.0, 50.0, 20),
                                     geometric_times(1e4, 0.1)]),
                     0.0, float(rng.uniform(0.0, 5.0)),
                     float(10 ** rng.uniform(0, 4))]
            for t in times:
                z0, a = self.from_public_methods(env, t, C)
                assert np.array_equal(env.z0(t), z0)
                assert np.array_equal(env.a(t, C), a)
                assert type(env.a(t, C)) is type(a)
                assert np.array_equal(margin(t, bd, cfg),
                                      env.mu_min(t) - C * env.z0(t))


class TestFullReport:
    def test_fields_populated(self):
        bd = uniform_box_bounds(1.0, 1.0)
        rep = full_report(bd, CriterionConfig(c_omega_kappa=0.1,
                                              horizon=20.0))
        assert rep.holds
        assert rep.a0 is not None and rep.a0 > 0
        assert rep.z1_holds is not None and rep.z2_holds is not None

    def test_joint_grid_holds_each_grid(self):
        # a shorter grid is the longer one's samples below its horizon,
        # then the horizon, so one table serves both horizons
        rng = np.random.default_rng(64)
        points = np.expm1(np.arange(1, 2000, 37) * math.log1p(0.01))
        for _ in range(300):
            h1 = float(rng.choice([10 ** rng.uniform(-3, 6),
                                   rng.choice(points)]))
            h2 = float(rng.choice([10 ** rng.uniform(-3, 6), h1, 0.0,
                                   rng.choice(points)]))
            for hs in ([h1, h2], [h2, h1], [h1]):
                ts, picks = _joint_times(hs)
                for h, pick in zip(hs, picks):
                    assert ts[pick].tobytes() == \
                        geometric_times(h).tobytes(), (h, hs)

    @staticmethod
    def outcome(fn):
        try:
            return repr(fn())
        except InconclusiveTail as exc:
            return f"{type(exc).__name__}: {exc}"

    @staticmethod
    def separately(bd, cfg):
        rep = check_glob_add(bd, cfg)
        rep.a0 = compute_a0(bd, cfg)
        rep.z1_holds, rep.z2_holds = corollary(bd, cfg)
        return rep

    def test_equals_separate_functions(self):
        # full_report samples the margin and a(t) from one table on one
        # grid; it must match the three public functions byte for byte,
        # with check horizons below, equal to and above the a0 horizon,
        # which is SUP_HORIZON unless a bound-term peak lies beyond it
        rng = np.random.default_rng(63)
        cases = [
            (DataBounds(b_min=1.0, omega_min=1e-250, omega_max=1.0,
                        b0_l1=1.0, v0_l2sq=0.0, lap_sum=0.0, kappa2=1.0,
                        c_p=1.0), 1.0),
            (DataBounds(b_min=0.12, omega_min=0.0052, omega_max=24.0,
                        b0_l1=1.0, v0_l2sq=0.0, lap_sum=4747.0,
                        kappa2=0.5022, c_p=3.3), 0.0011),
            (simple_bounds(omega_min=1e-200, lap_sum=1.0), 1.0),
        ]
        for _ in range(60):
            bd = random_bounds(rng, kappa2=rng.uniform(0.55, 3.0))
            if rng.uniform() < 0.3:
                bd = dataclasses.replace(bd, lap_sum=0.0)
            cases.append((bd, 10 ** rng.uniform(-3, 0)))
        kinds = {"inconclusive": 0, "infinite a0": 0, "report": 0}
        for bd, C in cases:
            for horizon in (math.inf, 0.0, 0.03, 20.0, SUP_HORIZON, 1e5):
                cfg = CriterionConfig(c_omega_kappa=C, horizon=horizon)
                got = self.outcome(lambda: full_report(bd, cfg))
                assert got == self.outcome(
                    lambda: self.separately(bd, cfg)), (bd, cfg)
                if got.startswith("InconclusiveTail"):
                    kinds["inconclusive"] += 1
                elif "a0=inf" in got:
                    kinds["infinite a0"] += 1
                else:
                    kinds["report"] += 1
        assert min(kinds.values()) > 0, kinds


def _bits(x):
    return np.float64(x).tobytes()


def _logged(f):
    """f and the list of the points it is evaluated at."""
    xs = []

    def g(x):
        xs.append(_bits(x))
        return f(x)
    return g, xs


def _root_problems(n, seed):
    """(f, a, b) with one sign change in [a, b]: smooth, steep, flat and
    kinked functions, with the bracket ends in either order."""
    rng = np.random.default_rng(seed)
    shapes = (
        lambda r, c: lambda x: math.tanh(c * (x - r)),
        lambda r, c: lambda x: (x - r) ** 3 + 1e-3 * c * (x - r),
        lambda r, c: lambda x: math.expm1(c * (x - r)),
        lambda r, c: lambda x: (x - r) * (1.0 + c * math.sin(5.0 * x) ** 2),
        lambda r, c: lambda x: math.copysign(abs(x - r) ** 0.2, x - r) - c * 1e-9,
        lambda r, c: lambda x: c * (x - r) - 0.5 if x > r else -1.0,
    )
    for i in range(n):
        r = rng.uniform(-5.0, 5.0)
        a = r - 10 ** rng.uniform(-6.0, 1.0)
        b = r + 10 ** rng.uniform(-6.0, 1.0)
        f = shapes[i % len(shapes)](r, rng.uniform(0.1, 3.0))
        if f(a) * f(b) >= 0.0:
            continue
        yield (f, a, b) if rng.uniform() < 0.5 else (f, b, a)


def _min_problems(n, seed):
    """(f, a, b, xatol): one or several interior minima, a minimum at
    either bound, nearly flat objectives, and a well in a plateau, whose
    ties take the search's tie-breaking branches."""
    rng = np.random.default_rng(seed)
    shapes = (
        lambda m, c: lambda x: c * (x - m) ** 2,
        lambda m, c: lambda x: -math.exp(-c * (x - m) ** 2) + 1e-3 * x,
        lambda m, c: lambda x: math.cos(c * 7.0 * x) + 0.1 * (x - m) ** 2,
        lambda m, c: lambda x: abs(x - m) ** 0.5 * c,
        lambda m, c: lambda x: c * x,
        lambda m, c: lambda x: -c * x,
        lambda m, c: lambda x: 1.0 + 1e-17 * c * (x - m) ** 2,
        lambda m, c: lambda x: 0.0 if abs(x - m) < 0.05 * c else 1.0,
    )
    for i in range(n):
        m = rng.uniform(-5.0, 5.0)
        a = m - 10 ** rng.uniform(-4.0, 1.0)
        b = m + 10 ** rng.uniform(-4.0, 1.0)
        xatol = 10 ** rng.uniform(-12.0, -4.0) * max(abs(b), 1.0)
        yield shapes[i % len(shapes)](m, rng.uniform(0.1, 3.0)), a, b, xatol


def _scipy_min(f, a, b, xatol, maxfun=500):
    res = minimize_scalar(f, bounds=(a, b), method="bounded",
                          options={"xatol": xatol, "maxiter": maxfun})
    return res.x, res.fun


class TestBrentRoot:
    """_brentq against scipy.optimize.brentq: the same root, value and
    evaluation points, bit for bit.  Handed the end values, _brentq
    gives the same root and skips scipy's first two evaluations."""

    def same_as_scipy(self, f, a, b, **kw):
        mine, xs_mine = _logged(f)
        theirs, xs_theirs = _logged(f)
        x = _brentq(mine, a, b, **kw)
        assert _bits(x) == _bits(brentq(theirs, a, b, rtol=1e-10, **kw))
        assert xs_mine == xs_theirs
        given, xs_given = _logged(f)
        assert _bits(_brentq(given, a, b, fpre=f(a), fcur=f(b), **kw)) \
            == _bits(x)
        assert xs_given == xs_theirs[2:]
        return x, len(xs_mine)

    def test_random_brackets(self):
        calls = []
        for f, a, b in _root_problems(400, seed=20):
            x, n = self.same_as_scipy(f, a, b)
            calls.append(n)
        assert len(calls) > 300 and max(calls) > 10

    def test_zero_at_an_end(self):
        f = lambda x: x - 1.0  # noqa: E731
        assert self.same_as_scipy(f, 1.0, 3.0) == (1.0, 2)
        assert self.same_as_scipy(f, -2.0, 1.0) == (1.0, 2)

    def test_root_next_to_an_end(self):
        for eps in (1e-14, 1e-10, 1e-6):
            self.same_as_scipy(lambda x: x - (2.0 + eps), 2.0, 3.0)
            self.same_as_scipy(lambda x: x - (3.0 - eps), 2.0, 3.0)

    def test_step_with_underflowed_divisor(self):
        # values near the underflow threshold make the extrapolation's
        # divisor 0: C's inf or NaN step fails the step test and bisects
        for scale in (1e-300, 1e-310):
            self.same_as_scipy(lambda x: scale * math.expm1(3 * (x - 0.3)),
                               -1.0, 2.0)
            self.same_as_scipy(lambda x: scale * ((x - 0.3) ** 3
                                                  + 1e-3 * (x - 0.3)),
                               -1.0, 2.0)

    def test_ends_of_one_sign(self):
        for a, b in ((2.0, 3.0), (-3.0, -2.0)):
            with pytest.raises(ValueError, match="different signs"):
                brentq(lambda x: x * x - 1.0, a, b)
            with pytest.raises(ValueError, match="different signs"):
                _brentq(lambda x: x * x - 1.0, a, b)
            with pytest.raises(ValueError, match="different signs"):
                _brentq(lambda x: x * x - 1.0, a, b, fpre=a * a - 1.0,
                        fcur=b * b - 1.0)

    def test_iteration_cap(self):
        f = lambda x: math.tanh(3.0 * (x - 0.3))  # noqa: E731
        _, full = self.same_as_scipy(f, -4.0, 5.0)
        for cap in range(1, full - 2):
            mine, xs_mine = _logged(f)
            theirs, xs_theirs = _logged(f)
            with pytest.raises(RuntimeError, match=f"after {cap} iter"):
                _brentq(mine, -4.0, 5.0, maxiter=cap)
            with pytest.raises(RuntimeError, match=f"after {cap} iter"):
                brentq(theirs, -4.0, 5.0, rtol=1e-10, maxiter=cap)
            assert xs_mine == xs_theirs and len(xs_mine) == cap + 2
            given, xs_given = _logged(f)
            with pytest.raises(RuntimeError, match=f"after {cap} iter"):
                _brentq(given, -4.0, 5.0, maxiter=cap, fpre=f(-4.0),
                        fcur=f(5.0))
            assert xs_given == xs_theirs[2:]

    def test_nan_is_inconclusive(self):
        # scipy raised ValueError on a NaN value; both exit 3
        for x_nan in (0.0, 1.0, None):
            def f(x):
                return math.nan if x == x_nan or (x_nan is None and
                                                 0.2 < x < 0.8) else x - 0.5
            with pytest.raises(ValueError, match="NaN"):
                brentq(f, 0.0, 1.0)
            with pytest.raises(InconclusiveTail, match="existence margin"):
                _brentq(f, 0.0, 1.0)
            with pytest.raises(InconclusiveTail, match="existence margin"):
                _brentq(f, 0.0, 1.0, fpre=f(0.0), fcur=f(1.0))


class TestBoundedMinimum:
    """_fminbound against minimize_scalar(method="bounded"): the same
    minimiser, value and evaluation points, bit for bit."""

    def same_as_scipy(self, f, a, b, xatol, maxfun=500):
        mine, xs_mine = _logged(f)
        theirs, xs_theirs = _logged(f)
        x, fx = _fminbound(mine, a, b, xatol, maxfun)
        want = _scipy_min(theirs, a, b, xatol, maxfun)
        assert (_bits(x), _bits(fx)) == (_bits(want[0]), _bits(want[1]))
        assert xs_mine == xs_theirs
        return x, len(xs_mine)

    def test_random_intervals(self):
        calls = []
        for f, a, b, xatol in _min_problems(350, seed=20):
            calls.append(self.same_as_scipy(f, a, b, xatol)[1])
        assert len(calls) == 350 and max(calls) > 30

    def test_minimum_at_either_bound(self):
        # within the search's tolerance sqrt(2.2e-16)·|x| + xatol/3
        x, _ = self.same_as_scipy(lambda x: x, 1.0, 2.0, 1e-12)
        assert x - 1.0 < 3e-8
        x, _ = self.same_as_scipy(lambda x: -x, 1.0, 2.0, 1e-12)
        assert 2.0 - x < 6e-8

    def test_flat_objective(self):
        self.same_as_scipy(lambda x: 3.0, 0.0, 1.0, 1e-12)
        self.same_as_scipy(lambda x: 0.0 * x, -7.0, 1e3, 1e-9)

    def test_empty_interval(self):
        assert self.same_as_scipy(lambda x: x * x, 2.0, 2.0, 1e-12)[1] == 1

    def test_evaluation_cap(self):
        f = lambda x: math.cos(3.0 * x) + 0.01 * x  # noqa: E731
        _, full = self.same_as_scipy(f, 0.0, 4.0, 1e-12)
        for cap in range(1, full + 2):
            _, n = self.same_as_scipy(f, 0.0, 4.0, 1e-12, maxfun=cap)
            assert n == min(max(cap, 2), full)

    def test_nan_values_follow_scipy(self):
        # a NaN value is never a better point; a NaN first value stays
        def holes(x):
            return math.nan if 0.3 < x < 0.5 else (x - 0.6) ** 2

        self.same_as_scipy(holes, 0.0, 1.0, 1e-12)
        x, fx = _fminbound(lambda x: math.nan, 0.0, 1.0, 1e-12)
        assert math.isnan(fx) and 0.0 < x < 1.0

    def test_nan_search_keeps_the_grid_maximum(self, monkeypatch):
        bd = simple_bounds(kappa2=1.5, lap_sum=2.0)
        cfg = CriterionConfig(c_omega_kappa=0.05)
        searched = full_report(bd, cfg).a0
        monkeypatch.setattr(criterion, "_fminbound",
                            lambda *args, **kw: (0.0, math.inf))
        unsearched = full_report(bd, cfg).a0
        monkeypatch.undo()
        monkeypatch.setattr(EnvelopeSet, "a",
                            lambda self, t, C: np.float64(math.nan))
        assert full_report(bd, cfg).a0 == unsearched <= searched


_CHECK_REPORT = """\
existence criterion: VIOLATED (C = 0.05, horizon = inf)
first violation at t = 0.678563982338
a0 = 2.27460529383
z1 holds: True
z2 holds: False
margin sampled at 927 points: start 0.2, end 0.5
"""

_NO_OPTIMIZE = """
import sys
import kturb, kturb.harness, kturb.cli
kturb.cli.main(["check", "--lap-sum", "1", "--b-min", "0.5",
                "--constant-C", "0.05"])
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
"""


def test_kturb_loads_no_scipy_optimize():
    # a fresh process: a report that uses both searches, and never
    # imports scipy.optimize
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _NO_OPTIMIZE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _CHECK_REPORT


_NO_SCIPY = """
import sys
import kturb, kturb.harness, kturb.cli
from kturb.harness import InitialDataSpec, RunConfig, run_simulate
assert kturb.cli.main(["check", "--resolution", "16"]) == 0
result = run_simulate(RunConfig(resolution=(8, 8, 8), t_end=0.05,
                                initial=InitialDataSpec(band=2)))
assert result.final_state.t == 0.05
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy, f"scipy modules imported: {scipy}"
"""


def test_kturb_loads_no_scipy_package():
    # a fresh process: the criterion from seeded data and a short run,
    # both transforming, with the pocketfft module loaded from its file
    from kturb import grid
    if grid._pocketfft is None:
        pytest.skip("scipy has no usable private pocketfft binding")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("existence criterion: ")
