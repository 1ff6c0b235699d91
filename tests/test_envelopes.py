"""Closed-form envelopes: plug-in values, ODE cross-checks, structure."""

import dataclasses
import math

import numpy as np
import pytest

from kturb import (DataBounds, EnvelopeSet, Kappa2TooSmall, ModelParams,
                   State, StepControl, TorusGrid, advance, geometric_times)


def simple_bounds(**over):
    base = dict(b_min=1.0, omega_min=1.0, omega_max=1.0, b0_l1=1.0,
                v0_l2sq=1.0, lap_sum=1.0, kappa2=1.0, c_p=1.0)
    base.update(over)
    return DataBounds(**base)


def random_bounds(rng, kappa2=None):
    if kappa2 is None:
        kappa2 = rng.uniform(0.55, 3.0)
    om_min = rng.uniform(0.05, 2.0)
    return DataBounds(
        b_min=rng.uniform(0.01, 5.0),
        omega_min=om_min,
        omega_max=om_min * rng.uniform(1.0, 4.0),
        b0_l1=rng.uniform(0.0, 10.0),
        v0_l2sq=rng.uniform(0.0, 10.0),
        lap_sum=rng.uniform(0.0, 10.0),
        kappa2=kappa2,
        c_p=rng.uniform(0.2, 5.0),
    )


class TestDataBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            simple_bounds(omega_min=2.0, omega_max=1.0)
        with pytest.raises(ValueError):
            simple_bounds(b_min=0.0)
        with pytest.raises(ValueError):
            simple_bounds(v0_l2sq=-1.0)
        with pytest.raises(ValueError):
            simple_bounds(c_p=0.0)
        with pytest.raises(ValueError):
            simple_bounds(kappa2=0.0)

    def test_v0_l2_autofill(self):
        assert simple_bounds(v0_l2sq=9.0).v0_l2 == 3.0

    def test_v0_l2_derived_not_stored(self):
        # replace() must not keep a stale norm, and the norm is no input
        bd = dataclasses.replace(simple_bounds(v0_l2sq=1.0), v0_l2sq=4.0)
        assert bd.v0_l2 == 2.0
        assert EnvelopeSet(bd).v_l2_envelope(0.0) == 2.0
        with pytest.raises(TypeError):
            simple_bounds(v0_l2=100.0)
        assert [f.name for f in dataclasses.fields(DataBounds)] == [
            "b_min", "omega_min", "omega_max", "b0_l1", "v0_l2sq", "lap_sum",
            "kappa2", "c_p"]


class TestPlugInValues:
    def test_omega_envelopes(self):
        env = EnvelopeSet(simple_bounds(omega_min=0.5, omega_max=2.0,
                                        kappa2=2.0, b_min=0.25))
        assert env.omega_lower(1.0) == pytest.approx(0.25, rel=1e-14)
        assert env.omega_upper(1.0) == pytest.approx(0.4, rel=1e-14)

    def test_b_lower(self):
        # b_min / s^{1/kappa2} with s = 1 + 2 * 1 * 1.5 = 4
        env = EnvelopeSet(simple_bounds(b_min=3.0, kappa2=2.0))
        assert env.b_lower(1.5) == pytest.approx(3.0 / 2.0, rel=1e-14)

    def test_mu_min_sqrt_seven(self):
        # s = 1 + 2 * 3 = 7, exponent 1 - 1/2, ratio 1
        env = EnvelopeSet(simple_bounds(kappa2=2.0))
        assert env.mu_min(3.0) == pytest.approx(math.sqrt(7.0), rel=1e-14)

    def test_v_decay_reference_value(self):
        # kappa2 = 1 collapses the decay bracket to t itself, so the
        # velocity envelope at t = 1 is v0_l2 / e
        env = EnvelopeSet(simple_bounds(v0_l2sq=4.0))
        assert env.v_l2_envelope(1.0) == pytest.approx(2.0 * math.exp(-1.0),
                                                       rel=1e-14)

    def test_b_l1_upper_variants(self):
        bd = simple_bounds(b0_l1=3.0, v0_l2sq=2.0, omega_min=0.5,
                           omega_max=2.0)
        env = EnvelopeSet(bd)
        assert env.b_l1_upper(0.0) == pytest.approx(4.0)
        assert env.b_l1_upper(1.0, "max") == pytest.approx(4.0 / 3.0)
        assert env.b_l1_upper(1.0, "min") == pytest.approx(4.0 / 1.5)
        with pytest.raises(ValueError):
            env.b_l1_upper(1.0, "median")


class TestUniformOdeCrossCheck:
    def test_envelopes_exact_for_uniform_data(self):
        # constants solve the reaction ODEs exactly, and there the lower
        # and upper envelopes pinch the solution
        g = TorusGrid(resolution=(8, 8, 8))
        om0, b0, k2 = 1.4, 2.6, 1.7
        s = State.uniform(g, om0, b0)
        out = advance(s, 2.0, ModelParams(kappa2=k2),
                      StepControl(dt_max=1.0, dt_fixed=0.002))
        env = EnvelopeSet(DataBounds(
            b_min=b0, omega_min=om0, omega_max=om0,
            b0_l1=b0 * g.volume, v0_l2sq=0.0, lap_sum=0.0,
            kappa2=k2, c_p=1.0))
        om_num = float(out.omega[0, 0, 0])
        b_num = float(out.b[0, 0, 0])
        assert om_num == pytest.approx(env.omega_lower(2.0), rel=1e-9)
        assert om_num == pytest.approx(env.omega_upper(2.0), rel=1e-9)
        assert b_num == pytest.approx(env.b_lower(2.0), rel=1e-9)
        # L1 mass of the uniform solution equals the upper bound
        assert b_num * g.volume == pytest.approx(
            env.b_l1_upper(2.0, "max"), rel=1e-9)


class TestStructuralIdentities:
    def test_mu_min_is_quotient_of_envelopes(self):
        rng = np.random.default_rng(41)
        t = np.linspace(0.0, 20.0, 64)
        for _ in range(50):
            env = EnvelopeSet(random_bounds(rng))
            quot = env.b_lower(t) / env.omega_upper(t)
            assert np.max(np.abs(env.mu_min(t) / quot - 1.0)) < 1e-13

    def test_y2_is_power_of_velocity_decay(self):
        # y2(t)/y2(0) = (v_env(t)/v0_l2)^{kappa2} when v0_l2 > 0
        rng = np.random.default_rng(42)
        t = np.linspace(0.0, 10.0, 32)
        for _ in range(50):
            bd = random_bounds(rng)
            if bd.v0_l2sq == 0 or bd.lap_sum == 0:
                continue
            env = EnvelopeSet(bd)
            lhs = env.y2(t) / bd.lap_sum
            rhs = (env.v_l2_envelope(t) / bd.v0_l2) ** bd.kappa2
            keep = rhs > 1e-200  # skip samples where the power underflows
            assert np.max(np.abs(lhs[keep] / rhs[keep] - 1.0)) < 1e-12

    def test_monotone_decay(self):
        rng = np.random.default_rng(43)
        t = geometric_times(50.0, 0.05)
        for _ in range(30):
            env = EnvelopeSet(random_bounds(rng))
            for fn in (env.omega_upper, env.omega_lower, env.b_lower,
                       env.v_l2_envelope, env.y2,
                       lambda tt: env.b_l1_upper(tt, "max"),
                       lambda tt: env.b_l1_upper(tt, "min")):
                vals = fn(t)
                assert np.all(np.diff(vals) <= 1e-14 * vals[0])

    def test_b_l1_min_variant_dominates_max_variant(self):
        rng = np.random.default_rng(44)
        t = np.linspace(0.0, 30.0, 50)
        for _ in range(30):
            env = EnvelopeSet(random_bounds(rng))
            assert np.all(env.b_l1_upper(t, "min")
                          >= env.b_l1_upper(t, "max") - 1e-15)

    def test_mu_min_monotonicity_switches_at_kappa2_one(self):
        t = np.linspace(0.0, 10.0, 40)
        grow = EnvelopeSet(simple_bounds(kappa2=1.5)).mu_min(t)
        flat = EnvelopeSet(simple_bounds(kappa2=1.0)).mu_min(t)
        decay = EnvelopeSet(simple_bounds(kappa2=0.8)).mu_min(t)
        assert np.all(np.diff(grow) > 0)
        assert np.max(np.abs(flat - flat[0])) < 1e-14
        assert np.all(np.diff(decay) < 0)


class TestGuards:
    def test_small_kappa2_gates_energy_envelopes(self):
        env = EnvelopeSet(simple_bounds(kappa2=0.4))
        # pointwise envelopes remain valid
        assert env.omega_lower(1.0) > 0
        assert env.mu_min(1.0) > 0
        for fn in (env.v_l2_envelope, env.y2, env.z0):
            with pytest.raises(Kappa2TooSmall):
                fn(1.0)

    def test_negative_time_rejected(self):
        env = EnvelopeSet(simple_bounds())
        for fn in (env.omega_lower, env.omega_upper, env.b_lower,
                   env.mu_min, env.v_l2_envelope, env.y2, env.z0):
            with pytest.raises(ValueError):
                fn(-0.5)
            with pytest.raises(ValueError):
                fn(np.array([0.0, 1.0, -1e-9]))
            for t in (np.float64(-0.5), np.array(-0.5), -1e-300):
                with pytest.raises(ValueError):
                    fn(t)
        with pytest.raises(ValueError):
            env.a(-0.5, 1.0)


def scalar_formulas(bd, t):
    """Every public EnvelopeSet method's formula on an np.float64 time,
    in the envelopes' order of operations, as method name -> value."""
    k2 = bd.kappa2
    s = 1.0 + k2 * bd.omega_max * t
    s_min = 1.0 + k2 * bd.omega_min * t
    w = bd.omega_min / s_min
    mass = bd.b0_l1 + 0.5 * bd.v0_l2sq
    bmax = mass / s ** (1.0 / k2)
    rate = bd.b_min / (bd.omega_max**2 * (2.0 * k2 - 1.0)) / bd.c_p**2
    expo = rate * (s ** (2.0 - 1.0 / k2) - 1.0)
    y = bd.lap_sum * np.exp(-k2 * expo)
    A = (bd.v0_l2sq + bmax**2) ** 0.25
    B = 1.0 + 1.0 / w + bmax / w + bmax / w**2
    C = 1.0 / w + 1.0 / w**2 + bmax / w**2 + bmax / w**3
    D = 1.0 / w**2 + 1.0 / w**3
    q = y**0.25
    return {
        "omega_lower": w,
        "omega_upper": bd.omega_max / s,
        "b_lower": bd.b_min / s ** (1.0 / k2),
        "b_l1_upper": bmax,
        "b_l1_upper_min": mass / s_min ** (1.0 / k2),
        "mu_min": (bd.b_min / bd.omega_max) * s ** (1.0 - 1.0 / k2),
        "v_l2_envelope": bd.v0_l2 * np.exp(-expo),
        "y2": y,
        "coeff_A": A, "coeff_B": B, "coeff_C": C, "coeff_D": D,
        "z0": bmax + A * q + B * q**2 + C * y + D * y**1.5,
        "a": (2.0 * 0.3 * s ** (1.0 / k2 - 1.0)
              * (A + B * q + C * q**3 + D * q**5)),
    }


class TestScalarTimes:
    """A float time runs as an np.float64 scalar: a Python float, an
    np.float64 and a 0-d array must give the same bits and the same
    result type as the formula evaluated on np.float64 scalars."""

    def test_scalar_kinds_match_formula(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            bd = random_bounds(rng, kappa2=rng.uniform(0.5, 3.0))
            env = EnvelopeSet(bd)
            methods = {name: getattr(env, name) for name in (
                "omega_lower", "omega_upper", "b_lower", "b_l1_upper",
                "mu_min", "v_l2_envelope", "y2", "coeff_A", "coeff_B",
                "coeff_C", "coeff_D", "z0")}
            methods["b_l1_upper_min"] = lambda t: env.b_l1_upper(t, "min")
            methods["a"] = lambda t: env.a(t, 0.3)
            for t in (0.0, float(rng.uniform(0.0, 5.0)),
                      float(10 ** rng.uniform(0, 6))):
                want = scalar_formulas(bd, np.float64(t))
                for name, fn in methods.items():
                    for arg in (t, np.float64(t), np.array(t)):
                        got = fn(arg)
                        assert type(got) is np.float64, (name, type(arg))
                        assert got.tobytes() == want[name].tobytes(), name


def z0_oracle(bd, t):
    """Independent scalar-by-scalar recomputation of the criterion
    aggregate, written without reusing EnvelopeSet internals."""
    s = 1.0 + bd.kappa2 * bd.omega_max * t
    bmax = (bd.b0_l1 + 0.5 * bd.v0_l2sq) / s ** (1.0 / bd.kappa2)
    w = bd.omega_min / (1.0 + bd.kappa2 * bd.omega_min * t)
    rate = bd.b_min / (bd.c_p**2 * bd.omega_max**2 * (2 * bd.kappa2 - 1))
    expo = rate * (s ** (2.0 - 1.0 / bd.kappa2) - 1.0)
    y = bd.lap_sum * math.exp(-bd.kappa2 * expo)
    A = (bd.v0_l2sq + bmax * bmax) ** 0.25
    B = 1.0 + 1.0 / w + bmax / w + bmax / w**2
    C = 1.0 / w + 1.0 / w**2 + bmax / w**2 + bmax / w**3
    D = 1.0 / w**2 + 1.0 / w**3
    return (bmax + A * y**0.25 + B * math.sqrt(y) + C * y + D * y**1.5)


class TestZ0Oracle:
    def test_against_independent_recomputation(self):
        rng = np.random.default_rng(45)
        for _ in range(1000):
            bd = random_bounds(rng)
            t = rng.uniform(0.0, 40.0)
            got = float(EnvelopeSet(bd).z0(t))
            want = z0_oracle(bd, t)
            assert got == pytest.approx(want, rel=1e-12)


class TestGeometricTimes:
    def test_grid_properties(self):
        t = geometric_times(100.0, 0.01)
        assert t[0] == 0.0 and t[-1] == 100.0
        assert np.all(np.diff(t) > 0)
        # consecutive shifted samples grow by at most the factor 1+delta
        assert np.all((1 + t[1:]) <= (1 + t[:-1]) * 1.01 * (1 + 1e-12))

    def test_equals_sorted_unique_form(self):
        # the grid is built sorted, so it needs no np.unique pass: it is the
        # clipped expm1 samples with duplicates removed
        def unique_form(horizon, delta):
            jmax = int(math.ceil(math.log1p(horizon) / math.log1p(delta)))
            t = np.expm1(np.arange(jmax + 1) * math.log1p(delta))
            t[t > horizon] = horizon
            if t[-1] < horizon:
                t = np.append(t, horizon)
            return np.unique(t)

        for delta in (0.01, 0.05, 0.1, 1e-3, 0.37):
            points = np.expm1(np.arange(1, 300) * math.log1p(delta))
            horizons = [0.03, 20.0, 1e4] + list(points[::7])
            for h in horizons:
                got, want = geometric_times(h, delta), unique_form(h, delta)
                assert got.tobytes() == want.tobytes(), (h, delta)
        assert geometric_times(0.0).tobytes() == np.zeros(1).tobytes()

    def test_edge_cases(self):
        assert np.array_equal(geometric_times(0.0), np.zeros(1))
        with pytest.raises(ValueError):
            geometric_times(-1.0)
        t = geometric_times(0.005, 0.01)
        assert t[0] == 0.0 and t[-1] == 0.005
