"""Time marching: step selection, accuracy, guards, determinism."""

import numpy as np
import pytest

from kturb import (BlowUp, Forcing, ModelParams, PositivityViolation, State,
                   StepControl, TorusGrid, advance, compute_dt)
from kturb import ops
from kturb.integrator import MAX_STEPS
from tests.test_dynamics import make_state, tendency


def uniform_state(grid, om=1.0, b=1.0, t=0.0):
    return State.uniform(grid, om, b, t)


def one_step(state, dt, params, forcing=None):
    """One RK4 step of length dt: advance at a fixed dt, from the
    physical state to the physical state."""
    return advance(state, state.t + dt, params,
                   StepControl(dt_max=dt, dt_fixed=dt), forcing=forcing)


class TestStepControl:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepControl(dt_max=0.0)
        with pytest.raises(ValueError):
            StepControl(dt_max=0.1, dt_fixed=0.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                StepControl(dt_max=0.1, dt_fixed=bad)
            with pytest.raises(ValueError, match="finite"):
                StepControl(dt_max=bad)


class TestComputeDt:
    def test_diffusive_limit_at_rest(self):
        # v = 0, mu = 1: dt = 0.9 * 2.785 / (c_diff k2_max), and the 2/3
        # rule keeps |m_i| <= 10 at N = 32, so k2_max = 3 * 10^2
        g = TorusGrid(resolution=(32, 32, 32))
        s = uniform_state(g)
        ctl = StepControl(dt_max=10.0)
        assert compute_dt(s, ModelParams(), ctl) == pytest.approx(
            0.9 * 2.785 / 300.0, rel=1e-14)

    def test_h_squared_scaling(self):
        ctl = StepControl(dt_max=10.0)
        p = ModelParams()
        dts = [compute_dt(uniform_state(TorusGrid(resolution=(n,) * 3)), p, ctl)
               for n in (16, 32)]
        assert dts[0] == pytest.approx(4.0 * dts[1], rel=1e-14)

    def test_advective_limit(self):
        g = TorusGrid(resolution=(16, 16, 16))
        _, x2, _ = g.coordinates()
        s = uniform_state(g, b=1e-6)
        s.y[0] = 10.0 * np.sin(x2)
        # vmax = 10 dominates; diffusive bound is huge for tiny mu
        h = 2 * np.pi / 16
        got = compute_dt(s, ModelParams(), StepControl(dt_max=10.0))
        assert got == pytest.approx(0.4 * h / 10.0, rel=1e-12)

    def test_fixed_override_wins(self):
        g = TorusGrid(resolution=(32, 32, 32))
        s = uniform_state(g, b=100.0)
        ctl = StepControl(dt_max=10.0, dt_fixed=0.007)
        assert compute_dt(s, ModelParams(), ctl) == 0.007
        assert compute_dt(s, ModelParams(),
                          StepControl(dt_max=0.001)) <= 0.001


class TestRk4Step:
    def test_uniform_omega_decay_accuracy(self):
        # omega' = -omega^2 from omega = 1: exact 1/(1+dt)
        g = TorusGrid(resolution=(8, 8, 8))
        dt = 0.01
        new = one_step(uniform_state(g), dt, ModelParams())
        exact = 1.0 / (1.0 + dt)
        assert np.max(np.abs(new.omega - exact)) < 1e-11
        assert np.max(np.abs(new.v)) == 0.0
        assert new.t == dt

    def test_rejects_bad_dt(self):
        g = TorusGrid(resolution=(8, 8, 8))
        with pytest.raises(ValueError):
            one_step(uniform_state(g), -0.1, ModelParams())

    def test_bitwise_determinism(self):
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, np.random.default_rng(31))
        a = one_step(s, 0.002, ModelParams())
        b = one_step(s, 0.002, ModelParams())
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.b, b.b)

    def test_positivity_violation_on_overshoot(self):
        # dt = 3 with omega' = -omega^2 from 1 drives RK4 below zero
        g = TorusGrid(resolution=(8, 8, 8))
        with pytest.raises(PositivityViolation) as exc, \
                pytest.warns(RuntimeWarning, match="stability limit"):
            one_step(uniform_state(g), 3.0, ModelParams())
        assert exc.value.t is not None

    def test_blowup_on_nonfinite_forcing(self):
        g = TorusGrid(resolution=(8, 8, 8))
        bad = np.full(g.resolution, np.inf)
        forcing = Forcing(lambda t: (None, bad, None))
        with np.errstate(invalid="ignore"):
            with pytest.raises((BlowUp, PositivityViolation)):
                one_step(uniform_state(g), 0.01, ModelParams(),
                         forcing=forcing)

    def test_velocity_stays_solenoidal(self):
        g = TorusGrid(resolution=(16, 16, 16))
        s = make_state(g, np.random.default_rng(32), v_amp=0.5)
        new = advance(s, 0.01, ModelParams(),
                      StepControl(dt_max=0.002, dt_fixed=0.002))
        vhat = g.rfft(new.v)
        div = np.max(np.abs(ops.div_hat(g, vhat)))
        assert div < 1e-11 * (np.max(np.abs(vhat)) + 1e-300)


class TestEntryProjection:
    """advance checks its physical input, then projects it onto the 2/3
    mask, as the tendency's dealiased transform does."""

    def off_mask(self, g, eps=1e-2):
        # modes with |m| = 7 > 16/3 in omega, b and a solenoidal velocity
        x1, x2, x3 = g.coordinates()
        p = np.zeros((5,) + g.resolution)
        p[0] = eps * np.sin(7 * x2)
        p[3] = eps * np.cos(7 * x1) * np.cos(6 * x3)
        p[4] = eps * np.sin(7 * x3)
        return p

    def test_off_mask_input_dropped_alike(self):
        g = TorusGrid(resolution=(16, 16, 16))
        s = make_state(g, np.random.default_rng(35))
        noisy = State(g, s.y + self.off_mask(g))
        p = ModelParams()
        ctl = StepControl(dt_max=1.0, dt_fixed=0.002)
        pairs = [
            (tendency(s, p), tendency(noisy, p)),
            (one_step(s, 0.002, p).y, one_step(noisy, 0.002, p).y),
            (advance(s, 0.004, p, ctl).y, advance(noisy, 0.004, p, ctl).y),
        ]
        for clean, dropped in pairs:
            scale = np.max(np.abs(clean))
            assert np.max(np.abs(dropped - clean)) < 1e-13 * scale

    def test_nonpositive_omega_point_raises(self):
        # projection alone would smooth this point away
        g = TorusGrid(resolution=(8, 8, 8))
        s = uniform_state(g)
        s.y[3, 0, 0, 0] = -0.5
        assert np.min(g.irfft(g.rfft(s.y, dealiased=True))[3]) > 0.0
        with pytest.raises(PositivityViolation, match="min\\(omega\\) = -5"):
            one_step(s, 0.01, ModelParams())
        with pytest.raises(PositivityViolation, match="min\\(omega\\) = -5"):
            advance(s, 0.1, ModelParams(), StepControl(dt_max=0.01))


class TestAdvance:
    def test_noop_when_already_there(self):
        g = TorusGrid(resolution=(8, 8, 8))
        s = uniform_state(g, t=1.0)
        out = advance(s, 1.0, ModelParams(), StepControl(dt_max=0.1))
        assert out is s
        with pytest.raises(ValueError):
            advance(s, 0.5, ModelParams(), StepControl(dt_max=0.1))

    def test_rejects_non_finite_t_end(self):
        # a NaN t_end used to return at once, having advanced nothing
        g = TorusGrid(resolution=(8, 8, 8))
        with pytest.raises(ValueError):
            advance(uniform_state(g), np.nan, ModelParams(),
                    StepControl(dt_max=0.1))

    def test_step_budget(self):
        # a dt below the float spacing of t used to loop forever
        g = TorusGrid(resolution=(8, 8, 8))
        with pytest.raises(ValueError, match="steps"):
            advance(uniform_state(g), 1.0, ModelParams(),
                    StepControl(dt_max=1.0, dt_fixed=1e-300))
        with pytest.raises(ValueError, match="steps"):
            advance(uniform_state(g), 1.0, ModelParams(),
                    StepControl(dt_max=1.0, dt_fixed=1.0 / MAX_STEPS / 2))
        # t + dt == t although only 64 steps remain
        with pytest.raises(ValueError, match="no longer advances"):
            advance(uniform_state(g, t=1e17), 1e17 + 64, ModelParams(),
                    StepControl(dt_max=1.0, dt_fixed=1.0))

    def test_uniform_long_run_against_ode(self):
        # omega = 1/(1+t), b = 2/(1+t) for kappa2 = 1, b0 = 2, om0 = 1
        g = TorusGrid(resolution=(8, 8, 8))
        ctl = StepControl(dt_max=1.0, dt_fixed=0.01)
        out = advance(uniform_state(g, b=2.0), 5.0, ModelParams(), ctl)
        assert out.t == 5.0
        assert np.max(np.abs(out.omega - 1.0 / 6.0)) < 1e-9
        assert np.max(np.abs(out.b - 2.0 / 6.0)) < 1e-9

    def test_final_time_exact(self):
        g = TorusGrid(resolution=(8, 8, 8))
        ctl = StepControl(dt_max=1.0, dt_fixed=0.013)  # does not divide 0.1
        out = advance(uniform_state(g), 0.1, ModelParams(), ctl)
        assert out.t == 0.1

    def test_callback_cadence(self):
        g = TorusGrid(resolution=(8, 8, 8))
        ctl = StepControl(dt_max=1.0, dt_fixed=0.01)
        seen, every = [], []
        advance(uniform_state(g), 0.25, ModelParams(), ctl,
                callbacks=[(10, lambda s: seen.append(s.t)),
                           (1, lambda s: every.append(s.t))])
        # 25 steps; cadence 10 fires on steps 1, 11, 21
        assert len(every) == 25
        assert len(seen) == 3
        assert seen == [every[0], every[10], every[20]]
        assert all(a < b for a, b in zip(every, every[1:]))
        assert every[-1] == 0.25

    def test_matches_repeated_rk4(self):
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, np.random.default_rng(33))
        ctl = StepControl(dt_max=1.0, dt_fixed=0.005)
        out = advance(s, 0.02, ModelParams(), ctl)
        manual = s
        for _ in range(4):
            manual = one_step(manual, 0.005, ModelParams())
        # one advance keeps the spectral stack between steps while
        # repeated one-step runs round-trip through physical space, so
        # agreement is to transform roundoff only
        assert np.max(np.abs(out.v - manual.v)) < 1e-13
        assert np.max(np.abs(out.b - manual.b)) < 1e-13

    def test_positivity_abort_reports_time(self):
        g = TorusGrid(resolution=(8, 8, 8))
        ctl = StepControl(dt_max=1.0, dt_fixed=0.05)
        # strong negative forcing drags b through zero
        f_b = np.full(g.resolution, -30.0)
        forcing = Forcing(lambda t: (None, None, f_b))
        with pytest.raises(PositivityViolation) as exc:
            advance(uniform_state(g), 2.0, ModelParams(), ctl,
                    forcing=forcing)
        assert 0.0 < exc.value.t <= 2.0

    def test_deterministic_across_calls(self):
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, np.random.default_rng(34))
        ctl = StepControl(dt_max=0.01)
        a = advance(s, 0.05, ModelParams(), ctl)
        b = advance(s, 0.05, ModelParams(), ctl)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.b, b.b)
