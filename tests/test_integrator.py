"""Time marching: step selection, accuracy, guards, determinism."""

import numpy as np
import pytest

from kturb import (BlowUp, Forcing, ModelParams, PositivityViolation, State,
                   StepControl, TorusGrid, advance, compute_dt)
from kturb import ops
from kturb.dynamics import TendencyKernel
from kturb.integrator import MAX_STEPS, _Marcher
from tests.test_dynamics import make_state, spectral_forcing, tendency


def uniform_state(grid, om=1.0, b=1.0, t=0.0):
    return State.uniform(grid, om, b, t)


def uniform_forcing(grid, f_om=0.0, f_b=0.0):
    """The spectrum of the spatially uniform forcing (0, 0, 0, f_om, f_b)."""
    f = np.zeros((5,) + grid.kept_shape, dtype=complex)
    f[3:, 0, 0, 0] = f_om * grid.npoints, f_b * grid.npoints
    return f


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
        bad = uniform_forcing(g, f_om=np.inf)
        forcing = Forcing(lambda t: bad)
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
        assert np.min(g.irfft(g.rfft(s.y))[3]) > 0.0
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

    @pytest.mark.parametrize("every", [0, -2, 2.0, 1.5, "3", None])
    def test_callback_cadence_refused_before_stepping(self, every,
                                                      monkeypatch):
        g = TorusGrid(resolution=(8, 8, 8))
        ctl = StepControl(dt_max=1.0, dt_fixed=0.01)
        stages = []
        orig = TendencyKernel.__call__

        def counted(self, *args, **kwargs):
            stages.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(TendencyKernel, "__call__", counted)
        with pytest.raises(ValueError, match="cadence"):
            advance(uniform_state(g), 0.05, ModelParams(), ctl,
                    callbacks=[(1, lambda s: None), (every, lambda s: None)])
        assert stages == []

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
        f_b = uniform_forcing(g, f_b=-30.0)
        forcing = Forcing(lambda t: f_b)
        with pytest.raises(PositivityViolation) as exc:
            advance(uniform_state(g), 2.0, ModelParams(), ctl,
                    forcing=forcing)
        assert 0.0 < exc.value.t <= 2.0

    def test_guard_reads_the_kernel_inverse(self, monkeypatch):
        # each accepted state is checked, and handed to the callbacks, on
        # the inverse transform of the next step's first kernel call, the
        # last on that of the returned state: no transform of its own
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, np.random.default_rng(37))
        inverses = []
        orig = TorusGrid.irfft

        def counted(self, *args, **kwargs):
            inverses.append(np.shape(args[0])[0])
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(TorusGrid, "irfft", counted)
        seen = []
        # a binary dt, so every t is exact and no step is clipped
        dt = 2.0**-8
        ctl = StepControl(dt_max=1.0, dt_fixed=dt)
        out = advance(s, 4 * dt, ModelParams(), ctl,
                      callbacks=[(1, seen.append)])
        assert inverses == [16] * 16 + [5]
        monkeypatch.setattr(TorusGrid, "irfft", orig)
        # the callback states are those of shorter runs, bit for bit
        for i, state in enumerate(seen[:3]):
            alone = advance(s, dt * (i + 1), ModelParams(), ctl)
            assert state.t == alone.t
            assert state.y.tobytes() == alone.y.tobytes()
            assert state.y_hat.tobytes() == alone.y_hat.tobytes()
            assert state.budget == alone.budget != 0.0
        # the last step's callbacks get the returned state itself
        assert seen[-1] is out

    def test_uniform_run_transforms_once(self, monkeypatch):
        # a uniform state is checked, and handed to the callbacks, on the
        # k = 0 means the kernel fills in without a transform; only the
        # returned state is transformed
        g = TorusGrid(resolution=(16, 16, 16))
        inverses = []
        orig = TorusGrid.irfft

        def counted(self, *args, **kwargs):
            inverses.append(np.shape(args[0])[0])
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(TorusGrid, "irfft", counted)
        seen = []
        dt = 2.0**-8
        out = advance(uniform_state(g, 0.9, 1.8), 16 * dt, ModelParams(),
                      StepControl(dt_max=1.0, dt_fixed=dt),
                      callbacks=[(1, seen.append)])
        assert inverses == [5]
        assert [state.t for state in seen] == [dt * i for i in range(1, 17)]
        for state in seen:
            mean = state.y_hat[:, 0, 0, 0].real / g.npoints
            assert np.all(state.y == mean[:, None, None, None])
        assert seen[-1].y.tobytes() == out.y.tobytes()

    def test_refuses_a_divergent_velocity(self):
        # the kernel forms D33 as -(D11 + D22), which holds for a
        # divergence-free velocity only; advance judges the one it starts
        # from as State.validate does, here a divergent field on the block
        # under a solenoidal one 1e12 times larger outside it
        # (|m2| = 7 > 16/3)
        g = TorusGrid(resolution=(16, 16, 16))
        x1, x2, _ = g.coordinates()
        ctl = StepControl(dt_max=1.0, dt_fixed=0.01)
        for amp in (1.0, 1e-12):
            s = uniform_state(g)
            s.y[0] = np.sin(7 * x2) + amp * np.sin(x1)
            with pytest.raises(ValueError, match="not divergence-free"):
                advance(s, 0.01, ModelParams(), ctl)
        s.y[0] = 1e-3 * np.sin(x2) + 0 * x1
        assert advance(s, 0.01, ModelParams(), ctl).t == 0.01

    def test_restart_continues_bit_for_bit(self):
        # a returned state carries its kept block and advance starts from
        # a copy of it, so a run split in two gives the bits of one run
        # and leaves the first result as it was
        g = TorusGrid(resolution=(16, 16, 16))
        s = make_state(g, np.random.default_rng(3), band=4)
        dt = 2.0**-7
        ctl = StepControl(dt_max=1.0, dt_fixed=dt)
        first = advance(s, 4 * dt, ModelParams(), ctl)
        y, y_hat = first.y.tobytes(), first.y_hat.tobytes()
        split = advance(first, 8 * dt, ModelParams(), ctl)
        whole = advance(s, 8 * dt, ModelParams(), ctl)
        assert split.t == whole.t == 8 * dt
        assert split.y.tobytes() == whole.y.tobytes()
        assert split.y_hat.tobytes() == whole.y_hat.tobytes()
        # the energy budget's integral is continued, not restarted
        assert split.budget == whole.budget != first.budget
        assert first.y.tobytes() == y
        assert first.y_hat.tobytes() == y_hat
        # both are read-only, so an edit of y cannot leave y_hat, which
        # the next march starts from, behind
        with pytest.raises(ValueError, match="read-only"):
            first.y[4] += 0.5
        with pytest.raises(ValueError, match="read-only"):
            first.y_hat[4] *= 2.0

    def test_guard_failure_names_the_state_time(self):
        # a forcing drags min(b) through zero at step 6; the guard finds
        # it in step 7's first kernel call and names t = 0.06
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, np.random.default_rng(38))
        f_b = uniform_forcing(g, f_b=-30.0)
        seen = []
        with pytest.raises(PositivityViolation,
                           match=r"min\(b\) = -.* at t = 0.06$") as exc:
            advance(s, 1.0, ModelParams(),
                    StepControl(dt_max=1.0, dt_fixed=0.01),
                    callbacks=[(1, lambda st: seen.append(st.t))],
                    forcing=Forcing(lambda t: f_b))
        assert exc.value.t == pytest.approx(0.06, abs=1e-15)
        assert seen == pytest.approx([0.01 * i for i in range(1, 6)],
                                     abs=1e-15)

    def test_deterministic_across_calls(self):
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, np.random.default_rng(34))
        ctl = StepControl(dt_max=0.01)
        a = advance(s, 0.05, ModelParams(), ctl)
        b = advance(s, 0.05, ModelParams(), ctl)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.b, b.b)


class TestForcing:
    """advance adds the forcing's spectrum to every stage tendency."""

    def test_wrong_shape_refused(self):
        g = TorusGrid(resolution=(8, 8, 8))
        for shape in ((5,) + g.resolution, (3,) + g.kept_shape,
                      g.kept_shape):
            f = np.zeros(shape, dtype=complex)
            with pytest.raises(ValueError, match="shape"):
                one_step(uniform_state(g), 0.01, ModelParams(),
                         forcing=Forcing(lambda t: f))

    def test_off_mask_refused(self):
        # the kept block has no room for a mode off the mask, so such a
        # forcing comes in the half-spectrum layout, which is refused by
        # its shape, as is that layout with no mode off the mask
        g = TorusGrid(resolution=(12, 12, 12))
        f = g.from_kept(spectral_forcing(g, np.random.default_rng(35)))
        # the block keeps |m_i| <= 12 // 3, so m1 = 5 lies outside it
        assert np.max(np.abs(g.modes[0])) == 4
        with pytest.raises(ValueError, match="kept-block spectrum"):
            one_step(make_state(g, np.random.default_rng(36)), 0.01,
                     ModelParams(), forcing=Forcing(lambda t: f))
        f[4, 5, 0, 0] = 1e-12
        with pytest.raises(ValueError, match="kept-block spectrum"):
            one_step(make_state(g, np.random.default_rng(36)), 0.01,
                     ModelParams(), forcing=Forcing(lambda t: f))

    def test_uniform_state_keeps_fast_path(self, monkeypatch):
        # a uniform forcing keeps a uniform state uniform, so the kernel
        # takes its fast path at every stage; the step is bitwise the one
        # the generic path plus F gives
        g = TorusGrid(resolution=(16, 16, 16))
        f = uniform_forcing(g, f_om=0.3, f_b=-0.2)
        products = []
        orig = TendencyKernel._products

        def counted(self, phys, t):
            products.append(t)
            return orig(self, phys, t)

        monkeypatch.setattr(TendencyKernel, "_products", counted)
        s = uniform_state(g, 0.9, 1.8)
        fast = one_step(s, 0.01, ModelParams(), forcing=Forcing(lambda t: f))
        assert products == []
        monkeypatch.setattr(ops, "is_uniform_state_hat", lambda y_hat: False)
        generic = one_step(s, 0.01, ModelParams(),
                           forcing=Forcing(lambda t: f))
        assert len(products) == 4
        assert fast.y_hat.tobytes() == generic.y_hat.tobytes()
        assert fast.y.tobytes() == generic.y.tobytes()
        # and the forcing did act: omega' = -om^2 + 0.3 at om = 0.9
        unforced = one_step(s, 0.01, ModelParams())
        assert np.all(fast.omega > unforced.omega)


def buffer_bytes(obj):
    """The bytes of the arrays that obj holds as its own attributes."""
    return sum(a.nbytes for a in vars(obj).values()
               if isinstance(a, np.ndarray))


class TestBuffers:
    def test_kernel_and_marcher_bytes(self):
        # the kernel holds 16 kept-block spectra, 20 physical rows and 16
        # half-spectrum work rows; the marcher two stage registers and the
        # stage input, on the kept block
        m = _Marcher(TorusGrid(resolution=(16, 16, 16)), ModelParams())
        assert buffer_bytes(m.kernel) == 1_431_040
        assert buffer_bytes(m) == 174_240
        m = _Marcher(TorusGrid(resolution=(32, 32, 32)), ModelParams())
        assert buffer_bytes(m.kernel) <= 10.5 * 2**20
        assert buffer_bytes(m) <= 1.2 * 2**20
