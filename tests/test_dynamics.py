"""Right-hand-side evaluation: reductions, oracles, invariants."""

import tracemalloc

import numpy as np
import pytest

from kturb import (Forcing, ModelParams, PositivityViolation, State,
                   StepControl, TorusGrid, advance)
from kturb import ops
from kturb.dynamics import TendencyKernel


def make_state(grid, rng, v_amp=0.1, band=3):
    """Random admissible state: band-limited perturbations on constants."""
    def pert(amp):
        fhat = grid.rfft(rng.standard_normal(grid.resolution))
        m1, m2, m3 = grid.modes
        fhat *= (np.abs(m1) <= band) & (np.abs(m2) <= band) & (np.abs(m3) <= band)
        fhat[0, 0, 0] = 0.0
        f = grid.irfft(fhat)
        peak = np.max(np.abs(f))
        return f * (amp / peak) if peak > 0 else f

    vhat = grid.rfft(np.stack([pert(1.0) for _ in range(3)]))
    ops.leray_hat(grid, vhat)
    v = grid.irfft(vhat)
    peak = np.max(np.abs(v))
    if peak > 0:
        v *= v_amp / peak
    return State(grid, np.concatenate(
        [v, (1.0 + pert(0.2))[None], (2.0 + pert(0.3))[None]]))


def tendency(state, params):
    """The physical (5, N1, N2, N3) tendency of state: one TendencyKernel
    call between kept-block transforms."""
    g = state.grid
    y_hat = g.rfft(state.y)
    out = TendencyKernel(g, params)(y_hat, state.t)
    return g.irfft(out)


def spectral_forcing(grid, rng):
    """A random forcing spectrum of the form every tendency has: on the
    kept block, with divergence-free, zero-mean velocity rows."""
    f = grid.rfft(rng.standard_normal((5,) + grid.resolution))
    ops.leray_hat(grid, f[:3])
    f[:3, 0, 0, 0] = 0.0
    return f


def naive_strain(state):
    """The full 3 x 3 D(v) of state, built from per-component gradients."""
    g = state.grid
    grad_v = np.stack([g.irfft(ops.grad_hat(g, g.rfft(state.v[i])))
                       for i in range(3)])  # grad_v[i, j] = d_j v_i
    return 0.5 * (grad_v + grad_v.swapaxes(0, 1))


def naive_tendency(state, params):
    """Independent straight-line evaluation: every term transformed and
    dealiased separately, with the full 3 x 3 D(v) and stress tensor."""
    g = state.grid
    p = params
    v, om, b = state.v, state.omega, state.b
    mu = b / om
    D = naive_strain(state)

    def deal(phys):
        # the transform pair keeps only the modes of the 2/3 rule
        return g.irfft(g.rfft(phys))

    def div_of(vec_phys):
        return g.irfft(ops.div_hat(g, g.rfft(vec_phys)))

    grad_om = g.irfft(ops.grad_hat(g, g.rfft(om)))
    grad_b = g.irfft(ops.grad_hat(g, g.rfft(b)))
    dom = (div_of(deal(-om * v + p.kappa1 * mu * grad_om))
           + deal(-p.kappa2 * om * om))
    dd = np.einsum("ij...,ij...->...", D, D)
    db = (div_of(deal(-b * v + p.kappa3 * mu * grad_b))
          + deal(-b * om + p.kappa4 * mu * dd))

    T = np.empty((3, 3) + g.resolution)
    for i in range(3):
        for j in range(3):
            T[i, j] = p.c_v * mu * D[i, j] - v[i] * v[j]
    dv_hat = np.stack([
        ops.div_hat(g, g.rfft(deal(T[i]))) for i in range(3)])
    ops.leray_hat(g, dv_hat)
    return g.irfft(dv_hat), dom, db


class TestModelParams:
    def test_defaults_and_cv(self):
        p = ModelParams(kappa2=1.5)
        assert p.nu0 == p.kappa1 == p.kappa3 == p.kappa4 == 1.0
        assert p.c_v == 1.0
        assert ModelParams(momentum_diffusion_coeff=2.0).c_v == 2.0
        assert ModelParams(kappa1=3.0).c_diff == 3.0

    def test_positivity_validation(self):
        for bad in ({"nu0": 0.0}, {"kappa2": -1.0}, {"kappa4": 0.0}):
            with pytest.raises(ValueError):
                ModelParams(**bad)


class TestStateValidation:
    def test_accepts_admissible(self):
        g = TorusGrid(resolution=(12, 12, 12))
        make_state(g, np.random.default_rng(0)).validate()

    def test_rejects_nonpositive_scalars(self):
        g = TorusGrid(resolution=(8, 8, 8))
        s = State.uniform(g, -1.0, 1.0)
        with pytest.raises(ValueError):
            s.validate()

    def test_rejects_divergent_velocity(self):
        g = TorusGrid(resolution=(8, 8, 8))
        x1, _, _ = g.coordinates()
        s = State.uniform(g, 1.0, 1.0)
        s.y[0] = np.sin(x1)
        with pytest.raises(ValueError):
            s.validate()

    def test_checks_the_block_spectrum(self):
        # a divergent velocity on the block is refused under a solenoidal
        # field 1e12 times larger that lies outside it (|m2| = 7 > 16/3),
        # which the block, and so the check's scale, leaves out
        g = TorusGrid(resolution=(16, 16, 16))
        x1, x2, _ = g.coordinates()
        s = State.uniform(g, 1.0, 1.0)
        s.y[0] = np.sin(7 * x2) + 1e-12 * np.sin(x1)
        with pytest.raises(ValueError, match="not divergence-free"):
            s.validate()
        assert s.y_hat is None
        # the solenoidal part alone is admissible, and validate sets the
        # spectrum it checked
        s.y[0] = 1e-3 * np.sin(x2) + 0 * x1
        assert s.validate() is s
        assert s.y_hat.tobytes() == g.rfft(s.y).tobytes()

    @pytest.mark.parametrize("amp", [1.0, 1e-3])
    def test_velocity_off_the_block_is_admissible(self, amp):
        # |m1| = 7 > 16/3, so the block holds only the transform's
        # roundoff of v, a divergence of 1.25e-11 amp; scaled by the block
        # alone the tolerance was that roundoff too, and floored by the
        # physical velocity it is 4.6e-11 amp
        g = TorusGrid(resolution=(16, 16, 16))
        x1, _, _ = g.coordinates()
        s = State.uniform(g, 1.0, 1.0)
        s.y[0] = amp * np.sin(7 * x1)
        assert s.validate() is s


class TestUniformReductions:
    def test_reaction_only(self):
        # constants: domega = -k2 om^2, db = -b om, dv = 0 exactly
        g = TorusGrid(resolution=(8, 8, 8))
        p = ModelParams(kappa2=1.7)
        s = State.uniform(g, 1.3, 2.4)
        ten = tendency(s, p)
        assert np.max(np.abs(ten[:3])) == 0.0
        assert np.max(np.abs(ten[3] + 1.7 * 1.3**2)) < 1e-13
        assert np.max(np.abs(ten[4] + 2.4 * 1.3)) < 1e-13

    def test_fast_path_matches_generic_bitwise(self, monkeypatch):
        g = TorusGrid(resolution=(16, 16, 16))
        p = ModelParams()
        s = State.uniform(g, 0.9, 1.8)
        k = TendencyKernel(g, p)
        y = g.rfft(s.y)
        fast = k(y)
        monkeypatch.setattr(ops, "is_uniform_state_hat", lambda y_hat: False)
        generic = k(y)
        assert np.array_equal(fast, generic)


class TestEddyViscosity:
    def test_raises_on_nonpositive_omega(self):
        # the kernel checks omega after projection onto the 2/3 mask,
        # which keeps this band-limited dip below zero
        g = TorusGrid(resolution=(8, 8, 8))
        s = State.uniform(g, 1.0, 1.0)
        x1, _, _ = g.coordinates()
        s.y[3] = 1.0 - 1.5 * np.cos(x1)
        with pytest.raises(PositivityViolation):
            tendency(s, ModelParams())

    @pytest.mark.parametrize("uniform", [False, True])
    def test_failure_carries_the_time_passed(self, uniform):
        # the kernel raises the march's own error type, at the stage
        # time it was called with, on both of its paths
        g = TorusGrid(resolution=(8, 8, 8))
        s = State.uniform(g, -0.5, 1.0)
        if not uniform:
            s.y[3] += 0.1 * np.cos(g.coordinates()[0])
        y_hat = g.rfft(s.y)
        with pytest.raises(PositivityViolation,
                           match=r"at t = 0.375; cannot form b/omega") as exc:
            TendencyKernel(g, ModelParams())(y_hat, 0.375)
        assert exc.value.t == 0.375


class TestAgainstNaiveOracle:
    def test_random_states(self):
        p = ModelParams(kappa1=0.7, kappa2=1.3, kappa3=1.1, kappa4=0.9,
                        nu0=0.8)
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            g = TorusGrid(lengths=(2 * np.pi, 3.0, 5.0),
                          resolution=(16, 12, 12))
            s = make_state(g, rng)
            ten = tendency(s, p)
            dv, dom, db = naive_tendency(s, p)
            scale = max(np.max(np.abs(dom)), np.max(np.abs(db)),
                        np.max(np.abs(dv)), 1.0)
            assert np.max(np.abs(ten[:3] - dv)) < 1e-12 * scale
            assert np.max(np.abs(ten[3] - dom)) < 1e-12 * scale
            assert np.max(np.abs(ten[4] - db)) < 1e-12 * scale

    def test_with_forcing(self):
        # one forced step of advance is RK4 of kernel + F, with F taken
        # at the stage times
        rng = np.random.default_rng(77)
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, rng)
        # t and t + dt are exact, so the landing step keeps dt
        s.t, dt = 0.25, 2.0**-7
        p = ModelParams()
        f0 = spectral_forcing(g, rng)
        forcing = Forcing(lambda t: (1.0 + t) * f0)
        got = advance(s, s.t + dt, p, StepControl(dt_max=dt, dt_fixed=dt),
                      forcing=forcing)

        kern = TendencyKernel(g, p)

        def rhs(y, t):
            return kern(y, t) + forcing(t)

        y = g.rfft(s.y)
        t = s.t
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        want = y + (dt / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        ops.leray_hat(g, want[:3])
        assert got.y_hat.tobytes() == want.tobytes()
        unforced = advance(s, s.t + dt, p,
                           StepControl(dt_max=dt, dt_fixed=dt))
        # the forcing moves the step by about dt (1 + t) f0
        assert (np.max(np.abs(got.y_hat - unforced.y_hat))
                > 0.5 * dt * np.max(np.abs(f0)))


class TestVelocityEquation:
    def test_tendency_div_free_zero_mean(self):
        for seed in range(5):
            rng = np.random.default_rng(600 + seed)
            g = TorusGrid(resolution=(12, 12, 12))
            s = make_state(g, rng)
            dv = tendency(s, ModelParams())[:3]
            dvhat = g.rfft(dv)
            scale = np.max(np.abs(dvhat)) + 1e-300
            assert np.max(np.abs(ops.div_hat(g, dvhat))) < 1e-12 * scale
            assert np.max(np.abs(dvhat[:, 0, 0, 0])) < 1e-12 * scale

    def test_constant_mu_reduces_to_half_laplacian(self):
        # with uniform scalars, div(mu D(v)) = (mu/2) lap v for div-free v,
        # so momentum_diffusion_coeff = 2 recovers the plain mu lap v form
        g = TorusGrid(resolution=(16, 16, 16))
        x1, x2, x3 = g.coordinates()
        om_c, b_c = 1.5, 3.0
        s = State.uniform(g, om_c, b_c)
        s.y[0] = 1e-8 * np.sin(2 * x2)
        s.y[1] = 1e-8 * np.sin(3 * x3)
        s.y[2] = 1e-8 * np.sin(x1)
        mu = b_c / om_c
        # tiny amplitude makes the quadratic advection negligible
        for mdc, factor in ((1.0, 0.5), (2.0, 1.0)):
            dv = tendency(
                s, ModelParams(momentum_diffusion_coeff=mdc))[:3]
            lap = g.irfft(-g.k_sq * g.rfft(s.v))
            expect = factor * mu * lap
            err = np.max(np.abs(dv - expect))
            assert err < 1e-6 * np.max(np.abs(expect))

    def test_pure_advection_oracle(self):
        # nonlinear term alone (mu scaled out by tiny b) matches
        # -P div(v x v) computed independently
        g = TorusGrid(resolution=(16, 16, 16))
        rng = np.random.default_rng(8)
        s = make_state(g, rng, v_amp=1.0)
        s.y[3] = 1.0
        s.y[4] = 1e-14
        dv = tendency(s, ModelParams())[:3]
        v = s.v
        adv_hat = np.stack([
            ops.div_hat(g, g.rfft(
                np.stack([-v[i] * v[j] for j in range(3)]) * 1.0))
            for i in range(3)])
        ops.leray_hat(g, adv_hat)
        expect = g.irfft(adv_hat)
        assert np.max(np.abs(dv - expect)) < 1e-10


class TestKernelBuffers:
    """The kernel reuses its transform stacks across calls; its results
    must still behave like fresh arrays."""

    def test_out_matches_fresh_result_bitwise(self):
        rng = np.random.default_rng(40)
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, rng)
        y_hat = g.rfft(s.y)
        fresh = TendencyKernel(g, ModelParams())(y_hat, 0.3)
        kern = TendencyKernel(g, ModelParams())
        out = np.full_like(fresh, np.nan)
        assert kern(y_hat, 0.3, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        uniform = g.rfft(State.uniform(g, 1.5, 2.0).y)
        fresh = TendencyKernel(g, ModelParams())(uniform)
        out = np.full_like(fresh, np.nan)
        TendencyKernel(g, ModelParams())(uniform, out=out)
        assert out.tobytes() == fresh.tobytes()

    def test_successive_results_are_independent(self):
        rng = np.random.default_rng(41)
        g = TorusGrid(resolution=(12, 12, 12))
        y1 = g.rfft(make_state(g, rng).y)
        y2 = g.rfft(make_state(g, rng, v_amp=0.3).y)
        kern = TendencyKernel(g, ModelParams())
        r1 = kern(y1)
        kept = r1.copy()
        r2 = kern(y2)
        assert not np.shares_memory(r1, r2)
        assert r1.tobytes() == kept.tobytes()
        assert r2.tobytes() == TendencyKernel(g, ModelParams())(y2).tobytes()
        assert kern(y1).tobytes() == kept.tobytes()

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(42)
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, rng)
        y_hat = g.rfft(s.y)
        kept = y_hat.copy()
        y_hat.flags.writeable = False
        # read-only arrays make any write raise; compare the values too
        TendencyKernel(g, ModelParams())(y_hat, 0.0)
        assert y_hat.tobytes() == kept.tobytes()
        # nor does advance write the forcing's value, which may be kept
        # by the forcing and returned again
        f = spectral_forcing(g, rng)
        kept = f.copy()
        f.flags.writeable = False
        advance(s, 0.02, ModelParams(),
                StepControl(dt_max=0.01, dt_fixed=0.01),
                forcing=Forcing(lambda t: f))
        assert f.tobytes() == kept.tobytes()

    def test_allocation_per_call_is_bounded(self):
        # the per-call temporaries used to peak at 11x the output
        g = TorusGrid(resolution=(16, 16, 16))
        y_hat = g.rfft(make_state(g, np.random.default_rng(43)).y)
        kern = TendencyKernel(g, ModelParams())
        kern(y_hat)
        tracemalloc.start()
        try:
            out = kern(y_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * out.nbytes


def integral(grid, values):
    """Uniform-quadrature integral of a physical array over the box."""
    return float(np.sum(values)) * grid.cell_volume


def energy_flux(state, params):
    """Integral rates dE_kin = -c_v (mu D(v), D(v)), dB_mass = -(b om, 1) +
    k4 (mu |D(v)|^2, 1) and coupling = -(b om, 1); with c_v = kappa4 the
    production cancels the viscous loss, so dE_kin + dB_mass = coupling."""
    g = state.grid
    mu = state.b / state.omega
    D = naive_strain(state)
    visc = integral(g, mu * np.einsum("ij...,ij...->...", D, D))
    bw = integral(g, state.b * state.omega)
    return (-params.c_v * visc, -bw + params.kappa4 * visc, -bw)


class TestEnergyFlux:
    def test_identity_when_production_balances(self):
        rng = np.random.default_rng(13)
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, rng)
        p = ModelParams()  # c_v = kappa4 = 1
        de, dbm, coupling = energy_flux(s, p)
        assert de + dbm == pytest.approx(coupling, rel=1e-12)
        assert de <= 0.0
        assert coupling < 0.0

    def test_semidiscrete_rates_match_tendencies(self):
        # quadrature of the b tendency must equal the reported dB_mass up
        # to dealiasing of the quadratic products (band-limited data keeps
        # that exact to roundoff)
        rng = np.random.default_rng(14)
        g = TorusGrid(resolution=(24, 24, 24))
        s = make_state(g, rng, band=3)
        p = ModelParams(kappa2=2.0)
        ten = tendency(s, p)
        db_int = integral(g, ten[4])
        # subtract the reaction part -k2 om^2 has no place here; dB_mass
        # tracks the b equation without the omega sink, so compare the
        # full integral against (-b om + k4 mu |D|^2, 1): transport terms
        # integrate to zero
        _, dbm, _ = energy_flux(s, p)
        assert db_int == pytest.approx(dbm, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("coeff", [1.0, 2.0])
    def test_kernel_rate_is_the_budget(self, coeff):
        # the rate every kernel call stores, on the transformed path and
        # on the uniform one, is dE_kin + dB_mass of the state it reads
        g = TorusGrid(resolution=(12, 12, 12))
        p = ModelParams(momentum_diffusion_coeff=coeff)
        kern = TendencyKernel(g, p)
        for s in (make_state(g, np.random.default_rng(16)),
                  State.uniform(g, 1.5, 2.5)):
            y_hat = g.rfft(s.y)
            kern(y_hat)
            de, dbm, _ = energy_flux(State(g, g.irfft(y_hat)), p)
            assert kern.energy_rate == pytest.approx(de + dbm, rel=1e-12)


class TestPackUnpack:
    def test_fields_are_views_of_y(self):
        g = TorusGrid(resolution=(8, 8, 8))
        s = State.uniform(g, 1.5, 2.5, t=0.25)
        assert s.y.shape == (5, 8, 8, 8) and s.t == 0.25
        assert np.shares_memory(s.v, s.y[:3])
        assert np.shares_memory(s.omega, s.y[3])
        assert np.shares_memory(s.b, s.y[4])
        s.y[3, 1, 2, 3] = 7.0
        s.b[0, 0, 0] = 9.0
        assert s.omega[1, 2, 3] == 7.0 and s.y[4, 0, 0, 0] == 9.0
        assert np.all(s.v == 0.0)
        with pytest.raises(ValueError):
            State(g, np.zeros((4, 8, 8, 8)))

    def test_state_round_trip(self):
        rng = np.random.default_rng(15)
        g = TorusGrid(resolution=(12, 12, 12))
        s = make_state(g, rng)
        back = State(g, g.irfft(g.rfft(s.y)), s.t)
        assert np.max(np.abs(back.v - s.v)) < 1e-13
        assert np.max(np.abs(back.omega - s.omega)) < 1e-13
        assert np.max(np.abs(back.b - s.b)) < 1e-13
