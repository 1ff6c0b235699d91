"""Harness layer: config files, initial data, snapshots, monitors,
orchestrated runs, and the command-line interface."""

import dataclasses
import math
import os
import time
import tracemalloc
import warnings
from typing import Optional

import numpy as np
import pytest
import scipy.fft

from kturb import (BlowUp, ConfigError, CriterionConfig, DataBounds, Forcing,
                   ModelParams, PositivityViolation, State, StepControl,
                   TorusGrid, VerificationFailure, advance, ops)
from kturb import cli
from kturb.cli import main
from kturb.dynamics import TendencyKernel
from kturb.harness import (InitialDataSpec, Monitor, RunConfig,
                           extract_bounds, generate_initial, load_config,
                           parse_config, read_snapshot, run_check, run_mms,
                           run_simulate, run_verify, serialize_config,
                           write_snapshot)
from kturb.harness.monitor import FIELD_NAMES, records_to_csv
from kturb.harness import runs
from kturb.harness.runs import _Manufactured, report_to_kv

PI2 = 2.0 * math.pi
RK4_ALARM = "exceeds the RK4 stability limit"


def small_run_config(**over):
    base = dict(
        resolution=(16, 16, 16),
        control=StepControl(dt_max=0.1, dt_fixed=0.005),
        initial=InitialDataSpec(seed=3, band=3),
        t_end=0.05,
    )
    base.update(over)
    return RunConfig(**base)


# serialize_config's canonical text for RunConfig() and for
# TestConfigRoundTrip.sample(); a change to either is a format change
DEFAULT_TEXT = """\
[grid]
n1 = 32
n2 = 32
n3 = 32
l1 = 6.283185307179586
l2 = 6.283185307179586
l3 = 6.283185307179586

[model]
nu0 = 1.0
kappa1 = 1.0
kappa2 = 1.0
kappa3 = 1.0
kappa4 = 1.0
momentum_diffusion_coeff = 1.0

[step]
dt_max = 0.1

[initial]
kind = random_band
seed = 0
b_mean = 2.0
b_amp = 0.1
omega_mean = 1.0
omega_amp = 0.1
v_amp = 0.001
band = 5

[criterion]
c_omega_kappa = 1.0
horizon = inf

[run]
t_end = 1.0
monitor_every = 1
snapshot_every = 0

[output]

"""

SAMPLE_TEXT = """\
[grid]
n1 = 16
n2 = 12
n3 = 8
l1 = 6.283185307179586
l2 = 3.0
l3 = 5.0

[model]
nu0 = 0.7
kappa1 = 1.0
kappa2 = 1.5
kappa3 = 1.0
kappa4 = 1.0
momentum_diffusion_coeff = 1.0

[step]
dt_max = 0.2
dt_fixed = 0.004

[initial]
kind = random_band
seed = 7
b_mean = 2.5
b_amp = 0.1
omega_mean = 1.0
omega_amp = 0.1
v_amp = 0.001
band = 2

[criterion]
c_omega_kappa = 1.0
horizon = inf

[run]
t_end = 0.75
monitor_every = 4
snapshot_every = 10
c_p_override = 1.25

[output]
dir = out/run1

"""


class TestConfigRoundTrip:
    def sample(self):
        return RunConfig(
            lengths=(PI2, 3.0, 5.0),
            resolution=(16, 12, 8),
            params=ModelParams(kappa2=1.5, nu0=0.7),
            control=StepControl(dt_max=0.2, dt_fixed=0.004),
            initial=InitialDataSpec(seed=7, b_mean=2.5, band=2),
            t_end=0.75,
            monitor_every=4,
            snapshot_every=10,
            c_p_override=1.25,
            out_dir="out/run1",
        )

    def test_parse_of_serialize_is_identity(self):
        cfg = self.sample()
        assert parse_config(serialize_config(cfg)) == cfg
        assert parse_config(serialize_config(RunConfig())) == RunConfig()

    def test_serialize_is_canonical(self):
        text = serialize_config(self.sample())
        assert serialize_config(parse_config(text)) == text

    def test_defaults_from_empty_text(self):
        assert parse_config("") == RunConfig()

    def test_canonical_text_is_pinned(self):
        assert serialize_config(RunConfig()) == DEFAULT_TEXT
        assert serialize_config(self.sample()) == SAMPLE_TEXT
        assert parse_config(SAMPLE_TEXT) == self.sample()
        # a numpy float used to be written as np.float64(0.75)
        assert serialize_config(dataclasses.replace(
            self.sample(), t_end=np.float64(0.75))) == SAMPLE_TEXT

    def test_every_settings_field_round_trips(self):
        # every field of each settings dataclass, a later one included,
        # set away from its default
        strings = {"kind": "uniform", "path": "init.snap"}

        def changed(obj):
            new = {}
            for f in dataclasses.fields(obj):
                val = getattr(obj, f.name)
                if f.type is int:
                    new[f.name] = val + 1
                elif f.type in (float, Optional[float]):
                    finite = val is not None and math.isfinite(val)
                    new[f.name] = 1.5 * val if finite else 2.5
                else:
                    new[f.name] = strings[f.name]
                assert new[f.name] != val, f.name
            return dataclasses.replace(obj, **new)

        base = RunConfig()
        cfg = dataclasses.replace(
            base, **{attr: changed(getattr(base, attr))
                     for attr in ("params", "control", "initial",
                                  "criterion")})
        assert parse_config(serialize_config(cfg)) == cfg

    def test_none_unsets_only_optional_numbers(self):
        cfg = parse_config("[step]\ndt_fixed = none\n[run]\n"
                           "c_p_override = none\n[initial]\npath = none\n"
                           "[output]\ndir = none\n")
        assert cfg.control.dt_fixed is None and cfg.c_p_override is None
        assert cfg.initial.path == "none" and cfg.out_dir == "none"

    def test_load_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(serialize_config(self.sample()))
        assert load_config(p) == self.sample()


class TestConfigFailClosed:
    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[physics]\nkappa2 = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\nn4 = 8\n")
        # the step limits, the positivity floor and the criterion's
        # sampling grid are constants; there is no knob
        for sec, key in (("step", "cfl_diff"), ("step", "cfl_adv"),
                         ("step", "eps_pos"), ("criterion", "delta"),
                         ("criterion", "sup_horizon")):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(f"[{sec}]\n{key} = 0.25\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("[model]\nkappa2 = fast\n")
        with pytest.raises(ConfigError):
            parse_config("[model]\nkappa2 = nan\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[model]\nkappa2 = -1\n")
        with pytest.raises(ConfigError):
            parse_config("[run]\nmonitor_every = 0\n")
        with pytest.raises(ConfigError):
            parse_config("not an ini file")

    def test_settings_refuse_non_finite_values(self):
        # the dataclasses check, so the parser and the CLI flags share
        # one check; horizon alone may be +inf
        settings = [ModelParams(), StepControl(dt_max=0.1, dt_fixed=0.01),
                    InitialDataSpec(), CriterionConfig(horizon=1.0),
                    DataBounds(b_min=1.0, omega_min=1.0, omega_max=1.0,
                               b0_l1=1.0, v0_l2sq=1.0, lap_sum=1.0,
                               kappa2=1.0, c_p=1.0),
                    RunConfig(c_p_override=1.0)]
        for obj in settings:
            for f in dataclasses.fields(obj):
                if not isinstance(getattr(obj, f.name), float):
                    continue
                for bad in (math.nan, math.inf, -math.inf):
                    if f.name == "horizon" and bad == math.inf:
                        assert dataclasses.replace(
                            obj, horizon=bad).horizon == math.inf
                        continue
                    with pytest.raises((ValueError, ConfigError),
                                       match=f"{f.name} must be"):
                        dataclasses.replace(obj, **{f.name: bad})
        with pytest.raises(ConfigError, match="lengths"):
            RunConfig(lengths=(1.0, math.inf, 1.0))
        with pytest.raises(ValueError, match="kappa2 must be finite"):
            ModelParams(kappa2=np.float32("nan"))
        for text in ("[grid]\nl2 = nan\n", "[step]\ndt_fixed = inf\n",
                     "[run]\nc_p_override = inf\n",
                     "[criterion]\nhorizon = nan\n"):
            with pytest.raises(ConfigError):
                parse_config(text)
        assert parse_config("[criterion]\nhorizon = inf\n") == RunConfig()

    def test_grid_checked_where_it_enters(self):
        # RunConfig checks the box as TorusGrid does, without building one
        for text in ("[grid]\nn1 = 7\n", "[grid]\nn2 = 2\n",
                     "[grid]\nl1 = -1\n", "[grid]\nl3 = 0\n"):
            with pytest.raises(ConfigError):
                parse_config(text)
        with pytest.raises(ConfigError, match="even"):
            RunConfig(resolution=(8, 7, 8))
        with pytest.raises(ConfigError, match="3 entries"):
            RunConfig(lengths=(1.0, 1.0))

    def test_non_finite_t_end_rejected(self):
        # an infinite t_end would march forever, a NaN one not at all
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError):
                RunConfig(t_end=bad)
        with pytest.raises(ConfigError):
            parse_config("[run]\nt_end = inf\n")


def half_spectrum_recipe(spec, grid):
    """generate_initial's random_band data as it was built on the full
    half spectrum with scipy.fft: band-limited noise through
    rfftn/irfftn, and the velocity Leray-projected after a second
    rfftn, with the derivative wavenumber of Nyquist modes set to 0."""
    axes = (-3, -2, -1)
    N = grid.resolution
    modes = [np.rint(scipy.fft.fftfreq(n) * n).astype(np.int64)
             for n in N[:2]] + [np.arange(N[2] // 2 + 1)]
    modes = [m.reshape(shape) for m, shape in zip(
        modes, ((-1, 1, 1), (1, -1, 1), (1, 1, -1)))]
    band = ((np.abs(modes[0]) <= spec.band) & (np.abs(modes[1]) <= spec.band)
            & (modes[2] <= spec.band))
    k = []
    for m, n, L in zip(modes, N, grid.lengths):
        kd = m.astype(float)
        kd[np.abs(m) * 2 == n] = 0.0
        k.append((2.0 * np.pi / L) * kd)
    k_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    k_sq_inv = np.where(k_sq > 0.0, 1.0 / np.where(k_sq > 0, k_sq, 1.0), 0.0)
    rng = np.random.default_rng(spec.seed)

    def band_limited(shape=()):
        fhat = scipy.fft.rfftn(rng.standard_normal(shape + N), axes=axes)
        fhat *= band
        fhat[..., 0, 0, 0] = 0.0
        return scipy.fft.irfftn(fhat, s=N, axes=axes)

    def rescaled(pert, amp):
        return pert * (amp / float(np.max(np.abs(pert))))

    b0 = spec.b_mean + rescaled(band_limited(), spec.b_amp)
    om0 = spec.omega_mean + rescaled(band_limited(), spec.omega_amp)
    vhat = scipy.fft.rfftn(band_limited((3,)), axes=axes)
    kdotu = (k[0] * vhat[0] + k[1] * vhat[1] + k[2] * vhat[2]) * k_sq_inv
    for i in range(3):
        vhat[i] -= k[i] * kdotu
        vhat[i][0, 0, 0] = 0.0
    v0 = rescaled(scipy.fft.irfftn(vhat, s=N, axes=axes), spec.v_amp)
    return np.concatenate([v0, om0[None], b0[None]])


class TestInitialData:
    @pytest.mark.parametrize("n", [16, 32])
    def test_against_the_half_spectrum_recipe(self, n):
        # drawn on the kept block, the scalars are bitwise the old
        # recipe's; the velocity, projected on the block with no round
        # trip, differs by roundoff
        g = TorusGrid(resolution=(n, n, n))
        for seed, band in ((0, 5), (1, 5), (4, 5), (7, 3), (9, n // 3)):
            spec = InitialDataSpec(seed=seed, band=band)
            got = generate_initial(spec, g)
            want = half_spectrum_recipe(spec, g)
            assert np.array_equal(got.y[3:], want[3:])
            assert np.max(np.abs(got.y[:3] - want[:3])) <= 2e-15 * spec.v_amp
            assert got.y_hat.tobytes() == g.rfft(got.y).tobytes()

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            InitialDataSpec(kind="gaussian")
        with pytest.raises(ConfigError):
            InitialDataSpec(b_mean=1.0, b_amp=1.0)
        with pytest.raises(ConfigError):
            InitialDataSpec(omega_mean=0.1, omega_amp=0.2)
        with pytest.raises(ConfigError):
            InitialDataSpec(v_amp=-1.0)
        with pytest.raises(ConfigError):
            InitialDataSpec(kind="from_file")

    def test_deterministic_in_seed(self):
        g = TorusGrid(resolution=(16, 16, 16))
        spec = InitialDataSpec(seed=11, band=3)
        a = generate_initial(spec, g)
        b = generate_initial(spec, g)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.b, b.b)
        c = generate_initial(dataclasses.replace(spec, seed=12), g)
        assert not np.array_equal(a.b, c.b)

    def test_amplitudes_and_admissibility(self):
        g = TorusGrid(resolution=(16, 16, 16))
        spec = InitialDataSpec(seed=2, b_mean=2.0, b_amp=0.5,
                               omega_mean=1.0, omega_amp=0.25,
                               v_amp=0.01, band=4)
        s = generate_initial(spec, g)
        s.validate()
        assert np.min(s.b) >= 1.5 - 1e-12
        assert np.max(np.abs(s.b - 2.0)) == pytest.approx(0.5)
        assert np.max(np.abs(s.omega - 1.0)) == pytest.approx(0.25)
        assert np.max(np.abs(s.v)) == pytest.approx(0.01)
        div = g.irfft(ops.div_hat(g, g.rfft(s.v)))
        assert np.max(np.abs(div)) < 1e-13

    def test_band_beyond_dealiased_range_rejected(self):
        g = TorusGrid(resolution=(12, 12, 12))
        with pytest.raises(ConfigError):
            generate_initial(InitialDataSpec(band=5), g)

    def test_uniform_kind_and_extracted_bounds(self):
        g = TorusGrid(resolution=(8, 8, 8))
        s = generate_initial(InitialDataSpec(kind="uniform", b_mean=2.0,
                                             omega_mean=1.0), g)
        bd = extract_bounds(s, ModelParams(kappa2=1.5))
        assert bd.b_min == 2.0
        assert bd.omega_min == bd.omega_max == 1.0
        assert bd.b0_l1 == pytest.approx(2.0 * PI2**3, rel=1e-13)
        assert bd.v0_l2sq == 0.0 and bd.lap_sum == 0.0
        assert bd.kappa2 == 1.5
        assert bd.c_p == pytest.approx(math.sqrt(2.0))
        assert extract_bounds(s, ModelParams(), 2.5).c_p == 2.5

    def test_c_p_tracks_longest_edge(self):
        g = TorusGrid(lengths=(PI2, 6 * np.pi, PI2), resolution=(8, 8, 8))
        s = generate_initial(InitialDataSpec(kind="uniform"), g)
        assert extract_bounds(s, ModelParams()).c_p == pytest.approx(
            3.0 * math.sqrt(2.0))
        # c_v = 2 makes the energy-identity rate the sharp Poincare rate
        assert extract_bounds(s, ModelParams(momentum_diffusion_coeff=2.0)
                              ).c_p == pytest.approx(3.0)


class TestSnapshots:
    def test_round_trip_bitwise(self, tmp_path):
        g = TorusGrid(lengths=(PI2, 3.0, 5.0), resolution=(8, 12, 16))
        spec = InitialDataSpec(seed=5, band=2)
        s = generate_initial(spec, g)
        s = dataclasses.replace(s, t=1.25)
        p = ModelParams(kappa2=1.3, nu0=0.9)
        path = tmp_path / "a.snap"
        write_snapshot(path, s, p)
        back, pback = read_snapshot(path)
        assert pback == p
        assert back.grid == g and back.t == 1.25
        assert np.array_equal(back.v, s.v)
        assert np.array_equal(back.omega, s.omega)
        assert np.array_equal(back.b, s.b)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(ConfigError):
            read_snapshot(path)
        g = TorusGrid(resolution=(8, 8, 8))
        s = generate_initial(InitialDataSpec(kind="uniform"), g)
        good = tmp_path / "good.snap"
        write_snapshot(good, s, ModelParams())
        (tmp_path / "trunc.snap").write_bytes(good.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            read_snapshot(tmp_path / "trunc.snap")

    def test_header_checked_before_the_grid(self, tmp_path, monkeypatch):
        # a header that claims 256^3 fails on the file length before a
        # grid of that size, whose tables grow as N^3, is built
        from kturb.harness import snapshot
        built = []
        monkeypatch.setattr(snapshot, "TorusGrid",
                            lambda **kw: built.append(kw))
        g = TorusGrid(resolution=(8, 8, 8))
        good = tmp_path / "good.snap"
        write_snapshot(good, State.uniform(g, 1.0, 1.0), ModelParams())
        header = bytearray(good.read_bytes()[:100])
        header[8:20] = np.array([256] * 3, dtype="<u4").tobytes()
        path = tmp_path / "big.snap"
        path.write_bytes(bytes(header))
        with pytest.raises(ConfigError, match="truncated field data"):
            read_snapshot(path)
        header[8:20] = np.array([8, 7, 8], dtype="<u4").tobytes()
        path.write_bytes(bytes(header))
        with pytest.raises(ConfigError, match="big.snap: resolution"):
            read_snapshot(path)
        assert built == []

    def test_one_copy_of_the_state(self, tmp_path):
        # the fields go between the file and the state's array with no
        # bytes object in between
        g = TorusGrid(resolution=(32, 32, 32))
        s = generate_initial(InitialDataSpec(seed=1, band=3), g)
        path = tmp_path / "a.snap"
        peaks = []
        for run in (lambda: write_snapshot(path, s, ModelParams()),
                    lambda: read_snapshot(path)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / s.y.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.5 and peaks[1] < 2.0, peaks

    def test_from_file_initial(self, tmp_path):
        g = TorusGrid(resolution=(8, 8, 8))
        s = generate_initial(InitialDataSpec(seed=1, band=2), g)
        path = str(tmp_path / "init.snap")
        write_snapshot(path, s, ModelParams())
        spec = InitialDataSpec(kind="from_file", path=path)
        back = generate_initial(spec, g)
        assert np.array_equal(back.b, s.b)
        with pytest.raises(ConfigError):
            generate_initial(spec, TorusGrid(resolution=(16, 16, 16)))

    def test_from_file_rejects_inadmissible_data(self, tmp_path):
        g = TorusGrid(resolution=(8, 8, 8))
        x1, _, _ = g.coordinates()
        bad_omega = State.uniform(g, 1.0, 1.0)
        bad_omega.y[3, 2, 3, 4] = 0.0
        divergent = State.uniform(g, 1.0, 1.0)
        divergent.y[0] = 1e-3 * np.sin(x1)
        cases = [("omega", bad_omega, "omega must be strictly positive"),
                 ("div", divergent, "not divergence-free")]
        # one NaN in v, omega or b; the run used to start and exit 4
        for row, name in ((1, "nan_v"), (3, "nan_omega"), (4, "nan_b")):
            state = State.uniform(g, 1.0, 1.0)
            state.y[row, 1, 2, 3] = np.nan
            cases.append((name, state, "must be finite"))
        for name, state, why in cases:
            path = str(tmp_path / f"{name}.snap")
            write_snapshot(path, state, ModelParams())
            spec = InitialDataSpec(kind="from_file", path=path)
            with pytest.raises(ConfigError, match=why):
                generate_initial(spec, g)
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(serialize_config(RunConfig(
                resolution=(8, 8, 8), initial=spec, t_end=0.01)))
            assert main(["simulate", "--config", str(cfg)]) == 3


    def test_from_file_projected_onto_the_block(self, tmp_path):
        # a divergent velocity and an omega ripple at |m| = 7 > 16 / 3
        # lie outside the kept block: they are neither checked nor
        # marched, and the array read is kept as it is
        g = TorusGrid(resolution=(16, 16, 16))
        clean = generate_initial(InitialDataSpec(seed=3, band=3, v_amp=0.1),
                                 g)
        x1, x2, _ = g.coordinates()
        y = clean.y.copy()
        y[0] += 1e-2 * np.sin(7 * x1)
        y[3] += 1e-2 * np.cos(7 * x2)
        path = str(tmp_path / "off_block.snap")
        write_snapshot(path, State(g, y), ModelParams())
        noisy = generate_initial(
            InitialDataSpec(kind="from_file", path=path), g)
        assert noisy.y.tobytes() == y.tobytes()
        scale = np.max(np.abs(clean.y_hat))
        assert np.max(np.abs(noisy.y_hat - clean.y_hat)) < 1e-14 * scale
        ctl = StepControl(dt_max=1.0, dt_fixed=0.01)
        want = advance(clean, 0.03, ModelParams(), ctl).y
        got = advance(noisy, 0.03, ModelParams(), ctl).y
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


class TestMonitor:
    def test_aggregates_against_independent_norms(self):
        g = TorusGrid(resolution=(16, 16, 16))
        s = generate_initial(InitialDataSpec(seed=9, band=3, v_amp=0.1), g)
        bd = extract_bounds(s, ModelParams())
        rec = Monitor(bd).sample(s)
        comps = [s.v[0], s.v[1], s.v[2], s.omega, s.b]
        v_l2 = math.sqrt(sum(ops.lp_norm(g, s.v[i], 2) ** 2
                             for i in range(3)))
        b_l1 = ops.lp_norm(g, s.b, 1)
        assert rec.x0 == pytest.approx(v_l2**2 + b_l1**2, rel=1e-11)
        for order, got in ((1, rec.x1), (2, rec.x2), (3, rec.x3)):
            want = sum(ops.l2sq_hat(g, g.rfft(f), order) for f in comps)
            assert got == pytest.approx(want, rel=1e-11)
        assert bd.lap_sum == rec.x2
        assert rec.min_omega == np.min(s.omega)
        assert rec.margin_b_lower == pytest.approx(
            rec.min_b - rec.env_b_lower)

    def test_reads_the_spectrum_advance_hands_out(self, monkeypatch):
        # after t = 0 the monitor transforms nothing: each sampled state
        # carries the evolved spectrum
        g = TorusGrid(resolution=(8, 8, 8))
        s = generate_initial(InitialDataSpec(seed=2, band=2), g)
        mon = Monitor(extract_bounds(s, ModelParams()))
        mon.sample(s)
        calls = []
        orig = TorusGrid.rfft

        def counted(self, *args, **kwargs):
            calls.append(np.shape(args[0]))
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(TorusGrid, "rfft", counted)
        seen = []

        def keep(state):
            seen.append(state)
            mon.sample(state)

        final = advance(s, 0.03, ModelParams(),
                        StepControl(dt_max=1.0, dt_fixed=0.01),
                        callbacks=[(1, keep)])
        # generate_initial's validate set the state's spectrum, which
        # advance starts from, and the kernel transforms 14-row stacks
        assert [c for c in calls if c[0] == 5] == []
        assert len(mon.records) == 4
        assert not any(state.y.flags.writeable or state.y_hat.flags.writeable
                       for state in seen + [final])
        for state in seen + [final]:
            assert state.y_hat.shape == (5,) + g.kept_shape
            back = g.irfft(state.y_hat)
            assert back.tobytes() == state.y.tobytes()
        # the kept spectra are copies, not the marcher's buffer
        assert not np.shares_memory(seen[0].y_hat, seen[1].y_hat)

    def test_csv_layout(self):
        g = TorusGrid(resolution=(8, 8, 8))
        s = generate_initial(InitialDataSpec(kind="uniform"), g)
        mon = Monitor(extract_bounds(s, ModelParams()))
        mon.sample(s)
        text = records_to_csv(mon.finalize())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(FIELD_NAMES)
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(FIELD_NAMES)


class TestRunSimulate:
    def test_uniform_run_outputs(self, tmp_path):
        cfg = RunConfig(resolution=(8, 8, 8),
                        initial=InitialDataSpec(kind="uniform"),
                        control=StepControl(dt_max=1.0, dt_fixed=0.01),
                        t_end=0.5, monitor_every=10,
                        snapshot_every=25, out_dir=str(tmp_path))
        res = run_simulate(cfg)
        assert res.final_state.t == 0.5
        ts = [r.t for r in res.records]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert ts[0] == 0.0 and ts[-1] == 0.5
        # uniform data: derivatives vanish identically
        assert all(r.x1 == 0.0 and r.x2 == 0.0 for r in res.records)
        assert os.path.exists(res.monitor_path)
        assert os.path.exists(res.snapshot_path)
        assert os.path.exists(tmp_path / "state_00001.snap")
        final, _ = read_snapshot(res.snapshot_path)
        assert final.t == 0.5

    def test_one_projection_of_the_initial_state(self, monkeypatch):
        # extract_bounds, the t = 0 sample and advance share the initial
        # state's kept block, so its five fields go forward once
        calls = []
        orig = TorusGrid.rfft

        def counted(self, *args, **kwargs):
            calls.append(np.shape(args[0]))
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(TorusGrid, "rfft", counted)
        res = run_simulate(RunConfig(
            resolution=(8, 8, 8), initial=InitialDataSpec(seed=2, band=2),
            control=StepControl(dt_max=1.0, dt_fixed=0.01), t_end=0.03))
        assert [c for c in calls if c[0] == 5] == [(5, 8, 8, 8)]
        assert len(res.records) == 4
        assert res.bounds.lap_sum == res.records[0].x2

    def test_energy_identity_pair(self):
        cfg = small_run_config()
        res = run_simulate(cfg)
        dt = 0.005
        for rec in res.records[1:]:
            assert abs(rec.energy_lhs - rec.energy_rhs) < 10.0 * dt * dt

    def test_partial_monitor_flushed_on_abort(self, tmp_path):
        cfg = RunConfig(resolution=(8, 8, 8),
                        initial=InitialDataSpec(kind="uniform"),
                        control=StepControl(dt_max=1.0, dt_fixed=3.0),
                        t_end=30.0, out_dir=str(tmp_path))
        with pytest.raises((PositivityViolation, BlowUp)), \
                pytest.warns(RuntimeWarning, match=RK4_ALARM):
            run_simulate(cfg)
        assert (tmp_path / "monitor.csv").exists()

    def test_partial_monitor_flushed_on_any_error(self, tmp_path,
                                                  monkeypatch):
        # a snapshot write that fails on its second call, after the
        # samples at t = 0, 0.01 and 0.02
        calls = []
        orig = runs.write_snapshot

        def failing(*args):
            calls.append(args[0])
            if len(calls) == 2:
                raise OSError("disk full")
            return orig(*args)

        monkeypatch.setattr(runs, "write_snapshot", failing)
        cfg = RunConfig(resolution=(8, 8, 8),
                        initial=InitialDataSpec(seed=2, band=2),
                        control=StepControl(dt_max=1.0, dt_fixed=0.01),
                        t_end=0.1, monitor_every=1, snapshot_every=1,
                        out_dir=str(tmp_path))
        with pytest.raises(OSError, match="disk full"):
            run_simulate(cfg)
        rows = (tmp_path / "monitor.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == \
            pytest.approx([0.0, 0.01, 0.02], abs=1e-15)


class TestRunVerify:
    def test_small_run_passes(self):
        cfg = small_run_config(c_p_override=math.sqrt(2.0))
        rep = run_verify(cfg)
        assert rep.passed and not rep.failures
        assert rep.records[-1].t == cfg.t_end

    def test_breach_quotes_the_record_envelope(self):
        # a tiny c_p makes the velocity envelope decay far too fast
        with pytest.raises(VerificationFailure) as err:
            run_verify(small_run_config(c_p_override=1e-2))
        report = err.value.report
        assert not report.passed
        breached = [rec for rec in report.records
                    if rec.v_l2 > rec.env_v_l2 * (1.0 + report.tol_rel)]
        assert breached
        lines = [f for f in report.failures if "velocity L2" in f]
        assert len(lines) == len(breached)
        for rec, line in zip(breached, lines):
            assert line == (f"t = {rec.t:.8g}: velocity L2 above decay "
                            f"envelope: measured {rec.v_l2:.12g} vs bound "
                            f"{rec.env_v_l2:.12g}")

    def test_from_a_mid_run_snapshot(self, tmp_path):
        # the bounds of a snapshot's state hold from the snapshot's time
        # t0 on, so the envelopes and the criterion horizon start there
        control = StepControl(dt_max=0.1, dt_fixed=0.01)
        run_simulate(RunConfig(
            resolution=(16, 16, 16), initial=InitialDataSpec(seed=4),
            control=control, t_end=0.5, snapshot_every=25,
            out_dir=str(tmp_path)))
        # callbacks fall on steps 1, 26, 51, ...
        path = str(tmp_path / "state_00002.snap")
        t0 = read_snapshot(path)[0].t
        assert t0 == pytest.approx(0.26)
        rep = run_verify(RunConfig(
            resolution=(16, 16, 16),
            initial=InitialDataSpec(kind="from_file", path=path),
            control=control, t_end=0.75))
        assert rep.passed and not rep.failures
        first = rep.records[0]
        assert first.t == t0
        # the envelopes at t0 are the data's own extrema
        assert first.env_omega_upper == rep.result.bounds.omega_max
        assert (first.margin_omega_lower, first.margin_omega_upper,
                first.margin_b_lower) == (0.0, 0.0, 0.0)
        assert rep.records[-1].t == pytest.approx(0.75)

    def test_unstable_step_raises(self):
        cfg = small_run_config(
            control=StepControl(dt_max=5.0, dt_fixed=2.0), t_end=10.0)
        with pytest.raises((PositivityViolation, BlowUp,
                            VerificationFailure)), \
                pytest.warns(RuntimeWarning, match=RK4_ALARM):
            run_verify(cfg)


class TestManufactured:
    def test_stationary_solution_reproduced_exactly(self):
        # a constant modulation makes the forced problem stationary, so
        # time stepping must hold the exact fields to roundoff
        g = TorusGrid(resolution=(16, 16, 16))
        p = ModelParams()
        mms = _Manufactured(g, p)
        mms.sigma, mms.dsigma = lambda t: 0.5, lambda t: 0.0
        final = advance(mms.initial_state(), 0.2, p,
                        StepControl(dt_max=1.0, dt_fixed=0.02),
                        forcing=Forcing(func=mms.forcing))
        exact = mms.exact(0.2)
        assert np.max(np.abs(final.v - exact[:3])) < 1e-12
        assert np.max(np.abs(final.omega - exact[3])) < 1e-12
        assert np.max(np.abs(final.b - exact[4])) < 1e-12

    @pytest.mark.parametrize("grid", [
        TorusGrid(resolution=(8, 8, 8)),
        TorusGrid(resolution=(16, 16, 16)),
        TorusGrid(lengths=(2.0 * math.pi, 2.6 * math.pi, 1.4 * math.pi),
                  resolution=(16, 12, 8)),
    ], ids=["8^3", "16^3", "box"])
    def test_forcing_is_time_derivative_minus_kernel(self, grid):
        # sigma(0) = 1, so exact(0) is the profile; sigma is largest at
        # t = pi/10 and smallest at 3 pi/10
        p = ModelParams()
        mms = _Manufactured(grid, p)
        kern = TendencyKernel(grid, p)
        profile_hat = grid.rfft(mms.exact(0.0))
        for t in (0.0, math.pi / 10, 0.37, 3 * math.pi / 10, 2.0):
            h = 1e-5
            assert mms.dsigma(t) == pytest.approx(
                (mms.sigma(t + h) - mms.sigma(t - h)) / (2 * h), abs=1e-8)
            want = (mms.dsigma(t) * profile_hat
                    - kern(grid.rfft(mms.exact(t))))
            got = mms.forcing(t)
            assert got.shape == want.shape
            assert (np.max(np.abs(got - want))
                    <= 1e-13 * np.max(np.abs(want)))

    def test_default_fields_admissible(self):
        g = TorusGrid(resolution=(8, 8, 8))
        mms = _Manufactured(g, ModelParams())
        mms.initial_state().validate()
        y = mms.exact(0.37)
        assert np.min(y[3]) > 0 and np.min(y[4]) > 0


class TestRunCheckReport:
    def test_kv_mirror(self):
        cfg = RunConfig(initial=InitialDataSpec(kind="uniform"),
                        resolution=(8, 8, 8))
        cfg = dataclasses.replace(
            cfg, criterion=dataclasses.replace(cfg.criterion,
                                               c_omega_kappa=1e-4,
                                               horizon=5.0))
        rep = run_check(cfg)
        kv = dict(line.split(" = ") for line in
                  report_to_kv(rep).strip().split("\n"))
        assert kv["holds"] == ("true" if rep.holds else "false")
        assert float(kv["c_omega_kappa"]) == 1e-4
        assert float(kv["horizon"]) == 5.0
        assert int(kv["margin_samples"]) == len(rep.margin_samples)


class TestCli:
    def test_check_exit_codes_and_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        code = main(["check", "--b-min", "1", "--omega-max", "1",
                     "--b0-l1", "0.1", "--constant-C", "0.5",
                     "--horizon", "inf", "--out", out])
        assert code == 0
        assert "existence criterion: HOLDS" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "report.txt"))
        assert os.path.exists(os.path.join(out, "report.kv"))

    def test_check_small_kappa2_is_invalid(self, capsys):
        code = main(["check", "--kappa2", "0.4", "--b-min", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "kappa2" in err

    def test_check_refuses_a_bad_grid_in_the_config(self, tmp_path, capsys):
        # explicit bounds skip the grid, but the config is still checked
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nn1 = 7\n")
        assert main(["check", "--config", str(bad), "--b-min", "1"]) == 3
        assert "even" in capsys.readouterr().err

    def test_check_refuses_a_removed_key_in_the_config(self, tmp_path,
                                                       capsys):
        # a sampling step of 1e-320 once asked for an infinite grid and
        # ended in OverflowError; the step is no longer a config key
        bad = tmp_path / "bad.cfg"
        bad.write_text("[criterion]\ndelta = 1e-320\n")
        assert main(["check", "--config", str(bad), "--b-min", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("invalid parameters:") == 1
        assert "unknown key 'delta' in section [criterion]" in err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/no/such/file.cfg"]) == 3

    def test_simulate_and_runtime_failure(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        args = ["simulate", "--resolution", "16", "--t-end", "0.02",
                "--dt", "0.005", "--out", out]
        assert main(args) == 0
        assert os.path.exists(os.path.join(out, "monitor.csv"))
        assert os.path.exists(os.path.join(out, "final.snap"))
        with pytest.warns(RuntimeWarning, match=RK4_ALARM):
            assert main(["simulate", "--resolution", "16", "--t-end", "30",
                         "--dt", "3.0"]) == 4

    def test_verify_smoke(self, tmp_path, capsys):
        assert main(["verify", "--resolution", "16", "--t-end", "0.02",
                     "--dt", "0.005"]) == 0
        assert "all envelope checks passed" in capsys.readouterr().out

    def test_verify_refuses_small_kappa2_before_simulating(self, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        assert main(["verify", "--kappa2", "0.4", "--resolution", "16",
                     "--t-end", "1", "--out", str(out)]) == 3
        assert "kappa2 > 1/2" in capsys.readouterr().err
        assert not (out / "monitor.csv").exists()

    def test_verify_default_step_is_stable(self):
        # with a diffusive step above the RK4 limit this run left the
        # omega envelope at t ~ 0.49
        assert main(["verify", "--resolution", "16", "--t-end", "2",
                     "--seed", "4"]) == 0

    def test_verify_velocity_envelope_with_default_c_p(self):
        # with c_p = max L_i/(2 pi), too small by sqrt(2/c_v), the
        # velocity L2 decay envelope was crossed at t ~ 3.41
        assert main(["verify", "--resolution", "16", "--t-end", "3.5",
                     "--seed", "0", "--dt", "0.004"]) == 0

    def test_malformed_flag_value_is_invalid(self, capsys):
        # argparse's own exit code 2 means a verification failure here
        for args in (["check", "--kappa2", "abc"],
                     ["mms", "--resolution", "8.5"],
                     ["check", "--horizon", "soon"]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 3
            assert "invalid" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0

    def test_non_finite_flag_values_are_invalid(self, capsys):
        # --b-min nan used to print HOLDS with a0 = nan and exit 0, and
        # --dt nan or inf to start the run and exit 4
        for args, name in ((["check", "--b-min", "nan"], "b_min"),
                           (["check", "--c-p", "inf"], "c_p"),
                           (["check", "--horizon", "nan"], "horizon"),
                           (["simulate", "--resolution", "16", "--dt", "nan"],
                            "dt_fixed"),
                           (["simulate", "--resolution", "16", "--dt", "inf"],
                            "dt_fixed")):
            assert main(args) == 3
            assert name in capsys.readouterr().err

    def test_simulate_rejects_non_finite_t_end(self, capsys):
        assert main(["simulate", "--resolution", "16", "--t-end", "nan"]) == 3
        assert "t_end" in capsys.readouterr().err

    def test_fixed_dt_above_rk4_limit_warns_and_names_step(self, capsys):
        # dt = 0.02 is 1.2x the RK4 limit 0.0165 of this data; the run
        # used to die at t = 0.18 with only "cannot form b/omega"
        args = ["simulate", "--resolution", "16", "--seed", "0",
                "--t-end", "9", "--dt", "0.02"]
        with pytest.warns(RuntimeWarning, match="from step 1 "):
            assert main(args) == 4
        err = capsys.readouterr().err
        assert "cannot form b/omega" in err
        assert "stability limit" in err and "from step 1 " in err

    def test_stage_failure_names_the_stage_time(self, capsys, monkeypatch):
        # the README's example loses omega at the last stage of the step
        # from t = 0.18, and the failure names that stage's t = 0.2
        raised = []

        def recording(cfg):
            try:
                return runs.run_simulate(cfg)
            except PositivityViolation as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(cli, "run_simulate", recording)
        args = ["simulate", "--resolution", "16", "--seed", "0",
                "--t-end", "9", "--dt", "0.02"]
        with pytest.warns(RuntimeWarning, match=RK4_ALARM):
            assert main(args) == 4
        assert raised[0].t == pytest.approx(0.2, abs=1e-15)
        err = capsys.readouterr().err
        assert "at t = 0.2; cannot form b/omega; fixed dt = 0.02" in err

    def test_fixed_dt_below_rk4_limit_is_silent(self):
        args = ["simulate", "--resolution", "16", "--seed", "0",
                "--t-end", "9", "--dt", "0.016"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 0

    def test_simulate_tiny_dt_exits(self, capsys):
        # t + dt == t for dt = 1e-300, so this run used to never end
        start = time.perf_counter()
        assert main(["simulate", "--resolution", "16", "--t-end", "1",
                     "--dt", "1e-300"]) == 3
        assert time.perf_counter() - start < 20.0
        assert "steps" in capsys.readouterr().err


class TestRunMms:
    def test_short_study_reports_structure(self):
        # full-accuracy order study lives in the acceptance suite; here
        # just exercise the plumbing on two coarse steps
        cfg = RunConfig(resolution=(8, 8, 8), t_end=0.05)
        rep = run_mms(cfg, dts=(5e-3, 2.5e-3), threshold=0.0)
        assert set(rep.errors) == {"v", "omega", "b"}
        assert all(len(v) == 2 for v in rep.errors.values())
        assert all(len(v) == 1 for v in rep.orders.values())
        assert rep.passed

    def test_kernel_calls(self, monkeypatch):
        # the manufactured solution calls the kernel twice, when it is
        # made; a forcing evaluation never does.  Each dt run is counted
        # here, since a forked study worker's counts never reach this
        # process.
        calls = [0]
        orig = TendencyKernel.__call__

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(TendencyKernel, "__call__", counted)
        cfg = RunConfig(resolution=(8, 8, 8), t_end=0.05)
        mms = _Manufactured(cfg.make_grid(), cfg.params)
        assert calls[0] == 2
        for t in (0.0, 0.0125, 0.125):
            mms.forcing(t)
        assert calls[0] == 2
        for dt, steps in ((5e-3, 10), (2.5e-3, 20)):
            calls[0] = 0
            runs._mms_errors(cfg, dt)
            assert calls[0] == 4 * steps + 2

    def test_one_projection_per_run(self, monkeypatch):
        # the initial state carries sigma(0) profile_hat as its spectrum,
        # so only the manufactured solution's profile goes forward
        calls = []
        orig = TorusGrid.rfft

        def counted(self, *args, **kwargs):
            calls.append(np.shape(args[0]))
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(TorusGrid, "rfft", counted)
        runs._mms_errors(RunConfig(resolution=(8, 8, 8), t_end=0.05), 5e-3)
        # the kernel's own forwards are of its 14 products
        assert [c for c in calls if c[0] != 14] == [(5, 8, 8, 8)]

    @pytest.mark.parametrize("dts, t_end, name", [
        ((5e-3,), 0.05, "dts"),
        ((), 0.05, "dts"),
        ((5e-3, 5e-3), 0.05, "dts"),
        ((5e-3, 0.0), 0.05, "dts"),
        ((5e-3, -1e-3), 0.05, "dts"),
        ((5e-3, math.nan), 0.05, "dts"),
        ((5e-3, math.inf), 0.05, "dts"),
        ((0.1, 5e-3), 0.05, "dts"),
        ((5e-3, 2.5e-3), 0.0, "t_end"),
        ((5e-3, 2.5e-3), -1.0, "t_end"),
        ((5e-3, 2.5e-3), math.inf, "t_end"),
        ((5e-3, 2.5e-3), math.nan, "t_end"),
    ])
    def test_rejects_bad_input_before_any_run(self, monkeypatch, dts, t_end,
                                              name):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(runs, "_mms_study", no_run)
        cfg = RunConfig(resolution=(8, 8, 8), t_end=0.05)
        cfg.t_end = t_end   # RunConfig itself refuses non-finite t_end
        with pytest.raises(ValueError, match=name):
            run_mms(cfg, dts=dts)

    def test_cli_dt_only_on_commands_that_step(self, capsys):
        # --dt was accepted and ignored: mms ran its own dts and check
        # never steps
        for args in (["mms", "--resolution", "8", "--t-end", "0.04",
                      "--dt", "0.5"],
                     ["check", "--dt", "0.5", "--b-min", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 3
            assert "unrecognized arguments: --dt 0.5" in capsys.readouterr().err
        assert main(["mms", "--resolution", "8", "--t-end", "0.04"]) == 0
        assert "dts: 0.004, 0.002, 0.001\n" in capsys.readouterr().out

    def test_cli_refuses_dt_fixed_in_the_config(self, tmp_path, capsys):
        # the study runs its own dts; it used to ignore the setting and
        # exit 0
        cfg = tmp_path / "fixed.cfg"
        cfg.write_text("[grid]\nn1 = 8\nn2 = 8\nn3 = 8\n[step]\n"
                       "dt_fixed = 0.5\n[run]\nt_end = 0.04\n")
        assert main(["mms", "--config", str(cfg)]) == 3
        assert "[step] dt_fixed = 0.5 is not used" in capsys.readouterr().err

    def test_cli_zero_t_end_is_invalid(self, capsys):
        assert main(["mms", "--resolution", "8", "--t-end", "0"]) == 3
        assert "t_end must be finite and positive" in capsys.readouterr().err

    def test_caller_makes_the_longest_run(self, monkeypatch):
        # each run reports the process that made it, and the caller keeps
        # the order of the runs it makes
        order = []

        def fake(config, dt):
            order.append(dt)
            return (os.getpid(), dt, 0.0)

        monkeypatch.setattr(runs, "_mms_errors", fake)
        cfg = RunConfig(resolution=(8, 8, 8), t_end=0.05)
        dts = (4e-3, 2e-3, 1e-3)
        me = os.getpid()
        assert runs._mms_study(cfg, dts, 1) == [(me, dt, 0.0) for dt in dts]
        assert order == list(dts)
        (w1, *_), (w2, *_), caller = runs._mms_study(cfg, dts, 2)
        assert caller == (me, 1e-3, 0.0) and w1 == w2 != me

    def test_workers_match_in_process_runs_bitwise(self):
        # dts out of order: the report keeps their order, and the caller
        # and the forked worker both make runs whatever the CPU count
        cfg = RunConfig(resolution=(8, 8, 8), t_end=0.05)
        dts = (2.5e-3, 1e-2, 5e-3)
        alone = [runs._mms_errors(cfg, dt) for dt in dts]
        assert runs._mms_study(cfg, dts, 2) == alone
        assert runs._mms_study(cfg, dts, 3) == alone
        rep = run_mms(cfg, dts=dts, threshold=0.0)
        assert rep.dts == list(dts)
        for j, name in enumerate(("v", "omega", "b")):
            errs = [e[j] for e in alone]
            assert rep.errors[name] == errs
            assert rep.orders[name] == [
                math.log2(errs[i] / errs[i + 1]) / math.log2(dts[i] / dts[i + 1])
                for i in range(2)]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_worker_failure_and_alarm_reach_the_caller(self, processes):
        # dt = 0.5 is far past the RK4 limit: it warns on step 1 and
        # loses positivity at t = 0.5, in the forked worker when there
        # are two processes
        cfg = RunConfig(resolution=(8, 8, 8), t_end=1.0)
        with pytest.raises(PositivityViolation) as alone, \
                pytest.warns(RuntimeWarning, match="fixed dt = 0.5 exceeds"):
            runs._mms_errors(cfg, 0.5)
        with pytest.raises(PositivityViolation) as study, \
                pytest.warns(RuntimeWarning,
                             match="fixed dt = 0.5 exceeds") as caught:
            runs._mms_study(cfg, (0.5, 0.05), processes)
        assert type(study.value) is PositivityViolation
        assert str(study.value) == str(alone.value)
        assert study.value.t == alone.value.t == 0.5
        assert len(caught) == 1

    @pytest.mark.parametrize("processes", [1, 2])
    def test_first_failing_dt_in_dts_order_is_raised(self, monkeypatch,
                                                     processes):
        # with two processes the caller's 2.5e-3 run fails first, and the
        # worker's 5e-3 run must still be made: its error is the one a
        # serial loop raises.  One process stops at the first failure.
        ran = []

        def fail(config, dt):
            ran.append(dt)
            raise BlowUp(f"blow-up at dt = {dt}", t=dt)

        monkeypatch.setattr(runs, "_mms_errors", fail)
        cfg = RunConfig(resolution=(8, 8, 8), t_end=0.05)
        with pytest.raises(BlowUp) as exc:
            runs._mms_study(cfg, (5e-3, 2.5e-3), processes)
        assert str(exc.value) == "blow-up at dt = 0.005"
        assert exc.value.t == 5e-3
        # a forked worker's runs are not recorded here
        assert ran == ([5e-3] if processes == 1 else [2.5e-3])


def test_public_exports_resolve():
    # a deleted module must not leave a stale name in __all__
    import kturb
    import kturb.harness
    for pkg in (kturb, kturb.harness):
        for name in pkg.__all__:
            assert getattr(pkg, name, None) is not None, (pkg.__name__, name)
