"""Spectral infrastructure: transforms, calculus, projections, norms."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from kturb import TorusGrid
from kturb import grid as grid_module
from kturb import ops

PI2 = 2.0 * np.pi


def rfftn(x):
    return scipy.fft.rfftn(x, axes=(-3, -2, -1))


def irfftn(grid, spec):
    return scipy.fft.irfftn(spec, s=grid.resolution, axes=(-3, -2, -1))


def half_modes(grid):
    """Integer modes of the half spectrum that scipy.fft.rfftn returns."""
    N1, N2, N3 = grid.resolution
    m1, m2 = (np.rint(scipy.fft.fftfreq(N) * N).astype(np.int64)
              for N in (N1, N2))
    return (m1.reshape(-1, 1, 1), m2.reshape(1, -1, 1),
            np.arange(N3 // 2 + 1).reshape(1, 1, -1))


def kept_mask(grid):
    """True on the half-spectrum modes the 2/3 rule keeps."""
    m1, m2, m3 = half_modes(grid)
    N1, N2, N3 = grid.resolution
    return (np.abs(m1) * 3 <= N1) & (np.abs(m2) * 3 <= N2) & (m3 * 3 <= N3)


def half_tables(grid):
    """k per axis, |k|^2, 1/|k|^2 (zero at k = 0) and the Hermitian
    weight on the half spectrum, with the derivative wavenumber of the
    Nyquist modes set to zero."""
    k = []
    for m, N, L in zip(half_modes(grid), grid.resolution, grid.lengths):
        kd = m.astype(float)
        kd[np.abs(m) * 2 == N] = 0.0
        k.append((2.0 * np.pi / L) * kd)
    k_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    k_sq_inv = np.where(k_sq > 0.0, 1.0 / np.where(k_sq > 0, k_sq, 1.0), 0.0)
    weight = np.full(grid.spectral_shape[-1], 2.0)
    weight[[0, -1]] = 1.0
    return k, k_sq, k_sq_inv, weight


def random_scalar(grid, rng, band=None):
    fhat = grid.rfft(rng.standard_normal(grid.resolution))
    if band is not None:
        m1, m2, m3 = grid.modes
        fhat *= (np.abs(m1) <= band) & (np.abs(m2) <= band) & (np.abs(m3) <= band)
    fhat[0, 0, 0] = 0.0
    return grid.irfft(fhat)


def random_vector(grid, rng, band=None):
    return np.stack([random_scalar(grid, rng, band) for _ in range(3)])


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGrid(lengths=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            TorusGrid(resolution=(7, 8, 8))
        with pytest.raises(ValueError):
            TorusGrid(resolution=(2, 8, 8))
        with pytest.raises(ValueError):
            TorusGrid(lengths=(1.0, 1.0))

    def test_geometry(self):
        g = TorusGrid(lengths=(PI2, 4 * np.pi, np.pi), resolution=(8, 16, 32))
        assert g.npoints == 8 * 16 * 32
        assert g.volume == pytest.approx(PI2 * 4 * np.pi * np.pi)
        assert g.min_spacing == pytest.approx(np.pi / 32)
        assert g.spectral_shape == (8, 16, 17)

    def test_equality_and_hash(self):
        a = TorusGrid(resolution=(8, 8, 8))
        b = TorusGrid(resolution=(8, 8, 8))
        assert a == b and hash(a) == hash(b)
        assert a != TorusGrid(resolution=(8, 8, 16))

    def test_dealias_mask_keeps_third(self):
        # the block holds the modes |m_i| <= 12 / 3 and no other
        g = TorusGrid(resolution=(12, 12, 12))
        m1, m2, m3 = (m.ravel() for m in g.modes)
        assert sorted(m1) == sorted(m2) == list(range(-4, 5))
        assert list(m3) == list(range(5))
        assert g.kept_shape == (9, 9, 5)


class TestTransforms:
    def test_round_trip(self):
        # a field on the kept block comes back
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = TorusGrid(resolution=(16, 12, 8))
            f = random_scalar(g, rng)
            back = g.irfft(g.rfft(f))
            assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    def test_parseval(self):
        # quadrature L2 equals the Plancherel sum over the kept block
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            g = TorusGrid(lengths=(PI2, 3.0, 5.0), resolution=(16, 8, 12))
            f = random_scalar(g, rng)
            quad = ops.lp_norm(g, f, 2)
            spec = np.sqrt(ops.l2sq_hat(g, g.rfft(f)))
            assert spec == pytest.approx(quad, rel=1e-12)

    def test_derivative_exact_on_modes(self):
        g = TorusGrid(lengths=(PI2, PI2, 4.0), resolution=(16, 16, 16))
        x1, x2, x3 = g.coordinates()
        f = np.sin(3 * x1) + 0 * x2 + np.cos(2 * np.pi * 2 * x3 / 4.0)
        grad = g.irfft(ops.grad_hat(g, g.rfft(f)))
        expect0 = 3 * np.cos(3 * x1) + 0 * x2 + 0 * x3
        expect2 = -np.pi * np.sin(np.pi * x3) + 0 * x1 + 0 * x2
        assert np.max(np.abs(grad[0] - expect0)) < 1e-12
        assert np.max(np.abs(grad[1])) < 1e-12
        assert np.max(np.abs(grad[2] - expect2)) < 1e-12

    def test_laplacian_matches_double_gradient(self):
        rng = np.random.default_rng(5)
        g = TorusGrid(resolution=(16, 16, 16))
        f = random_scalar(g, rng, band=4)
        lap = g.irfft(-g.k_sq * g.rfft(f))
        grad = g.irfft(ops.grad_hat(g, g.rfft(f)))
        div_grad = g.irfft(ops.div_hat(g, g.rfft(grad)))
        assert np.max(np.abs(lap - div_grad)) < 1e-11


class TestLeray:
    def test_output_divergence_free_and_zero_mean(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            g = TorusGrid(lengths=(PI2, 3.0, 7.0), resolution=(12, 16, 8))
            u = random_vector(g, rng)
            u += 1.3  # give it a mean to kill
            pu = g.irfft(ops.leray_hat(g, g.rfft(u)))
            div = g.irfft(ops.div_hat(g, g.rfft(pu)))
            scale = np.max(np.abs(pu)) + 1e-30
            assert np.max(np.abs(div)) < 1e-11 * scale
            assert abs(np.mean(pu)) < 1e-13 * scale

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        g = TorusGrid(resolution=(12, 12, 12))
        u = random_vector(g, rng)
        once = g.irfft(ops.leray_hat(g, g.rfft(u)))
        twice = g.irfft(ops.leray_hat(g, g.rfft(once)))
        assert np.max(np.abs(twice - once)) < 1e-13

    def test_self_adjoint(self):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            g = TorusGrid(resolution=(12, 12, 12))
            u, w = random_vector(g, rng), random_vector(g, rng)
            pu = g.irfft(ops.leray_hat(g, g.rfft(u)))
            pw = g.irfft(ops.leray_hat(g, g.rfft(w)))
            lhs = ops.integral(g, pu * w)
            rhs = ops.integral(g, u * pw)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_fixes_divergence_free_fields(self):
        g = TorusGrid(resolution=(16, 16, 16))
        x1, x2, x3 = g.coordinates()
        u = np.stack([
            np.sin(x2) + 0 * x1 + 0 * x3,
            np.sin(x3) + 0 * x1 + 0 * x2,
            np.sin(x1) + 0 * x2 + 0 * x3,
        ])
        pu = g.irfft(ops.leray_hat(g, g.rfft(u)))
        assert np.max(np.abs(pu - u)) < 1e-13


class TestDealiasing:
    def test_product_matches_fine_grid_convolution(self):
        # the 2/3-rule product of band-limited fields must agree, on the
        # retained modes, with the exact product computed alias-free on a
        # doubled grid
        rng = np.random.default_rng(42)
        g = TorusGrid(resolution=(12, 12, 12))
        fine = TorusGrid(resolution=(24, 24, 24))
        f = random_scalar(g, rng, band=3)
        h = random_scalar(g, rng, band=3)
        prod_hat = g.rfft(f * h)

        # a mode m sits at index m of either grid's block, negative m
        # counting from the end
        def upsample(field):
            coarse = g.rfft(field) / g.npoints
            out = np.zeros(fine.kept_shape, dtype=complex)
            for idx in np.argwhere(np.abs(coarse) > 1e-14):
                m = [int(g.modes[ax].ravel()[idx[ax]]) for ax in range(3)]
                out[m[0], m[1], m[2]] = coarse[tuple(idx)]
            return fine.irfft(out * fine.npoints)

        exact = fine.rfft(upsample(f) * upsample(h)) / fine.npoints
        for idx in np.ndindex(g.kept_shape):
            m = [int(g.modes[ax].ravel()[idx[ax]]) for ax in range(3)]
            want = exact[m[0], m[1], m[2]]
            got = prod_hat[idx] / g.npoints
            assert abs(got - want) < 1e-12


class TestNorms:
    def test_lp_against_direct_quadrature(self):
        rng = np.random.default_rng(9)
        g = TorusGrid(lengths=(2.0, 3.0, 4.0), resolution=(8, 8, 8))
        f = random_scalar(g, rng)
        for p in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0):
            direct = (np.sum(np.abs(f) ** p) * g.cell_volume) ** (1 / p)
            assert ops.lp_norm(g, f, p) == pytest.approx(direct, rel=1e-13)
        assert ops.lp_norm(g, f, np.inf) == np.max(np.abs(f))
        for p in (0.5, np.nan):
            with pytest.raises(ValueError):
                ops.lp_norm(g, f, p)

    def test_seminorm_against_explicit_derivatives(self):
        # the Plancherel sums of l2sq_hat against quadrature norms of the
        # explicit derivatives grad f, lap f and grad lap f
        rng = np.random.default_rng(11)
        g = TorusGrid(resolution=(16, 16, 16))
        f = random_scalar(g, rng, band=4)
        fhat = g.rfft(f)
        grad = g.irfft(ops.grad_hat(g, fhat))
        assert np.sqrt(ops.l2sq_hat(g, fhat, 1)) == pytest.approx(
            ops.lp_norm(g, grad, 2), rel=1e-12)
        lap = g.irfft(-g.k_sq * fhat)
        assert np.sqrt(ops.l2sq_hat(g, fhat, 2)) == pytest.approx(
            ops.lp_norm(g, lap, 2), rel=1e-12)
        grad_lap = g.irfft(ops.grad_hat(g, g.rfft(lap)))
        assert np.sqrt(ops.l2sq_hat(g, fhat, 3)) == pytest.approx(
            ops.lp_norm(g, grad_lap, 2), rel=1e-12)

    def test_poincare(self):
        # |f|_2 <= c_p |grad f|_2 with the sharp c_p = max L_i / (2 pi)
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            lengths = (PI2, PI2 * rng.uniform(0.3, 2.0), PI2 * rng.uniform(0.3, 2.0))
            g = TorusGrid(lengths=lengths, resolution=(12, 12, 12))
            f = random_scalar(g, rng, band=5)
            c_p = max(lengths) / PI2
            grad_l2 = np.sqrt(ops.l2sq_hat(g, g.rfft(f), 1))
            assert ops.lp_norm(g, f, 2) <= c_p * grad_l2 * (1 + 1e-12)

    def test_poincare_sharp_on_lowest_mode(self):
        g = TorusGrid(lengths=(4 * np.pi, PI2, PI2), resolution=(16, 16, 16))
        x1, _, _ = g.coordinates()
        f = np.broadcast_to(np.sin(0.5 * x1), g.resolution).copy()
        c_p = 2.0  # 4 pi / 2 pi
        grad_l2 = np.sqrt(ops.l2sq_hat(g, g.rfft(f), 1))
        assert ops.lp_norm(g, f, 2) == pytest.approx(c_p * grad_l2, rel=1e-12)



class TestDealiasedTransforms:
    """The kept-block transforms against scipy.fft's full ones, on
    masked input: the private pocketfft path and the public-API
    fallback."""

    @pytest.fixture(params=["pruned", "fallback"])
    def backend(self, request, monkeypatch):
        if request.param == "fallback":
            monkeypatch.setattr(grid_module, "_pocketfft", None)
        elif grid_module._pocketfft is None:
            pytest.skip("scipy has no usable private pocketfft binding")
        return request.param

    @pytest.mark.parametrize("n, nfields", [(16, 17), (24, 5), (32, 5),
                                            (64, 2)])
    def test_match_full_transforms(self, backend, n, nfields):
        g = TorusGrid(resolution=(n, n, n))
        rng = np.random.default_rng(n)
        phys = rng.standard_normal((nfields,) + g.resolution)
        masked = rfftn(phys) * kept_mask(g)
        want = irfftn(g, masked)
        kept = g.to_kept(masked)
        got = g.irfft(kept)
        assert got.tobytes() == want.tobytes()
        out = np.full(want.shape, np.nan)
        assert g.irfft(kept, out) is out
        assert out.tobytes() == want.tobytes()
        assert g.irfft(kept[0]).tobytes() == want[0].tobytes()
        fwd = g.rfft(want)
        assert np.array_equal(g.from_kept(fwd), rfftn(want) * kept_mask(g))
        spec = np.full(fwd.shape, np.nan, dtype=complex)
        assert g.rfft(want, spec) is spec
        assert np.array_equal(spec, fwd)
        assert np.array_equal(g.rfft(want[0]), fwd[0])

    def test_forward_drops_off_mask_modes(self, backend):
        g = TorusGrid(resolution=(12, 16, 8))
        rng = np.random.default_rng(3)
        phys = rng.standard_normal((2,) + g.resolution)
        spec = g.from_kept(g.rfft(phys))
        assert np.all(spec[:, ~kept_mask(g)] == 0.0)
        assert np.array_equal(spec, rfftn(phys) * kept_mask(g))


class TestKeptBlock:
    """The kept-block layout: its modes and tables, to_kept/from_kept,
    the transforms against scipy.fft's full ones and against the
    public-API fallback, bit for bit, and their out= checks."""

    GRIDS = [(16, 16, 16), (16, 12, 8), (48, 32, 20)]
    LEADS = [(), (3,), (2, 3)]

    @staticmethod
    def phys(g, lead):
        rng = np.random.default_rng(sum(g.resolution) + len(lead))
        return rng.standard_normal(lead + g.resolution)

    @pytest.mark.parametrize("resolution", GRIDS)
    def test_layout(self, resolution):
        g = TorusGrid(resolution=resolution)
        c = [n // 3 for n in resolution]
        assert g.kept_shape == (2 * c[0] + 1, 2 * c[1] + 1, c[2] + 1)
        assert int(kept_mask(g).sum()) == np.prod(g.kept_shape)
        # the block holds the masked modes in half-spectrum order
        for m, mine in zip(half_modes(g), g.modes):
            full = np.broadcast_to(m, g.spectral_shape)
            assert np.array_equal(g.to_kept(full),
                                  np.broadcast_to(mine, g.kept_shape))
        m1, m2, m3 = (m.ravel() for m in g.modes)
        assert list(m1) == list(range(c[0] + 1)) + list(range(-c[0], 0))
        assert list(m2) == list(range(c[1] + 1)) + list(range(-c[1], 0))
        assert list(m3) == list(range(c[2] + 1))
        # the Hermitian weight: the block has no Nyquist column, so it
        # counts its m3 = 0 column once and every other twice
        assert list(g.multipliers.weight.ravel()) == [1.0] + [2.0] * c[2]

    @pytest.mark.parametrize("resolution", GRIDS + [(12, 12, 12),
                                                    (32, 32, 32)])
    def test_tables_equal_the_half_spectrum_gather(self, resolution):
        # built on the block, the tables are bitwise the half-spectrum
        # ones gathered onto it, and the largest |k|^2 is the same
        g = TorusGrid(lengths=(2.0 * np.pi, 3.0, 7.5), resolution=resolution)
        k, k_sq, k_sq_inv, _ = half_tables(g)
        tables = g.multipliers
        full_k = np.stack([np.broadcast_to(ki, g.spectral_shape) for ki in k])
        for table, full in ((tables.k, full_k), (tables.k_sq, k_sq),
                            (tables.k_sq_inv, k_sq_inv)):
            assert table.flags.c_contiguous
            assert table.tobytes() == g.to_kept(full).tobytes()
        assert tables.ik.tobytes() == (1j * tables.k).tobytes()
        for mine, ki in zip(g.k, k):
            assert np.broadcast_to(mine, g.kept_shape).tobytes() \
                == g.to_kept(np.broadcast_to(ki, g.spectral_shape)).tobytes()
        assert g.k_sq.tobytes() == tables.k_sq.tobytes()
        assert g.k_sq_inv.tobytes() == tables.k_sq_inv.tobytes()
        assert g.k_sq_max == float(np.max(k_sq[kept_mask(g)]))

    @pytest.mark.parametrize("resolution", GRIDS)
    @pytest.mark.parametrize("lead", LEADS)
    def test_to_and_from_kept(self, resolution, lead):
        g = TorusGrid(resolution=resolution)
        spec = rfftn(self.phys(g, lead))
        mask = np.broadcast_to(kept_mask(g), g.spectral_shape)
        kept = g.to_kept(spec)
        # the block is the masked modes in the half spectrum's own order
        assert kept.shape == lead + g.kept_shape
        assert kept.tobytes() == spec[..., mask].tobytes()
        back = np.full(spec.shape, np.nan, dtype=complex)
        assert g.from_kept(kept, back) is back
        assert back.tobytes() == np.where(mask, spec, 0).tobytes()
        assert g.to_kept(back).tobytes() == kept.tobytes()

    @pytest.mark.parametrize("resolution", GRIDS)
    @pytest.mark.parametrize("lead", LEADS)
    def test_transforms_bitwise(self, resolution, lead, monkeypatch):
        g = TorusGrid(resolution=resolution)
        phys = self.phys(g, lead)
        if grid_module._pocketfft is None:
            pytest.skip("scipy has no usable private pocketfft binding")
        kept = g.rfft(phys)
        full = g.from_kept(kept)
        assert kept.shape == lead + g.kept_shape
        assert kept.tobytes() == g.to_kept(rfftn(phys)).tobytes()
        inv = g.irfft(kept)
        unwritten = kept.tobytes()
        assert inv.tobytes() == irfftn(g, full).tobytes()
        assert kept.tobytes() == unwritten
        out = np.full(kept.shape, np.nan, dtype=complex)
        assert g.rfft(phys, out) is out
        assert out.tobytes() == kept.tobytes()
        back = np.full(inv.shape, np.nan)
        assert g.irfft(kept, back) is back
        assert back.tobytes() == inv.tobytes()
        # a caller's work array, left holding anything, gives the same bits
        work = np.full(lead + g.spectral_shape, np.nan, dtype=complex)
        assert g.rfft(phys, work=work).tobytes() == kept.tobytes()
        work[...] = np.nan
        assert g.irfft(kept, work=work).tobytes() == inv.tobytes()
        # the public-API fallback gives the same bits
        monkeypatch.setattr(grid_module, "_pocketfft", None)
        assert g.rfft(phys).tobytes() == kept.tobytes()
        assert g.irfft(kept).tobytes() == inv.tobytes()

    @pytest.mark.parametrize("resolution", GRIDS)
    def test_plancherel_sums_on_the_block(self, resolution):
        # the block leaves out only zero entries of its half-spectrum
        # array, so the sums differ by the grouping of the additions
        g = TorusGrid(resolution=resolution)
        kept = g.rfft(self.phys(g, (5,)))
        orders = (0, 1, 2, 3)
        on_block = ops.l2sq_hat_rows(g, kept, orders)
        _, k_sq, _, weight = half_tables(g)
        power = np.abs(g.from_kept(kept)) ** 2
        for o in orders:
            on_half = [float(np.sum(row * k_sq**o * weight))
                       * g.volume / g.npoints**2 for row in power]
            assert on_block[o] == pytest.approx(on_half, rel=1e-13)
        for row, got in zip(g.irfft(kept), on_block[0]):
            assert got == pytest.approx(ops.lp_norm(g, row, 2) ** 2,
                                        rel=1e-12)

    def test_batch_rows_match_single_fields(self):
        # a row of a stack transforms as that field alone does, so the
        # step guard can read a 17-field inverse
        g = TorusGrid(resolution=(16, 16, 16))
        phys = self.phys(g, (17,))
        kept = g.rfft(phys)
        inv = g.irfft(kept)
        for row in (0, 1, 8, 16):
            assert g.rfft(phys[row]).tobytes() == kept[row].tobytes()
            assert g.irfft(kept[row]).tobytes() == inv[row].tobytes()

    @pytest.mark.parametrize("fallback", [False, True])
    def test_refuses_mismatched_arrays(self, fallback, monkeypatch):
        # pocketfft would write through an out of the wrong shape
        if fallback:
            monkeypatch.setattr(grid_module, "_pocketfft", None)
        g = TorusGrid(resolution=(8, 8, 8))
        phys = np.zeros((2, 8, 8, 8))
        kept = np.zeros((2,) + g.kept_shape, dtype=complex)
        with pytest.raises(ValueError, match="trailing axes"):
            g.rfft(phys[..., :4])
        with pytest.raises(ValueError, match="trailing axes"):
            g.irfft(np.zeros((2,) + g.spectral_shape, complex))
        full = np.zeros((2,) + g.spectral_shape, dtype=complex)
        for wrong in (kept[0], kept[..., :2], kept.astype(np.complex64),
                      full):
            with pytest.raises(ValueError, match="out must be"):
                g.rfft(phys, wrong)
        for wrong in (phys[0], phys[..., :4], phys.astype(np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                g.irfft(kept, wrong)
        for wrong in (kept[0], kept.astype(np.complex64), full):
            with pytest.raises(ValueError, match="out must be"):
                g.to_kept(full, wrong)
        for wrong in (full[0], full.astype(np.complex64), kept):
            with pytest.raises(ValueError, match="out must be"):
                g.from_kept(kept, wrong)
        if fallback:
            return
        for wrong in (full[0], full[..., :2], full.astype(np.complex64),
                      kept):
            with pytest.raises(ValueError, match="work must be"):
                g.rfft(phys, work=wrong)
            with pytest.raises(ValueError, match="work must be"):
                g.irfft(kept, work=wrong)


class TestFullTransforms:
    """The transforms, run through the pocketfft module that kturb.grid
    loads from its file, against scipy.fft's public full rfftn/irfftn,
    bit for bit: rfft is the block of rfftn, and irfft is irfftn of the
    block's half spectrum."""

    @pytest.fixture(autouse=True)
    def binding(self):
        if grid_module._pocketfft is None:
            pytest.skip("scipy has no usable private pocketfft binding")

    @pytest.mark.parametrize("resolution", [(16, 16, 16), (32, 32, 32),
                                            (16, 12, 8), (48, 32, 20)])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_match_scipy(self, resolution, lead):
        g = TorusGrid(resolution=resolution)
        rng = np.random.default_rng(sum(resolution) + len(lead))
        phys = rng.standard_normal(lead + g.resolution)
        want = g.to_kept(rfftn(phys))
        assert g.rfft(phys).tobytes() == want.tobytes()
        spec = np.full(want.shape, np.nan, dtype=complex)
        assert g.rfft(phys, spec) is spec
        assert spec.tobytes() == want.tobytes()

        back = irfftn(g, g.from_kept(want))
        unwritten = want.tobytes()
        assert g.irfft(want).tobytes() == back.tobytes()
        out = np.full(back.shape, np.nan)
        assert g.irfft(want, out) is out
        assert out.tobytes() == back.tobytes()
        assert want.tobytes() == unwritten

    def test_after_scipy_fft_import(self):
        # a fresh process: the module kturb loads from its file gives the
        # same bits before and after scipy.fft is imported, which finds
        # that module loaded or loads a second copy of it
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", _THEN_SCIPY], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("fallback", [False, True])
    def test_refuses_mismatched_arrays(self, fallback, monkeypatch):
        # the half-spectrum layout is refused, in and out
        if fallback:
            monkeypatch.setattr(grid_module, "_pocketfft", None)
        g = TorusGrid(resolution=(8, 8, 8))
        phys = np.zeros((2, 8, 8, 8))
        spec = np.zeros((2, 8, 8, 5), dtype=complex)
        assert spec.shape[1:] == g.spectral_shape != g.kept_shape
        with pytest.raises(ValueError, match="trailing axes"):
            g.irfft(spec)
        with pytest.raises(ValueError, match="trailing axes"):
            g.irfft(spec[..., :3])
        for wrong in (spec, spec[0], spec[..., :3]):
            with pytest.raises(ValueError, match="out must be"):
                g.rfft(phys, wrong)


_THEN_SCIPY = """
import sys
import numpy as np
from kturb import TorusGrid

def transforms(g, x):
    kept = g.rfft(x)
    return kept, g.irfft(kept)

g = TorusGrid(resolution=(16, 12, 8))
x = np.random.default_rng(5).standard_normal((2,) + g.resolution)
before = transforms(g, x)
assert "scipy" not in sys.modules
import scipy.fft
after = transforms(g, x)
assert [a.tobytes() for a in before] == [a.tobytes() for a in after]
want = scipy.fft.rfftn(x, axes=(-3, -2, -1))
assert after[0].tobytes() == g.to_kept(want).tobytes()
back = scipy.fft.irfftn(g.from_kept(after[0]), s=g.resolution,
                        axes=(-3, -2, -1))
assert after[1].tobytes() == back.tobytes()
"""
