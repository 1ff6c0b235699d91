"""Periodic box geometry and discrete Fourier machinery.

All fields live on a uniform collocation grid over the box
prod_i (0, L_i) with N_i points per axis.  Every spectrum is dealiased
and has one layout, the kept block: only the modes the 2/3 rule keeps,
|m_i| <= c_i = N_i // 3, in an array of shape (2 c1 + 1, 2 c2 + 1,
c3 + 1) with m1 and m2 ordered 0..c, -c..-1.  The wavenumber tables are
built on it, and rfft projects a physical array onto it.  The
transforms run scipy's compiled pocketfft module, loaded from its file
so that no scipy package is imported, in a real-FFT half-spectrum work
array (last axis N_3//2 + 1), skipping the modes the 2/3 rule drops.
When that module is missing or has changed, they fall back to
scipy.fft's public rfftn/irfftn, gathering or scattering the block
around them (to_kept/from_kept).
"""

import importlib.machinery
import importlib.util
import os

import numpy as np


def _pruning_backend():
    """scipy's compiled pocketfft module, loaded from its file under
    scipy's install directory, if its in-place strided out= form works;
    None makes every transform use scipy.fft's public rfftn/irfftn
    instead.  Finding the directory runs no scipy code, and the module
    is put under no name in sys.modules."""
    try:
        scipy_spec = importlib.util.find_spec("scipy")
        where = os.path.join(os.path.dirname(scipy_spec.origin), "fft",
                             "_pocketfft")
        finder = importlib.machinery.FileFinder(where, (
            importlib.machinery.ExtensionFileLoader,
            importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.fft._pocketfft.pypocketfft")
        pp = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pp)
        a = np.zeros((2, 3), dtype=complex)
        cols = a[:, :2]
        pp.c2c(cols, (0,), False, 0, cols, 1)
    except (ImportError, AttributeError, TypeError, ValueError, OSError):
        return None
    return pp


_pocketfft = _pruning_backend()


def _output(x, shape_in, shape_out, dtype, out, name="out"):
    """out, checked, or a new array, for a transform of x over its
    trailing three axes; pocketfft writes through out unchecked."""
    if x.shape[-3:] != shape_in:
        raise ValueError(f"expected trailing axes {shape_in}, "
                         f"got shape {x.shape}")
    shape = x.shape[:-3] + shape_out
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(f"{name} must be a {np.dtype(dtype)} array of "
                         f"shape {shape}, got {out.dtype} {out.shape}")
    return out


def check_box(lengths, resolution, error=ValueError):
    """The box's (lengths, resolution) as float and int 3-tuples, checked."""
    lengths = tuple(float(L) for L in lengths)
    resolution = tuple(int(N) for N in resolution)
    if len(lengths) != 3 or len(resolution) != 3:
        raise error("lengths and resolution must have 3 entries")
    if not all(0.0 < L < np.inf for L in lengths):
        raise error(f"box lengths must be finite and positive, got {lengths}")
    if any(N < 4 or N % 2 for N in resolution):
        raise error("resolution entries must be even and >= 4")
    return lengths, resolution


class Multipliers:
    """The multiplier tables of the kept block: k and i k per axis,
    |k|^2, 1/|k|^2 (zero at k = 0) and weight, the multiplicity of each
    entry in full-spectrum (Plancherel) sums."""

    def __init__(self, k, ik, k_sq, k_sq_inv, weight):
        self.k, self.ik, self.k_sq, self.k_sq_inv = k, ik, k_sq, k_sq_inv
        self.weight = weight
        self._k_sq_powers = {}

    def k_sq_power(self, order):
        """k_sq**order, computed once per order and then reused."""
        if order not in self._k_sq_powers:
            self._k_sq_powers[order] = self.k_sq**order
        return self._k_sq_powers[order]


class TorusGrid:
    """Geometry, wavenumber tables and transforms for one periodic box.

    Parameters
    ----------
    lengths : tuple of 3 finite positive floats
        Box edge lengths (L1, L2, L3).
    resolution : tuple of 3 even ints >= 4
        Collocation points per axis (N1, N2, N3).
    """

    def __init__(self, lengths=(2.0 * np.pi,) * 3, resolution=(32, 32, 32)):
        lengths, resolution = check_box(lengths, resolution)
        self.lengths, self.resolution = lengths, resolution
        N1, N2, N3 = resolution
        L1, L2, L3 = lengths
        self.npoints = N1 * N2 * N3
        self.volume = L1 * L2 * L3
        self.cell_volume = self.volume / self.npoints
        self.min_spacing = min(L / N for L, N in zip(lengths, resolution))
        # the complex half spectrum the transforms run their passes in
        self.spectral_shape = (N1, N2, N3 // 2 + 1)
        # pocketfft's inverse normalisation, rounded through long double
        # as pocketfft rounds it
        self._inv_npoints = float(np.longdouble(1) / self.npoints)

        # The kept block, |m_i| <= c_i = N_i // 3: the four corners of the
        # m3 <= c3 slab that m1 >= 0 or < 0 and m2 >= 0 or < 0 select, as
        # (kept-block index, half-spectrum index) pairs.
        c1, c2, c3 = self._kept = tuple(N // 3 for N in resolution)
        self.kept_shape = (2 * c1 + 1, 2 * c2 + 1, c3 + 1)
        self._corners = tuple(
            ((..., kr, kc, slice(None)), (..., fr, fc, slice(c3 + 1)))
            for kr, fr in ((slice(c1 + 1), slice(c1 + 1)),
                           (slice(c1 + 1, None), slice(N1 - c1, None)))
            for kc, fc in ((slice(c2 + 1), slice(c2 + 1)),
                           (slice(c2 + 1, None), slice(N2 - c2, None))))

        # Integer modes m of the block, 0..c, -c..-1 on the first two
        # axes and 0..c3 on the last, and wavenumbers k = 2 pi m / L.
        m1, m2 = (np.r_[0:c + 1, -c:0] for c in (c1, c2))
        self.modes = (m1.reshape(-1, 1, 1), m2.reshape(1, -1, 1),
                      np.arange(c3 + 1).reshape(1, 1, -1))
        self.k = tuple((2.0 * np.pi / L) * m.astype(float)
                       for m, L in zip(self.modes, lengths))
        self.k_sq = self.k[0] ** 2 + self.k[1] ** 2 + self.k[2] ** 2
        self.k_sq_inv = np.where(
            self.k_sq > 0.0, 1.0 / np.where(self.k_sq > 0, self.k_sq, 1.0),
            0.0)  # zero at k = 0
        # largest |k|^2 the dealiased tendency acts on; it sets the
        # diffusive step limit
        self.k_sq_max = float(np.max(self.k_sq))
        # contiguous tables; the block has no Nyquist column, so its
        # Hermitian weight is 1 at m3 = 0 and 2 elsewhere
        k = np.stack([np.broadcast_to(ki, self.kept_shape) for ki in self.k])
        weight = np.full((1, 1, c3 + 1), 2.0)
        weight[..., 0] = 1.0
        self.multipliers = Multipliers(k, 1j * k, self.k_sq, self.k_sq_inv,
                                       weight)

    def __eq__(self, other):
        return (
            isinstance(other, TorusGrid)
            and self.lengths == other.lengths
            and self.resolution == other.resolution
        )

    def __hash__(self):
        return hash((self.lengths, self.resolution))

    def __repr__(self):
        return f"TorusGrid(lengths={self.lengths}, resolution={self.resolution})"

    # -- kept block ------------------------------------------------------

    def to_kept(self, spectrum, out=None):
        """The kept block of a half-spectrum array (any leading axes and
        dtype), written into out when given."""
        spectrum = np.asarray(spectrum)
        out = _output(spectrum, self.spectral_shape, self.kept_shape,
                      spectrum.dtype, out)
        for kept, full in self._corners:
            out[kept] = spectrum[full]
        return out

    def from_kept(self, kept, out=None):
        """The half-spectrum array that holds the kept block kept and
        zero at every other mode, written into out when given."""
        kept = np.asarray(kept)
        out = _output(kept, self.kept_shape, self.spectral_shape, kept.dtype,
                      out)
        # one contiguous fill costs less than zeroing the dropped modes
        # slice by slice
        out[...] = 0
        for k, full in self._corners:
            out[full] = kept[k]
        return out

    # -- transforms -------------------------------------------------------

    def rfft(self, values, out=None, work=None):
        """Forward real transform over the trailing three axes, onto the
        kept block, written into out when given.

        Only what the 2/3 rule keeps is transformed.  Into work, a complex
        half-spectrum array with values' leading axes (one is made for
        the call when none is given, so a caller that transforms often
        can keep one): r2c over axis -1, c2c over axis -3 on the m3 <= c3
        slab, c2c over axis -2 on the kept m1 rows of it; then the block
        is gathered.  These are pocketfft's own passes, so the block is
        bitwise that of rfftn.
        """
        values = np.asarray(values, dtype=float)
        out = _output(values, self.resolution, self.kept_shape, complex, out)
        if _pocketfft is None:
            from scipy import fft
            return self.to_kept(fft.rfftn(values, axes=(-3, -2, -1)), out)
        pp = _pocketfft
        N1, _, _ = self.resolution
        c1, _, c3 = self._kept
        ax = values.ndim - 3
        work = _output(values, self.resolution, self.spectral_shape, complex,
                       work, "work")
        pp.r2c(values, (ax + 2,), True, 0, work, 1)
        slab = work[..., :c3 + 1]
        pp.c2c(slab, (ax,), True, 0, slab, 1)
        for rows in (slab[..., :c1 + 1, :, :], slab[..., N1 - c1:, :, :]):
            pp.c2c(rows, (ax + 1,), True, 0, rows, 1)
        return self.to_kept(work, out)

    def irfft(self, spectrum, out=None, work=None):
        """Inverse real transform of a kept block over its trailing three
        axes, written into out when given; spectrum is not written.

        Only the kept modes are transformed.  The block is scattered into
        work (as for rfft), zeroed, then: c2c over axis -3 on the kept
        (m2, m3) columns, c2c over axis -2 on the m3 <= c3 slab, c2r over
        axis -1 and the 1/N scaling.  This is pocketfft's own pass order,
        so the result is bitwise irfftn's of the block's half-spectrum
        array.
        """
        spectrum = np.asarray(spectrum, dtype=complex)
        out = _output(spectrum, self.kept_shape, self.resolution, float, out)
        if _pocketfft is None:
            from scipy import fft
            out[...] = fft.irfftn(self.from_kept(spectrum), s=self.resolution,
                                  axes=(-3, -2, -1))
            return out
        pp = _pocketfft
        _, N2, N3 = self.resolution
        _, c2, c3 = self._kept
        ax = spectrum.ndim - 3
        work = self.from_kept(spectrum, _output(
            spectrum, self.kept_shape, self.spectral_shape, complex, work,
            "work"))
        slab = work[..., :c3 + 1]
        for cols in (slab[..., :c2 + 1, :], slab[..., N2 - c2:, :]):
            pp.c2c(cols, (ax,), False, 0, cols, 1)
        pp.c2c(slab, (ax + 1,), False, 0, slab, 1)
        pp.c2r(work, (ax + 2,), N3, False, 0, out, 1)
        out *= self._inv_npoints
        return out

    def coordinates(self):
        """Collocation coordinates as three broadcastable arrays."""
        xs = []
        shapes = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
        for L, N, shape in zip(self.lengths, self.resolution, shapes):
            xs.append((np.arange(N) * (L / N)).reshape(shape))
        return tuple(xs)
