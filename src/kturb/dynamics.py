"""Semi-discrete right-hand sides of the two-equation closure model.

The evolved unknowns are the mean velocity v (divergence-free, zero
mean), the dissipation rate omega and the turbulent energy measure b,
coupled through the eddy viscosity mu = b/omega:

    v_t   = P[ -div(v x v) + c_v div(mu D(v)) ]
    om_t  = -div(om v) + k1 div(mu grad om) - k2 om^2
    b_t   = -div(b v)  + k3 div(mu grad b)  - b om + k4 mu |D(v)|^2

with P the Leray projector and D(v) the rate-of-strain tensor.  All
quadratic products are dealiased; mu is formed pointwise and never
floored (positivity of omega is a hard precondition).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import ops
from .errors import PositivityViolation, require_finite
from .grid import TorusGrid

# omega and b at or below this value abort a march: mu = b/omega is
# never formed from a smaller omega
POSITIVITY_FLOOR = 1e-10


@dataclass
class ModelParams:
    """Physical constants of the model.

    The canonical momentum diffusion uses coefficient c_v =
    momentum_diffusion_coeff * nu0 on div(mu D(v)).  The default
    momentum_diffusion_coeff = 1 matches the weak-form normalization in
    which the velocity dissipation and the b production balance exactly;
    set it to 2 to recover the literal strong-form momentum equation.
    TendencyKernel's energy budget carries the gap between them,
    (kappa4 - c_v) (mu |D(v)|^2, 1), so it holds for either.
    """

    nu0: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    kappa3: float = 1.0
    kappa4: float = 1.0
    momentum_diffusion_coeff: float = 1.0

    def __post_init__(self):
        require_finite(self)
        for name in ("nu0", "kappa1", "kappa2", "kappa3", "kappa4",
                     "momentum_diffusion_coeff"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def c_v(self):
        return self.momentum_diffusion_coeff * self.nu0

    @property
    def c_diff(self):
        return max(self.c_v, self.kappa1, self.kappa3)


@dataclass
class State:
    """Solution triple (v, omega, b) at time t, stored as one physical
    array y of shape (5, N1, N2, N3) with rows (v1, v2, v3, omega, b).

    v, omega and b are the views y[:3], y[3] and y[4], not copies.
    y_hat, when set, is the spectrum of y on the kept block of the 2/3
    rule, shape (5,) + grid.kept_shape (see TorusGrid): the spectrum
    that y was made from, or y projected onto the block, as validate
    sets it.  advance starts from a copy of it, and sets it, read-only
    with y, on the states it returns and hands its callbacks.
    budget is advance's time integral of TendencyKernel's energy_rate
    up to t, continued from its input state's (0.0 by default).
    """

    grid: TorusGrid
    y: np.ndarray
    t: float = 0.0
    y_hat: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)
    budget = 0.0  # not a field: no __init__ parameter, not in repr or ==

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        want = (5,) + self.grid.resolution
        if self.y.shape != want:
            raise ValueError(f"state shape {self.y.shape} does not match {want}")

    @classmethod
    def uniform(cls, grid, omega, b, t=0.0):
        """Velocity at rest with constant omega and b."""
        y = np.zeros((5,) + grid.resolution)
        y[3] = omega
        y[4] = b
        return cls(grid, y, t)

    def spectrum(self):
        """The spectrum of y on the kept block: y_hat when set, else y
        projected afresh."""
        if self.y_hat is not None:
            return self.y_hat
        return self.grid.rfft(self.y)

    @property
    def v(self):
        return self.y[:3]

    @property
    def omega(self):
        return self.y[3]

    @property
    def b(self):
        return self.y[4]

    def validate(self):
        """Return self if it is admissible, with y_hat set to
        spectrum(); raise ValueError otherwise.  The velocity must be
        divergence-free and zero-mean on the kept block, which is all of
        it that advance marches, and omega and b strictly positive at
        every grid point.  The divergence tolerance scales with the
        velocity's L2 norm on the block, floored at 1e-3 of y's, so a
        velocity off the block is not judged by roundoff alone."""
        if not np.all(np.isfinite(self.y)):
            raise ValueError("field values must be finite")
        g = self.grid
        y_hat = self.spectrum()
        vhat = y_hat[:3]
        vnorm = max(np.sqrt(sum(ops.l2sq_hat(g, vhat[i]) for i in range(3))),
                    1e-3 * ops.lp_norm(g, self.v, 2), 1e-300)
        div = ops.div_hat(g, vhat)
        if np.max(np.abs(div)) > 1e-12 * vnorm * g.npoints:
            raise ValueError("velocity is not divergence-free")
        for i in range(3):
            if abs(vhat[i][0, 0, 0]) > 1e-12 * g.npoints:
                raise ValueError("velocity has nonzero mean")
        if np.min(self.y[3]) <= 0.0:
            raise ValueError("omega must be strictly positive")
        if np.min(self.y[4]) <= 0.0:
            raise ValueError("b must be strictly positive")
        self.y_hat = y_hat
        return self


class Forcing:
    """Prescribed source from ``func(t)``: a (5,) + grid.kept_shape
    spectrum on the kept block (see TorusGrid), with divergence-free,
    zero-mean velocity rows, as every tendency has.  advance adds it to
    the tendency at each RK4 stage time and only reads it."""

    def __init__(self, func):
        self._func = func

    def __call__(self, t):
        return self._func(t)


def _require_positive_omega(omega, t):
    """Raise a PositivityViolation at t unless min(omega) is finite and
    above POSITIVITY_FLOOR."""
    om_min = float(np.min(omega))
    if not np.isfinite(om_min) or om_min <= POSITIVITY_FLOOR:
        raise PositivityViolation(
            f"min(omega) = {om_min:.3e} at t = {t:.6g}; cannot form b/omega",
            t=t)


def _strain_sq(D):
    """|D|^2 pointwise from the six entries (11, 22, 33, 12, 13, 23) of
    the symmetric rate-of-strain tensor, formed in place: D is
    overwritten and D[0] returned."""
    np.square(D, out=D)
    np.add(D[0], D[1], out=D[0])
    np.add(D[0], D[2], out=D[0])
    np.add(D[3], D[4], out=D[3])
    np.add(D[3], D[5], out=D[3])
    np.multiply(2.0, D[3], out=D[3])
    return np.add(D[0], D[3], out=D[0])


class TendencyKernel:
    """Fused evaluator of all three right-hand sides in spectral form.

    Its input and output are (5,) + grid.kept_shape spectra on the kept
    block, so every mode the 2/3 rule drops is absent rather than zero.
    Every call transforms the same 17 fields to physical space, the
    state's own five rows (v1, v2, v3, omega, b) first, and the same 14
    products back, with TorusGrid's kept-block transforms.  A spatially
    uniform state skips the transforms: the FFT of a constant field is
    exact, so the result is bitwise identical to the full path.

    Every call also stores energy_rate, the energy budget's rate
    d/dt (|b|_1 + |v|_2^2 / 2) = -(b omega, 1) + (kappa4 - c_v) (mu
    |D(v)|^2, 1) at y_hat, as grid quadratures of the products it
    forms; the dealiased transport terms integrate to zero.  The
    forcing is not part of it.

    An instance owns the spectral stack, which the inverse transform
    reads and the forward transform refills, the physical fields, the
    physical products and the half-spectrum work array the transforms
    run in.  It refills them on every call, so one instance
    must not be shared between threads.  Complex products keep the
    operand order of the plain expressions they replace, since numpy's
    complex multiply is not bitwise commutative.
    """

    def __init__(self, grid: TorusGrid, params: ModelParams):
        self.grid = grid
        self.params = params
        # spectra of v, omega, b, grad omega, grad b, D; then those of
        # the products
        self._spec = np.empty((17,) + grid.kept_shape, dtype=complex)
        # their physical fields
        self._phys = np.empty((17,) + grid.resolution)
        # s_om, s_b, Gw, Gb and T
        self._fwd = np.empty((14,) + grid.resolution)
        # the half-spectrum array both transforms run their passes in
        self._work = np.empty((17,) + grid.spectral_shape, dtype=complex)

    def __call__(self, y_hat, t=0.0, out=None, inspect=None):
        """Tendency spectrum of y_hat, written into out when given and
        into a fresh array otherwise.  y_hat is only read; t is only the
        time of the PositivityViolation raised when omega is at or below
        POSITIVITY_FLOOR.  inspect, when given, is called as inspect(y)
        with y the (5, N1, N2, N3) physical state of y_hat, as soon as
        the inverse transform has made it and before anything else
        reads it; y is overwritten after inspect returns.  A uniform
        state makes no transform: its y is filled with the k = 0 means
        y_hat[:, 0, 0, 0].real / npoints."""
        g = self.grid
        p = self.params
        if out is None:
            out = np.empty((5,) + g.kept_shape, dtype=complex)

        if ops.is_uniform_state_hat(y_hat):
            # spatially uniform state: the reaction ODEs are the whole
            # dynamics
            mean = y_hat[:, 0, 0, 0].real / g.npoints
            if inspect is not None:
                self._phys[:5] = mean[:, None, None, None]
                inspect(self._phys[:5])
            om, bm = float(mean[3]), float(mean[4])
            _require_positive_omega(om, t)
            self.energy_rate = -bm * om * g.volume
            out[...] = 0.0
            out[3, 0, 0, 0] = -p.kappa2 * om * om * g.npoints
            out[4, 0, 0, 0] = -bm * om * g.npoints
            return out

        self._fill_inverse(y_hat)
        phys = g.irfft(self._spec, out=self._phys, work=self._work)
        if inspect is not None:
            inspect(phys[:5])
        self._products(phys, t)
        spec = g.rfft(self._fwd, out=self._spec[:14], work=self._work[:14])
        return self._assemble(spec, out)

    def _fill_inverse(self, y_hat):
        g = self.grid
        S = self._spec
        S[:5] = y_hat
        ops.grad_hat(g, y_hat[3], out=S[5:8])
        ops.grad_hat(g, y_hat[4], out=S[8:11])
        ops.sym_grad_hat(g, y_hat[:3], out=S[11:17])

    def _products(self, phys, t):
        """Fill the forward stack from the physical fields, which are
        overwritten."""
        p = self.params
        F = self._fwd
        v, omega, b = phys[:3], phys[3], phys[4]
        grad_w, grad_b, D = phys[5:8], phys[8:11], phys[11:17]

        _require_positive_omega(omega, t)

        # s_om = -kappa2 omega^2
        np.multiply(-p.kappa2, omega, out=F[0])
        np.multiply(F[0], omega, out=F[0])
        # s_b = -b omega + kappa4 mu |D|^2 (last term below)
        np.negative(b, out=F[1])
        np.multiply(F[1], omega, out=F[1])
        coupling = float(np.sum(F[1]))
        # Gw = -omega v + kappa1 mu grad omega, Gb = -b v + kappa3 mu grad b
        np.multiply(omega, v, out=F[2:5])
        np.subtract(0.0, F[2:5], out=F[2:5])
        np.multiply(b, v, out=F[5:8])
        np.subtract(0.0, F[5:8], out=F[5:8])
        # omega and b are not read past here: mu replaces b, and the
        # coefficient times mu goes where omega was
        mu = np.divide(b, omega, out=b)
        kmu = omega
        for kappa, grad, G in ((p.kappa1, grad_w, F[2:5]),
                               (p.kappa3, grad_b, F[5:8])):
            np.multiply(kappa, mu, out=kmu)
            np.multiply(kmu, grad, out=grad)
            np.add(G, grad, out=G)
        # T_ij = c_v mu D_ij - v_i v_j, ordered (11, 22, 33, 12, 13, 23);
        # the gradient rows hold the velocity products
        np.multiply(p.c_v, mu, out=kmu)
        np.multiply(kmu, D, out=F[8:14])
        vv = phys[5:11]
        for row, (i, j) in enumerate(((0, 0), (1, 1), (2, 2),
                                      (0, 1), (0, 2), (1, 2))):
            np.multiply(v[i], v[j], out=vv[row])
        np.subtract(F[8:14], vv, out=F[8:14])
        np.multiply(p.kappa4, mu, out=kmu)
        np.multiply(kmu, _strain_sq(D), out=kmu)
        self.energy_rate = self.grid.cell_volume * (
            coupling + (1.0 - p.c_v / p.kappa4) * float(np.sum(kmu)))
        np.add(F[1], kmu, out=F[1])

    def _assemble(self, spec, out):
        """out = (P div T, s_om + div Gw, s_b + div Gb) from the
        dealiased forward spectra, which are overwritten."""
        ik = self.grid.ik
        T = spec[8:14]
        # div Gw and div Gb, summed in the Gw[0] and Gb[0] rows
        for row, s, G in ((3, spec[0], spec[2:5]), (4, spec[1], spec[5:8])):
            for i in range(3):
                np.multiply(ik[i], G[i], out=G[i])
            np.add(G[0], G[1], out=G[0])
            np.add(G[0], G[2], out=G[0])
            np.add(s, G[0], out=out[row])
        tmp = spec[2]
        # div T row by row: entries i1, i2, i3 of the symmetric tensor as
        # indices into its (11, 22, 33, 12, 13, 23) rows
        for i, row in enumerate(((0, 3, 4), (3, 1, 5), (4, 5, 2))):
            np.multiply(ik[0], T[row[0]], out=out[i])
            for j in (1, 2):
                np.multiply(ik[j], T[row[j]], out=tmp)
                np.add(out[i], tmp, out=out[i])
        ops.leray_hat(self.grid, out[:3])
        return out

