"""Semi-discrete right-hand sides of the two-equation closure model.

The evolved unknowns are the mean velocity v (divergence-free, zero
mean), the dissipation rate omega and the turbulent energy measure b,
coupled through the eddy viscosity mu = b/omega:

    v_t   = P[ -div(v x v) + c_v div(mu D(v)) + F_v ]
    om_t  = -div(om v) + k1 div(mu grad om) - k2 om^2 + F_om
    b_t   = -div(b v)  + k3 div(mu grad b)  - b om + k4 mu |D(v)|^2 + F_b

with P the Leray projector and D(v) the rate-of-strain tensor.  All
quadratic products are dealiased; mu is formed pointwise and never
floored (positivity of omega is a hard precondition).
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import NonPositiveOmega
from .grid import TorusGrid


@dataclass
class ModelParams:
    """Physical constants of the model.

    The canonical momentum diffusion uses coefficient c_v =
    momentum_diffusion_coeff * nu0 on div(mu D(v)).  The default
    momentum_diffusion_coeff = 1 matches the weak-form normalization in
    which the velocity dissipation and the b production balance exactly;
    set it to 2 to recover the literal strong-form momentum equation.
    """

    nu0: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    kappa3: float = 1.0
    kappa4: float = 1.0
    momentum_diffusion_coeff: float = 1.0

    def __post_init__(self):
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
    """

    grid: TorusGrid
    y: np.ndarray
    t: float = 0.0

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

    @property
    def v(self):
        return self.y[:3]

    @property
    def omega(self):
        return self.y[3]

    @property
    def b(self):
        return self.y[4]

    def validate(self, div_tol=1e-12, eps_pos=0.0):
        g = self.grid
        vhat = g.rfft(self.y[:3])
        vnorm = np.sqrt(sum(ops.l2sq_hat(g, vhat[i]) for i in range(3)))
        div = ops.div_hat(g, vhat)
        if np.max(np.abs(div)) > div_tol * max(vnorm, 1e-300) * g.npoints:
            raise ValueError("velocity is not divergence-free")
        for i in range(3):
            if abs(vhat[i][0, 0, 0]) > div_tol * g.npoints:
                raise ValueError("velocity has nonzero mean")
        if np.min(self.y[3]) <= eps_pos:
            raise ValueError("omega must be strictly positive")
        if np.min(self.y[4]) <= eps_pos:
            raise ValueError("b must be strictly positive")
        return self


class Forcing:
    """Optional prescribed sources (F_v, F_omega, F_b).

    Either fixed arrays or a callback ``func(t) -> (fv, fom, fb)``
    returning raw arrays (each entry may be None).  F_v need not be
    divergence-free: it is injected before the Leray projection.
    """

    def __init__(self, f_v=None, f_omega=None, f_b=None, func=None):
        self._static = (f_v, f_omega, f_b)
        self._func = func

    def __call__(self, t):
        if self._func is not None:
            return self._func(t)
        return self._static


def _strain_sq(D):
    """|D|^2 pointwise from the six entries (11, 22, 33, 12, 13, 23) of
    the symmetric rate-of-strain tensor."""
    return (D[0] ** 2 + D[1] ** 2 + D[2] ** 2
            + 2.0 * (D[3] ** 2 + D[4] ** 2 + D[5] ** 2))


class TendencyKernel:
    """Fused evaluator of all three right-hand sides in spectral form.

    Every call transforms the same 17 fields to physical space and the
    same 14 products (17 with a velocity forcing) back.  A spatially
    uniform state without forcing skips the transforms: the FFT of a
    constant field is exact, so the result is bitwise identical to the
    full path.
    """

    def __init__(self, grid: TorusGrid, params: ModelParams, eps_pos=1e-10):
        self.grid = grid
        self.params = params
        self.eps_pos = eps_pos

    def __call__(self, y_hat, t=0.0, forcing=None):
        g = self.grid
        p = self.params
        vhat, what, bhat = y_hat[:3], y_hat[3], y_hat[4]

        if (forcing is None and not np.any(vhat)
                and ops.is_constant_hat(y_hat[3:])):
            # spatially uniform state: the reaction ODEs are the whole
            # dynamics
            om = float(what[0, 0, 0].real) / g.npoints
            if not np.isfinite(om) or om <= self.eps_pos:
                raise NonPositiveOmega(
                    f"min(omega) = {om:.3e} at t = {t:.6g}; cannot form b/omega")
            bm = float(bhat[0, 0, 0].real) / g.npoints
            out = np.zeros((5,) + g.spectral_shape, dtype=complex)
            out[3, 0, 0, 0] = -p.kappa2 * om * om * g.npoints
            out[4, 0, 0, 0] = -bm * om * g.npoints
            return out

        # one batched inverse transform: omega, b, grad omega, grad b, v, D
        phys = g.irfft(np.stack([what, bhat, *ops.grad_hat(g, what),
                                 *ops.grad_hat(g, bhat), *vhat,
                                 *ops.sym_grad_hat(g, vhat)]))
        omega, b = phys[0], phys[1]
        grad_w, grad_b, v, D = phys[2:5], phys[5:8], phys[8:11], phys[11:17]

        om_min = float(np.min(omega))
        if not np.isfinite(om_min) or om_min <= self.eps_pos:
            raise NonPositiveOmega(
                f"min(omega) = {om_min:.3e} at t = {t:.6g}; cannot form b/omega")
        mu = b / omega

        f_v = f_om = f_b = None
        if forcing is not None:
            f_v, f_om, f_b = forcing(t)

        # fused physical products -> one batched forward transform
        s_om = -p.kappa2 * omega * omega
        if f_om is not None:
            s_om = s_om + f_om
        s_b = -b * omega
        if f_b is not None:
            s_b = s_b + f_b
        s_b = s_b + p.kappa4 * mu * _strain_sq(D)

        Gw = np.zeros((3,) + g.resolution)
        Gw -= omega * v
        Gw += p.kappa1 * mu * grad_w
        Gb = np.zeros((3,) + g.resolution)
        Gb -= b * v
        Gb += p.kappa3 * mu * grad_b
        cv = p.c_v
        T = np.empty((6,) + g.resolution)
        T[0] = cv * mu * D[0] - v[0] * v[0]
        T[1] = cv * mu * D[1] - v[1] * v[1]
        T[2] = cv * mu * D[2] - v[2] * v[2]
        T[3] = cv * mu * D[3] - v[0] * v[1]
        T[4] = cv * mu * D[4] - v[0] * v[2]
        T[5] = cv * mu * D[5] - v[1] * v[2]
        fstack = [s_om, s_b, *Gw, *Gb, *T]
        if f_v is not None:
            fstack.extend(np.asarray(f_v))

        spec = g.rfft(np.stack(fstack))
        spec *= g.dealias_mask
        Gw, Gb, T = spec[2:5], spec[5:8], spec[8:14]

        out = np.zeros((5,) + g.spectral_shape, dtype=complex)
        ik1, ik2, ik3 = (1j * g.k[0], 1j * g.k[1], 1j * g.k[2])
        out[3] = spec[0]
        out[4] = spec[1]
        out[3] += ik1 * Gw[0] + ik2 * Gw[1] + ik3 * Gw[2]
        out[4] += ik1 * Gb[0] + ik2 * Gb[1] + ik3 * Gb[2]
        out[0] = ik1 * T[0] + ik2 * T[3] + ik3 * T[4]
        out[1] = ik1 * T[3] + ik2 * T[1] + ik3 * T[5]
        out[2] = ik1 * T[4] + ik2 * T[5] + ik3 * T[2]
        if f_v is not None:
            out[:3] += spec[14:]
        ops.leray_hat(g, out[:3])
        return out


def eddy_viscosity(state: State, eps_pos=0.0) -> np.ndarray:
    """Pointwise eddy viscosity mu = b/omega."""
    om_min = float(np.min(state.omega))
    if om_min <= eps_pos:
        raise NonPositiveOmega(f"min(omega) = {om_min:.3e}")
    return state.b / state.omega


def evaluate_tendency(state: State, params: ModelParams, forcing=None) -> np.ndarray:
    """All three right-hand sides at once, as one physical array of
    shape (5, N1, N2, N3) with rows (dv1, dv2, dv3, domega, db)."""
    g = state.grid
    kernel = TendencyKernel(g, params)
    return g.irfft(kernel(g.rfft(state.y), state.t, forcing))


def energy_flux(state: State, params: ModelParams):
    """Instantaneous integral rates (dE_kin, dB_mass, coupling):

    dE_kin  = -c_v (mu D(v), D(v))          [d/dt of kinetic energy]
    dB_mass = -(b om, 1) + k4 (mu|D(v)|^2, 1)  [d/dt of the b integral]
    coupling = -(b om, 1)

    With c_v = kappa4 the production term cancels the viscous loss and
    dE_kin + dB_mass = coupling.
    """
    g = state.grid
    mu = eddy_viscosity(state)
    D = g.irfft(ops.sym_grad_hat(g, g.rfft(state.v)))
    visc = ops.integral(g, mu * _strain_sq(D))
    bw = ops.integral(g, state.b * state.omega)
    return (-params.c_v * visc, -bw + params.kappa4 * visc, -bw)
