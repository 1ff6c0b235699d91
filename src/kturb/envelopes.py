"""Closed-form decay envelopes for the model unknowns.

Every function here depends only on a handful of scalar statistics of
the initial data (DataBounds) and evaluates an explicit formula; no
simulation is involved.  Throughout, s(t) = 1 + kappa2 * omega_max * t
is the common clock set by the upper omega envelope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Kappa2TooSmall, require_finite


@dataclass
class DataBounds:
    """Scalar statistics of the initial data feeding the envelopes.

    b_min, omega_min, omega_max bound the initial scalars pointwise;
    b0_l1 and v0_l2sq are the initial L1 mass of b and squared L2 norm
    of v; lap_sum = |lap v0|_2^2 + |lap om0|_2^2 + |lap b0|_2^2; c_p is
    the Poincare constant of the box used in the velocity decay rate.

    The envelopes decay |v|_2 at rate mu_min/c_p^2.  With D = (grad v +
    grad v^T)/2 and div v = 0, |D|_2^2 = |grad v|_2^2/2, so the energy
    identity only gives d/dt |v|_2 <= -(c_v/(2 c^2)) mu_min |v|_2 with
    c = max L_i/(2 pi) the sharp Poincare constant.  The default c_p of
    extract_bounds is therefore sqrt(2/c_v) * max L_i/(2 pi).
    """

    b_min: float
    omega_min: float
    omega_max: float
    b0_l1: float
    v0_l2sq: float
    lap_sum: float
    kappa2: float
    c_p: float

    def __post_init__(self):
        require_finite(self)
        if not (0.0 < self.omega_min <= self.omega_max):
            raise ValueError("need 0 < omega_min <= omega_max")
        if self.b_min <= 0:
            raise ValueError("b_min must be positive")
        if self.b0_l1 < 0 or self.v0_l2sq < 0 or self.lap_sum < 0:
            raise ValueError("norm statistics must be nonnegative")
        if self.c_p <= 0:
            raise ValueError("c_p must be positive")
        if self.kappa2 <= 0:
            raise ValueError("kappa2 must be positive")

    @property
    def v0_l2(self):
        return math.sqrt(self.v0_l2sq)

    @property
    def large_kappa2(self):
        """kappa2 > 1/2, where the decay envelopes and the criterion exist."""
        return self.kappa2 > 0.5

    def require_large_kappa2(self):
        require_large_kappa2(self.kappa2)


def require_large_kappa2(kappa2):
    """The kappa2 gate, also for callers that hold no DataBounds yet."""
    if not kappa2 > 0.5:
        raise Kappa2TooSmall(
            f"kappa2 = {kappa2} but the decay envelopes and the "
            "existence criterion require kappa2 > 1/2")


# The coefficients A-D of Z0 as plain arithmetic on the b-mass envelope
# bmax and the omega lower envelope w: EnvelopeSet.coeff_* and _Terms apply
# them to float64 arrays and scalars, the criterion's a0 tail bound to A.
def coeff_a(v0_l2sq, bmax):
    return (v0_l2sq + bmax**2) ** 0.25


def coeff_b(bmax, w):
    return 1.0 + 1.0 / w + bmax / w + bmax / w**2


def coeff_c(bmax, w):
    return 1.0 / w + 1.0 / w**2 + bmax / w**2 + bmax / w**3


def coeff_d(w):
    return 1.0 / w**2 + 1.0 / w**3


def decay_exponent(rate, s, r):
    """rate * (s^r - 1) in float64 for s >= 1 and rate >= 0.  Where s^r
    overflows it is taken from logs, so it is inf only where its true value
    is; for a rate of 0 (underflowed) it is NaN there, for _finite."""
    sr = s ** r
    big = sr == np.inf  # any() on a scalar costs microseconds: test it as is
    if rate > 0.0 and (big.any() if big.ndim else big):
        with np.errstate(all="ignore"):
            return np.where(big, np.exp(np.log(rate) + r * np.log(s)),
                            rate * (sr - 1.0))[()]
    return rate * (sr - 1.0)


def geometric_times(horizon, delta=0.01):
    """Geometric sample grid t_j = (1+delta)^j - 1 covering [0, horizon],
    with the horizon appended as the final sample."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon == 0:
        return np.zeros(1)
    jmax = int(math.ceil(math.log1p(horizon) / math.log1p(delta)))
    t = np.expm1(np.arange(jmax + 1) * math.log1p(delta))
    return np.append(t[t < horizon], horizon)


class EnvelopeSet:
    """Bundle of the envelope functions for one DataBounds.

    All methods accept scalars or arrays of times t >= 0 and broadcast.
    """

    def __init__(self, bounds: DataBounds):
        self.bounds = bounds

    # -- helpers ----------------------------------------------------------

    def _t(self, t):
        """Checked times: a float (np.float64 included) as an np.float64
        scalar, so scalar calls skip the 0-d array machinery; anything
        else as a float array."""
        if isinstance(t, float):
            t = np.float64(t)
            negative = t < 0
        else:
            t = np.asarray(t, dtype=float)
            negative = np.any(t < 0)
        if negative:
            raise ValueError("envelope functions require t >= 0")
        return t

    def _clock(self, om, t):
        """1 + kappa2 * om * t; s(t) is the clock of om = omega_max."""
        return 1.0 + self.bounds.kappa2 * om * t

    def _s(self, t):
        return self._clock(self.bounds.omega_max, t)

    def _decay_exponent(self, s):
        """The bracket (1/c_p^2)(b_min/(omega_max^2 (2 kappa2 - 1)))
        (s^{2 - 1/kappa2} - 1) driving the v and Y2 decay; the float64
        squares are inf or 0 out of range, not an exception."""
        b = self.bounds
        rate = (b.b_min / (np.float64(b.omega_max)**2 * (2.0 * b.kappa2 - 1.0))
                / np.float64(b.c_p)**2)
        return decay_exponent(rate, s, 2.0 - 1.0 / b.kappa2)

    def _b_mass(self, clock):
        b = self.bounds
        num = b.b0_l1 + 0.5 * b.v0_l2sq
        return num / clock ** (1.0 / b.kappa2)

    def _omega_lower(self, t):
        return self.bounds.omega_min / self._clock(self.bounds.omega_min, t)

    def _y2(self, s):
        b = self.bounds
        return b.lap_sum * np.exp(-b.kappa2 * self._decay_exponent(s))

    def _mu_min(self, s):
        b = self.bounds
        return (b.b_min / b.omega_max) * s ** (1.0 - 1.0 / b.kappa2)

    def _terms(self, t):
        """The table of z0 and a(t) terms at times t, checked here."""
        return _Terms(self, self._t(t))

    # -- pointwise scalar envelopes ---------------------------------------

    def omega_lower(self, t):
        return self._omega_lower(self._t(t))

    def omega_upper(self, t):
        b = self.bounds
        return b.omega_max / self._s(self._t(t))

    def b_lower(self, t):
        b = self.bounds
        return b.b_min / self._s(self._t(t)) ** (1.0 / b.kappa2)

    def b_l1_upper(self, t, omega_choice="max"):
        """Decay bound on the L1 mass of b.

        omega_choice picks the rate constant in the denominator
        (1 + kappa2 * omega_choice * t)^{1/kappa2}; "max" is the faster
        (tighter) variant used inside the existence criterion, "min" the
        slower one that the a-priori estimate guarantees for measured
        norms.  Both are provided deliberately; see README.
        """
        b = self.bounds
        t = self._t(t)
        if omega_choice == "max":
            om = b.omega_max
        elif omega_choice == "min":
            om = b.omega_min
        else:
            raise ValueError("omega_choice must be 'min' or 'max'")
        return self._b_mass(self._clock(om, t))

    def mu_min(self, t):
        """Lower envelope of the eddy viscosity, b_lower/omega_upper."""
        return self._mu_min(self._s(self._t(t)))

    # -- energy-norm envelopes (need kappa2 > 1/2) ------------------------

    def v_l2_envelope(self, t):
        self.bounds.require_large_kappa2()
        return self.bounds.v0_l2 * np.exp(
            -self._decay_exponent(self._s(self._t(t))))

    def y2(self, t):
        """Envelope of the summed squared-laplacian energy."""
        self.bounds.require_large_kappa2()
        return self._y2(self._s(self._t(t)))

    # -- coefficient functions and the criterion aggregates ---------------

    def coeff_A(self, t):
        return coeff_a(self.bounds.v0_l2sq, self.b_l1_upper(t, "max"))

    def coeff_B(self, t):
        return coeff_b(self.b_l1_upper(t, "max"), self.omega_lower(t))

    def coeff_C(self, t):
        return coeff_c(self.b_l1_upper(t, "max"), self.omega_lower(t))

    def coeff_D(self, t):
        return coeff_d(self.omega_lower(t))

    def z0(self, t):
        """b_l1_upper(max) + A Y2^{1/4} + B Y2^{1/2} + C Y2 + D Y2^{3/2}."""
        return self._terms(t).z0()

    def a(self, t, c_omega_kappa):
        """2 C s^{1/kappa2 - 1} (A + B Y2^{1/4} + C Y2^{3/4} + D Y2^{5/4}),
        whose supremum over t >= 0 is the corollary's a0."""
        return self._terms(t).a(c_omega_kappa)


class _Terms:
    """Every envelope term that z0, a(t) and the criterion's margin read,
    built once at one set of checked times: the clock s, the "max" b-mass
    envelope bmax, Y2, q = Y2^{1/4}, and the Z0 coefficients A-D from the
    omega lower envelope."""

    def __init__(self, env, t):
        b = env.bounds
        b.require_large_kappa2()
        self.env = env
        self.s = s = env._s(t)
        self.bmax = bmax = env._b_mass(s)
        w = env._omega_lower(t)
        self.y = y = env._y2(s)
        self.q = y**0.25
        self.A = coeff_a(b.v0_l2sq, bmax)
        self.B = coeff_b(bmax, w)
        self.C = coeff_c(bmax, w)
        self.D = coeff_d(w)

    def z0(self):
        q, y = self.q, self.y
        return (self.bmax + self.A * q + self.B * q**2 + self.C * y
                + self.D * y**1.5)

    def a(self, c_omega_kappa):
        q = self.q
        inner = self.A + self.B * q + self.C * q**3 + self.D * q**5
        return (2.0 * c_omega_kappa
                * self.s ** (1.0 / self.env.bounds.kappa2 - 1.0) * inner)

    def margin(self, c_omega_kappa):
        """mu_min - c_omega_kappa * z0."""
        return self.env._mu_min(self.s) - c_omega_kappa * self.z0()
