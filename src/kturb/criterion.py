"""Global-existence criterion built on the closed-form envelopes.

The central object is the margin

    margin(t) = mu_min(t) - C * Z0(t)

for a user-supplied constant C > 0; the solution is certified global on
[0, T) when the margin stays positive there.  Two closed-form sufficient
conditions (z1, z2) and the auxiliary supremum a0 are also evaluated.

Infinite horizons are handled analytically: in the rescaled clock
s = 1 + kappa2*omega_max*t every Z0 term is dominated by an expression
c * s^p * exp(-q*beta*s^r) with r = 2 - 1/kappa2 > 0, each of which is
monotone decreasing beyond an explicit peak s* = (p/(q*beta*r))^{1/r}.
Once the summed dominations drop below mu_min at some finite s, the
margin is provably positive for all later times and only the finite
range needs grid sampling.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .envelopes import (DataBounds, EnvelopeSet, coeff_a, decay_exponent,
                        geometric_times)
from .errors import InconclusiveTail, require_finite

# the finite range sampled when locating suprema, before the analytic
# tail takes over; every range is sampled on geometric_times' default
# grid t_j = 1.01^j - 1
SUP_HORIZON = 1.0e4


@dataclass
class CriterionConfig:
    """Knobs of the criterion evaluation.

    c_omega_kappa is the undetermined positive constant multiplying Z0;
    every report echoes the value used, since any verdict is conditional
    on it.  horizon may be math.inf.
    """

    c_omega_kappa: float = 1.0
    horizon: float = math.inf

    def __post_init__(self):
        require_finite(self, skip=("horizon",))
        if self.c_omega_kappa <= 0:
            raise ValueError("c_omega_kappa must be positive")
        if not self.horizon >= 0:
            raise ValueError(f"horizon must be nonnegative or inf, got "
                             f"{self.horizon}")


@dataclass
class CriterionReport:
    holds: bool
    first_violation_t: Optional[float]
    margin_samples: List[Tuple[float, float]]
    c_omega_kappa: float
    horizon: float
    a0: Optional[float] = None
    z1_holds: Optional[bool] = None
    z2_holds: Optional[bool] = None


def margin(t, bounds: DataBounds, config: CriterionConfig):
    """mu_min(t) - c_omega_kappa * Z0(t); positive margin certifies
    existence up to t."""
    bounds.require_large_kappa2()
    return EnvelopeSet(bounds)._terms(t).margin(config.c_omega_kappa)


def _out_of_range(term, t):
    at = "" if t is None else f" at t = {t:.12g}"
    return InconclusiveTail(f"the {term}{at} is out of floating-point range")


def _finite(term, t, value):
    """value, or InconclusiveTail naming term when it is inf or NaN.  The
    closed forms run in float64 under np.errstate(all="ignore"), so an
    overflow or a division by zero reaches this check as inf or NaN."""
    if not math.isfinite(value):
        raise _out_of_range(term, t)
    return value


def _log(x):
    """math.log, or -inf for an x that underflowed to 0, for _finite."""
    return math.log(x) if x > 0.0 else -math.inf


class _TailModel:
    """Per-term dominations of C*Z0 in the clock s = 1 + k2*om_max*t.

    Each term is c * s^p * exp(-q*beta*(s^r - 1)) evaluated in log space,
    valid for s >= 1, together with its peak location s*.  a_terms holds
    the (K0, p, q) majorants of the Y2-dependent constituents of a(t)
    that compute_a0 bounds its tail with.
    """

    def __init__(self, env, c_omega_kappa):
        b = env.bounds
        k2 = b.kappa2
        self.r = 2.0 - 1.0 / k2
        cp2, om2 = np.float64(b.c_p)**2, np.float64(b.omega_max)**2
        self.beta = beta = k2 * b.b_min / (cp2 * om2 * (2.0 * k2 - 1.0))
        # inf or NaN may hide a moderate beta (squares out of range are refused
        # too); an underflowed 0 only overstates Z0, and peak_s rejects it
        if not (0.0 < cp2 < math.inf and 0.0 < om2 < math.inf
                and beta < math.inf):
            raise _out_of_range("tail decay rate beta", 0.0)
        self.log_m0 = _log(b.b_min / b.omega_max)
        self.rho = rho = np.float64(b.omega_min) / b.omega_max
        t0 = env._terms(0.0)  # clock 1: bmax = M, omega lower = omega_min
        self.M = t0.bmax
        # (K0, p, q): for s >= 1 each Z0 term K(t) Y2^q is at most
        # K0 Y0^q s^p e^{-q beta (s^r - 1)} with K0 = K(0); the b-mass term
        # is at most M (rho s)^{-1/k2}.  With Y0 = 0 only that term is left.
        table = [("b-mass envelope", t0.bmax, -1.0 / k2, 0.0)]
        if b.lap_sum > 0:
            table += [("Z0 coefficient A", t0.A, 0.0, 0.25),
                      ("Z0 coefficient B", t0.B, 2.0, 0.5),
                      ("Z0 coefficient C", t0.C, 3.0, 1.0),
                      ("Z0 coefficient D", t0.D, 3.0, 1.5)]
        # (log c, p, q) for C*Z0 <= sum of c * s^p * e^{-q beta (s^r - 1)},
        # and the a(t) terms: a Z0 term over Y2^{1/4}, times s^{1/k2 - 1}
        self.terms, self.a_terms = [], []
        for name, K0, p, q in table:
            if _finite(name, 0.0, K0) == 0.0:  # no majorant to add
                continue
            extra = q * math.log(b.lap_sum) if q > 0.0 else -_log(rho) / k2
            logc = _log(c_omega_kappa * K0) + extra
            self.terms.append((_finite(f"{name} majorant", 0.0, logc), p, q))
            if q > 0.25:
                self.a_terms.append((K0, 1.0 / k2 + (p - 1.0), q - 0.25))

    def log_term(self, logc, p, q, s):
        val = logc + p * math.log(s)
        if q > 0.0:
            val -= decay_exponent(q * self.beta, np.float64(s), self.r)
        return val

    def log_mu_min(self, s):
        return self.log_m0 + (self.r - 1.0) * math.log(s)

    def peak_s(self, p, q):
        """Peak of s^p * exp(-q*beta*s^r) for p, q > 0."""
        peak = (p / (q * self.beta * self.r)) ** (1.0 / self.r)
        return _finite(f"peak of a Z0 term (r = 2 - 1/kappa2 = {self.r:.3g})",
                       None, peak)

    def ratio_peak_s(self, p, q):
        """Peak of (term / mu_min)(s); the ratio decreases beyond it.  A
        power-only ratio (q = 0) that grows has none: InconclusiveTail."""
        pr = p - (self.r - 1.0)
        if pr <= 0.0:
            return 1.0
        if q == 0.0:
            raise InconclusiveTail(
                "a Z0 term does not decay relative to mu_min")
        return self.peak_s(pr, q)

    def ratio_sum(self, s):
        lm = self.log_mu_min(s)
        tot = 0.0
        for logc, p, q in self.terms:
            tot += math.exp(min(self.log_term(logc, p, q, s) - lm, 700.0))
        return tot

    def certified_from(self, s_start):
        """Smallest sampled s >= s_start beyond which margin > 0 is
        guaranteed, or raise InconclusiveTail."""
        s = max(s_start, 1.0, *(self.ratio_peak_s(p, q)
                                for _, p, q in self.terms))
        while not self.ratio_sum(s) < 1.0:
            if s > 1e200:
                raise InconclusiveTail(
                    "tail domination not achieved within the searchable range")
            s *= 2.0
        return s


def _brentq(f, xpre, xcur, maxiter=100, fpre=None, fcur=None):
    """Root of f between xpre and xcur by Brent's method, step for step as
    scipy.optimize.brentq(f, xpre, xcur, rtol=1e-10) runs it in C, so the
    root and the evaluations are scipy's bit for bit.  fpre and fcur,
    when given, are f's values at the two ends, which are then not read
    again: the evaluations are scipy's without its first two.  Ends of
    one sign raise ValueError and the iteration cap RuntimeError, as in
    scipy; a NaN value raises InconclusiveTail."""
    xtol, rtol = 2e-12, 1e-10
    def fn(x, fx=None):
        if fx is None:
            fx = f(x)
        if fx != fx:
            raise _out_of_range("existence margin", x)
        return fx

    fpre, fcur = fn(xpre, fpre), fn(xcur, fcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # < 0 is C's signbit for values that are neither 0 nor NaN
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        # C's inf or NaN from a zero divisor fails the step test: bisect
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fn(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def _first_root(ts, vals, f):
    """First t with f <= 0 given grid samples; bisect the bracketing
    interval when the sign change is interior.  The samples come from the
    array path and f from the scalar one, which can differ in the last bit,
    so f is read at the bracket, and _brentq is handed those values.  A
    NaN sample (an out-of-range term times 0) before the first sample <= 0
    raises InconclusiveTail; -inf is a violation."""
    bad = np.nonzero(~(vals > 0.0))[0]
    if bad.size == 0:
        return None
    j = int(bad[0])
    if np.isnan(vals[j]):
        raise _out_of_range("existence margin", float(ts[j]))
    if j == 0:
        return float(ts[0])
    a, b = float(ts[j - 1]), float(ts[j])
    if vals[j] == 0.0:
        return b
    fa = f(a)
    if fa <= 0.0:
        return a
    fb = f(b)
    if fb > 0.0:
        return b
    return _brentq(f, a, b, fpre=fa, fcur=fb)


def _check_horizon(bounds, config, tail):
    """The finite range the margin is sampled on: config.horizon, or for an
    infinite one the range beyond which the tail model certifies it."""
    if not math.isinf(config.horizon):
        return config.horizon
    k2om = np.float64(bounds.kappa2) * bounds.omega_max
    s_cert = tail.certified_from(1.0 + k2om * SUP_HORIZON)
    end = (s_cert - 1.0) / k2om
    return _finite("end of the sampled margin range", end, end)


def _a0_horizon(bounds, tail):
    """The finite range a(t) is sampled on, stretched to cover every
    bound-term peak."""
    horizon = SUP_HORIZON
    for _, p, q in tail.a_terms:
        horizon = max(horizon, (tail.peak_s(p, q) - 1.0)
                      / (np.float64(bounds.kappa2) * bounds.omega_max))
    return _finite("end of the sampled a(t) range", horizon, horizon)


def _a0_finite(bounds):
    """For 1/2 < kappa2 < 1 with nonzero initial velocity a(t) grows
    without bound and a0 is infinite."""
    return not (bounds.kappa2 < 1.0 and bounds.v0_l2sq > 0.0)


def _joint_times(horizons):
    """The geometric grid of the longest horizon with each shorter horizon
    appended, and per horizon the positions in it of its own grid
    geometric_times(h): the longer grid's samples below h, then h."""
    grid = geometric_times(max(horizons))
    ts, picks = grid, []
    for h in horizons:
        if h == grid[-1]:
            picks.append(slice(None, grid.size))
        else:
            below = np.arange(np.searchsorted(grid, h))
            picks.append(np.append(below, ts.size))
            ts = np.append(ts, h)
    return ts, picks


def _verdict(env, config, ts, vals):
    """The criterion report from the margin samples vals at times ts."""
    def f(t):
        return float(margin(t, env.bounds, config))

    root = _first_root(ts, vals, f)
    return CriterionReport(
        holds=root is None,
        first_violation_t=root,
        margin_samples=list(zip(ts.tolist(), vals.tolist())),
        c_omega_kappa=config.c_omega_kappa,
        horizon=config.horizon,
    )


def _fminbound(func, a, b, xatol, maxfun=500):
    """(x, func(x)) at the minimum of func on [a, b] by bounded Brent
    search, step for step as scipy.optimize.minimize_scalar(method=
    "bounded") runs it (golden-section and parabolic steps), so x, the
    value and the evaluations are scipy's bit for bit.  A NaN value is
    never taken as a better point; a NaN first value is returned."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        # rat is never NaN: a NaN p or q fails the parabola test
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _a0(env, tail, config, ts, vals):
    """a0 from the a(t) samples vals at times ts: the grid maximum, refined
    by a bounded Brent search around it, against the analytic tail bound.
    argmax lands on a NaN or infinite sample, if there is one; a NaN in
    the search leaves the grid maximum in place."""
    b = env.bounds
    k2 = b.kappa2
    Cc = config.c_omega_kappa
    j = int(np.argmax(vals))
    best = float(_finite("a0 integrand a(t)", float(ts[j]), vals[j]))
    lo = float(ts[max(j - 1, 0)])
    hi = float(ts[min(j + 1, ts.size - 1)])
    if hi > lo:
        _, fmin = _fminbound(lambda t: -float(env.a(t, Cc)), lo, hi,
                             xatol=1e-12 * max(hi, 1.0))
        best = max(best, -fmin)

    # analytic tail: every constituent is decreasing past the grid end,
    # so the tail supremum is bounded by the majorants evaluated there
    s_end = 1.0 + k2 * b.omega_max * float(ts[-1])
    a_end = _finite("Z0 coefficient A", float(ts[-1]), coeff_a(
        b.v0_l2sq, tail.M * tail.rho ** (-1.0 / k2) * s_end ** (-1.0 / k2)))
    tail_sup = 2.0 * Cc * s_end ** (1.0 / k2 - 1.0) * a_end
    for K0, p, q in tail.a_terms:
        logc = _log(2.0 * Cc * K0) + q * math.log(b.lap_sum)
        tail_sup += math.exp(min(tail.log_term(logc, p, q, s_end), 700.0))
    return float(max(best, tail_sup))


# Overflow and division by zero give inf or NaN, which _finite reports as
# InconclusiveTail where the value is used, without numpy's warnings.
@np.errstate(all="ignore")
def check_glob_add(bounds: DataBounds, config: CriterionConfig) -> CriterionReport:
    """Sample the margin over [0, horizon) and report the verdict.

    With horizon = inf the finite sampling range is chosen so that the
    analytic tail model certifies positivity beyond it.
    """
    bounds.require_large_kappa2()
    env = EnvelopeSet(bounds)
    tail = (_TailModel(env, config.c_omega_kappa)
            if math.isinf(config.horizon) else None)
    ts = geometric_times(_check_horizon(bounds, config, tail))
    return _verdict(env, config, ts,
                    env._terms(ts).margin(config.c_omega_kappa))


@np.errstate(all="ignore")
def compute_a0(bounds: DataBounds, config: CriterionConfig) -> float:
    """sup over t >= 0 of

        2 C s^{1/kappa2 - 1} (A + B Y2^{1/4} + C Y2^{3/4} + D Y2^{5/4})

    For 1/2 < kappa2 < 1 with nonzero initial velocity the integrand
    grows without bound and the supremum is infinite; math.inf is
    returned rather than a truncated value.
    """
    bounds.require_large_kappa2()
    if not _a0_finite(bounds):
        return math.inf
    env = EnvelopeSet(bounds)
    tail = _TailModel(env, config.c_omega_kappa)
    ts = geometric_times(_a0_horizon(bounds, tail))
    return _a0(env, tail, config, ts, env._terms(ts).a(config.c_omega_kappa))


@np.errstate(all="ignore")
def full_report(bounds: DataBounds, config: CriterionConfig) -> CriterionReport:
    """check_glob_add augmented with a0 and the corollary verdicts, from one
    tail model and one envelope table shared by the margin and a(t)."""
    bounds.require_large_kappa2()
    C = config.c_omega_kappa
    a0_finite = _a0_finite(bounds)
    env = EnvelopeSet(bounds)
    tail = (_TailModel(env, C)
            if math.isinf(config.horizon) or a0_finite else None)
    horizons = [_check_horizon(bounds, config, tail)]
    if a0_finite:
        horizons.append(_a0_horizon(bounds, tail))
    ts, picks = _joint_times(horizons)
    terms = env._terms(ts)
    cert, sup = picks[0], picks[-1]
    report = _verdict(env, config, ts[cert], terms.margin(C)[cert])
    report.a0 = (_a0(env, tail, config, ts[sup], terms.a(C)[sup])
                 if a0_finite else math.inf)
    lhs = bounds.b_min / bounds.omega_max
    report.z1_holds = lhs > 2.0 * C * (bounds.b0_l1 + 0.5 * bounds.v0_l2sq)
    report.z2_holds = (lhs > 0.0 if bounds.lap_sum == 0.0
                       else lhs > report.a0 * bounds.lap_sum**0.25)
    return report
