"""Explicit time marching with CFL control and positivity guards.

Classical four-stage Runge-Kutta on the stacked spectral state
(v1, v2, v3, omega, b).  Steps that drive omega or b to the positivity
floor abort with PositivityViolation rather than clipping; clipped
fields would silently invalidate every envelope comparison downstream.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .dynamics import POSITIVITY_FLOOR, ModelParams, State, TendencyKernel
from .errors import (BlowUp, NonPositiveOmega, PositivityViolation,
                     require_finite)

# Classical RK4 is stable for real negative eigenvalues lambda with
# |lambda| dt <= 2.785 (Hairer & Wanner, Solving ODEs II, sec. IV.2);
# the diffusive step keeps a safety factor below that limit.
RK4_REAL_AXIS_LIMIT = 2.785
DIFFUSIVE_SAFETY = 0.9
# Courant number of the advective step limit
CFL_ADV = 0.4
# advance refuses a step size that would need more steps than this to
# reach t_end, or that no longer moves t
MAX_STEPS = 10**8


@dataclass
class StepControl:
    """Step-size policy."""

    dt_max: float
    dt_fixed: Optional[float] = None

    def __post_init__(self):
        require_finite(self)
        if self.dt_max <= 0:
            raise ValueError("dt_max must be positive")
        if self.dt_fixed is not None and self.dt_fixed <= 0:
            raise ValueError("dt_fixed must be positive")


def _speed_and_mu_max(phys):
    """max |v| and max mu of a physical (5, N1, N2, N3) state array."""
    return float(np.max(np.abs(phys[:3]))), float(np.max(phys[4] / phys[3]))


def _dt_from_arrays(grid, params, control, vmax, mumax):
    if control.dt_fixed is not None:
        return control.dt_fixed
    dt_adv = CFL_ADV * grid.min_spacing / max(vmax, 1e-12)
    dt_diff = DIFFUSIVE_SAFETY * RK4_REAL_AXIS_LIMIT / (
        params.c_diff * mumax * grid.k_sq_max)
    return min(control.dt_max, dt_adv, dt_diff)


def compute_dt(state: State, params: ModelParams, control: StepControl) -> float:
    """dt = min(dt_max, CFL_ADV h/|v|_inf,
    0.9 * 2.785 / (c_diff max mu k^2_max)), with k^2_max the largest
    dealiased |k|^2 of the grid."""
    return _dt_from_arrays(state.grid, params, control,
                           *_speed_and_mu_max(state.y))


class _Marcher:
    """Owns the spectral state between steps so fields are transformed
    once per step, not once per call.  It also owns the four RK4 stage
    tendencies and the stage input, reused on every step, so it is not
    re-entrant."""

    def __init__(self, grid, params, forcing=None):
        self.grid = grid
        self.params = params
        self.forcing = forcing
        self.kernel = TendencyKernel(grid, params)
        shape = (5,) + grid.spectral_shape
        self._k = np.empty((4,) + shape, dtype=complex)
        self._stage = np.empty(shape, dtype=complex)

    def _stage_input(self, y_hat, c, k):
        """y_hat + c k in the stage buffer."""
        np.multiply(c, k, out=self._stage)
        return np.add(y_hat, self._stage, out=self._stage)

    def _tendency(self, y_hat, t, out):
        """kernel(y_hat) + forcing(t) in out; the forcing is only read."""
        self.kernel(y_hat, t, out=out)
        if self.forcing is not None:
            f = np.asarray(self.forcing(t))
            # another shape could broadcast silently, and a mode off the
            # mask would corrupt the next stage's pruned inverse transform
            if f.shape != out.shape or np.any(f[:, ~self.grid.dealias_mask]):
                raise ValueError(f"forcing at t = {t:.6g} is not a spectrum "
                                 f"of shape {out.shape} on the 2/3 mask")
            np.add(out, f, out=out)
        return out

    def step_hat(self, y_hat, t, dt):
        """Advance y_hat by one RK4 step in place and return it."""
        tend = self._tendency
        k1, k2, k3, k4 = self._k
        try:
            tend(y_hat, t, k1)
            tend(self._stage_input(y_hat, 0.5 * dt, k1), t + 0.5 * dt, k2)
            tend(self._stage_input(y_hat, 0.5 * dt, k2), t + 0.5 * dt, k3)
            tend(self._stage_input(y_hat, dt, k3), t + dt, k4)
        except NonPositiveOmega as exc:
            raise PositivityViolation(
                f"stage evaluation failed during step from t = {t:.6g}: {exc}",
                t=t) from exc
        # y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), accumulated in k1
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(2.0, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(dt / 6.0, k1, out=k1)
        np.add(y_hat, k1, out=y_hat)
        ops.leray_hat(self.grid, y_hat[:3])
        return y_hat

    def guard(self, y_hat, t, physical=False):
        """Check the state y_hat reached at t; return (phys, vmax, mumax)
        with phys its physical fields and vmax, mumax what the next step
        size needs.  A spatially uniform state is checked on its k = 0
        coefficients without a transform, and phys is None, unless
        physical is set.  y_hat is not written: the transform consumes a
        copy in the stage buffer, which is free between steps."""
        g = self.grid
        if physical or not ops.is_uniform_state_hat(y_hat):
            np.copyto(self._stage, y_hat)
            phys = g.irfft(self._stage, dealiased=True)
            return (phys,) + self.check(phys, t)
        return (None,) + self.check(y_hat[:, 0, 0, 0].real / g.npoints, t)

    def check(self, phys, t):
        """Check physical values of the five fields (any trailing shape);
        return max |v| and max mu."""
        if not np.all(np.isfinite(phys)):
            raise BlowUp(f"non-finite field values at t = {t:.6g}", t=t)
        om_min = float(np.min(phys[3]))
        b_min = float(np.min(phys[4]))
        if om_min <= POSITIVITY_FLOOR or b_min <= POSITIVITY_FLOOR:
            raise PositivityViolation(
                f"min(omega) = {om_min:.3e}, min(b) = {b_min:.3e} "
                f"at or below floor {POSITIVITY_FLOOR:.1e} at t = {t:.6g}",
                t=t)
        return _speed_and_mu_max(phys)


def advance(state: State, t_end: float, params: ModelParams,
            control: StepControl, callbacks=(), forcing=None) -> State:
    """March from state.t to exactly t_end.

    The state is checked in physical space, then projected once onto the
    2/3 mask; the spectrum stays there.  callbacks: (cadence, callable)
    pairs, cadence an integer >= 1; each callable receives the freshly
    accepted State, with its spectrum as y_hat, on steps 1, 1+cadence,
    1+2*cadence, ...  A Forcing's spectrum is added at each stage time.

    A fixed dt above the RK4 real-axis limit 2.785/(c_diff max mu
    k2_max) of the current state raises a RuntimeWarning on the first
    such step, and a later PositivityViolation or BlowUp names that
    step.
    """
    cbs = list(callbacks)
    for every, _ in cbs:
        if not isinstance(every, numbers.Integral) or every < 1:
            raise ValueError(f"callback cadence {every!r} is not an int >= 1")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < state.t:
        raise ValueError("t_end must not precede state.t")
    if t_end == state.t:
        return state

    g = state.grid
    m = _Marcher(g, params, forcing)
    t = state.t
    vmax, mumax = m.check(state.y, t)
    y = g.rfft(state.y, dealiased=True)
    nstep = 0
    alarm = None
    try:
        while t < t_end:
            dt = _dt_from_arrays(g, params, control, vmax, mumax)
            if t + dt == t:
                raise ValueError(
                    f"dt = {dt:.3e} no longer advances t = {t:.6g}: it is "
                    f"below the float spacing of t, so no number of steps "
                    f"reaches t_end = {t_end:.6g}")
            if (t_end - t) / dt > MAX_STEPS:
                raise ValueError(
                    f"dt = {dt:.3e} at t = {t:.6g} would need more than "
                    f"{MAX_STEPS} steps to reach t_end = {t_end:.6g}")
            rate = params.c_diff * mumax * g.k_sq_max
            if (alarm is None and control.dt_fixed is not None
                    and dt * rate > RK4_REAL_AXIS_LIMIT):
                alarm = (f"fixed dt = {dt:.4g} exceeds the RK4 stability "
                         f"limit {RK4_REAL_AXIS_LIMIT / rate:.4g} = "
                         f"{RK4_REAL_AXIS_LIMIT}/(c_diff max mu k2_max) "
                         f"from step {nstep + 1} (t = {t:.6g}) on")
                warnings.warn(alarm, RuntimeWarning, stacklevel=2)
            # clip the final step to land on t_end exactly; the rounding
            # slack keeps accumulated float error from spawning a
            # degenerate step
            last = t + dt >= t_end - 1e-12 * dt
            if last:
                dt = t_end - t
            y = m.step_hat(y, t, dt)
            t = t_end if last else t + dt
            nstep += 1
            cb_due = any((nstep - 1) % every == 0 for every, _ in cbs)
            phys, vmax, mumax = m.guard(y, t, physical=cb_due)
            if cb_due:
                # phys is a fresh transform and y_hat a copy, so
                # callbacks may keep the state
                y_hat = y.copy()
                y_hat.flags.writeable = False
                snap = State(g, phys, t, y_hat)
                for every, fn in cbs:
                    if (nstep - 1) % every == 0:
                        fn(snap)
    except (PositivityViolation, BlowUp) as exc:
        if alarm is None:
            raise
        raise type(exc)(f"{exc}; {alarm}", t=exc.t) from exc
    return State(g, g.irfft(y.copy(), dealiased=True), t, y)
