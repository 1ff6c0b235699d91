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
from .errors import BlowUp, PositivityViolation, require_finite

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


def _speed_and_mu_max(y):
    """max |v| and max mu = b/omega of a physical (5, ...) state."""
    return float(np.max(np.abs(y[:3]))), float(np.max(y[4] / y[3]))


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
    tendencies and the stage input, on the kept block and reused on
    every step, so it is not re-entrant.  check() is the one guard of a
    physical (5, N1, N2, N3) state; advance runs it on the state that
    the first kernel call of each step after the first hands
    first_stage's inspect.  A kernel call whose omega is at or below the
    floor raises the kernel's PositivityViolation at its stage time.
    budget is the one given plus the RK4 quadrature of the kernel's
    energy_rate over the steps made."""

    def __init__(self, grid, params, forcing=None, budget=0.0):
        self.grid = grid
        self.forcing = forcing
        self.budget = budget
        self.kernel = TendencyKernel(grid, params)
        shape = (5,) + grid.kept_shape
        self._k = np.empty((4,) + shape, dtype=complex)
        self._stage = np.empty(shape, dtype=complex)

    def _stage_input(self, y_hat, c, k):
        """y_hat + c k in the stage buffer."""
        np.multiply(c, k, out=self._stage)
        return np.add(y_hat, self._stage, out=self._stage)

    def _add_forcing(self, t, out):
        """out + forcing(t) in out; the forcing is only read."""
        if self.forcing is not None:
            f = np.asarray(self.forcing(t))
            # another shape could broadcast silently
            if f.shape != out.shape:
                raise ValueError(f"forcing at t = {t:.6g} is not a kept-block "
                                 f"spectrum of shape {out.shape}")
            np.add(out, f, out=out)
        return out

    def first_stage(self, y_hat, t, inspect=None):
        """The kernel's tendency at (y_hat, t), the first of a step, in
        the first stage buffer, without the forcing; every step begins
        with it.  inspect, when given, receives the physical state of
        y_hat as the kernel's inspect hook does, before the kernel reads
        it."""
        self.kernel(y_hat, t, out=self._k[0], inspect=inspect)
        self._rate = self.kernel.energy_rate

    def finish_step(self, y_hat, t, dt):
        """Complete the RK4 step from t that first_stage began: add the
        forcing to the first stage, make the other three and advance
        y_hat by dt in place; return it."""
        k1, k2, k3, k4 = self._k
        self._add_forcing(t, k1)
        # the stage rates' ((C1 + 2 C2) + 2 C3) + C4, summed in _rate
        for c, k, out, tc, w in ((0.5 * dt, k1, k2, t + 0.5 * dt, 2.0),
                                 (0.5 * dt, k2, k3, t + 0.5 * dt, 2.0),
                                 (dt, k3, k4, t + dt, 1.0)):
            self.kernel(self._stage_input(y_hat, c, k), tc, out=out)
            self._rate += w * self.kernel.energy_rate
            self._add_forcing(tc, out)
        self.budget += dt / 6.0 * self._rate
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

    def check(self, y, t):
        """Check the physical state y, of shape (5, N1, N2, N3), reached
        at t; return max |v| and max mu, which the next step size
        needs."""
        if not np.all(np.isfinite(y)):
            raise BlowUp(f"non-finite field values at t = {t:.6g}", t=t)
        om_min = float(np.min(y[3]))
        b_min = float(np.min(y[4]))
        if om_min <= POSITIVITY_FLOOR or b_min <= POSITIVITY_FLOOR:
            raise PositivityViolation(
                f"min(omega) = {om_min:.3e}, min(b) = {b_min:.3e} "
                f"at or below floor {POSITIVITY_FLOOR:.1e} at t = {t:.6g}",
                t=t)
        return _speed_and_mu_max(y)


def advance(state: State, t_end: float, params: ModelParams,
            control: StepControl, callbacks=(), forcing=None) -> State:
    """March from state.t to exactly t_end.

    The state is checked in physical space, and the march starts from a
    copy of state.spectrum(), its kept block of the 2/3 rule: y_hat when
    set, else y projected once.  callbacks: (cadence, callable) pairs,
    cadence an integer >= 1; each callable receives the freshly accepted
    State on steps 1, 1+cadence, 1+2*cadence, ...  Its y and y_hat, and
    those of the returned state, are read-only, so that a march from a
    state advance handed out continues from it bit for bit.  Their
    budget is state.budget plus the RK4 stage quadrature of the
    kernel's energy_rate over the steps made.  A Forcing's spectrum is
    added at each stage time; the budget leaves it out.

    Every step begins with the same first kernel call.  Each accepted
    state is checked, and handed to the callbacks, on the physical
    state that this call passes its inspect hook: the kernel's inverse
    transform, or the k = 0 means of a uniform state, which is not
    transformed.  Step 0's call has no inspect hook, since its state
    was checked in physical space; the last state is checked on the
    inverse transform of the returned state.  A stage whose omega is at
    or below the floor raises the kernel's PositivityViolation, whose t
    is that stage's time.

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
    m = _Marcher(g, params, forcing, state.budget)
    t = state.t
    vmax, mumax = m.check(state.y, t)
    y = state.spectrum().copy()
    nstep = 0
    alarm = None
    cb_due = False
    handed = None

    def guard(phys):
        # the state y reached at t; the kernel overwrites phys once this
        # returns
        nonlocal vmax, mumax, handed
        vmax, mumax = m.check(phys, t)
        if cb_due:
            handed = phys.copy()

    def run_callbacks(phys):
        # fresh arrays, so callbacks may keep the state
        y_hat = y.copy()
        phys.flags.writeable = y_hat.flags.writeable = False
        snap = State(g, phys, t, y_hat)
        snap.budget = m.budget
        for every, fn in cbs:
            if (nstep - 1) % every == 0:
                fn(snap)

    try:
        while t < t_end:
            # step 0's state was checked in physical space above
            m.first_stage(y, t, guard if nstep else None)
            if cb_due:
                run_callbacks(handed)
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
            y = m.finish_step(y, t, dt)
            t = t_end if last else t + dt
            nstep += 1
            cb_due = any((nstep - 1) % every == 0 for every, _ in cbs)
        phys = g.irfft(y)
        m.check(phys, t)
        if cb_due:
            run_callbacks(phys.copy())
    except (PositivityViolation, BlowUp) as exc:
        if alarm is None:
            raise
        raise type(exc)(f"{exc}; {alarm}", t=exc.t) from exc
    phys.flags.writeable = y.flags.writeable = False
    final = State(g, phys, t, y)
    final.budget = m.budget
    return final
