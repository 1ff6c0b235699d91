"""Runtime norm monitors and their CSV stream.

Each record stores the measured norm aggregates X0..X3, extrema,
selected norms, a discrete energy-identity pair, and every envelope
value with its signed margin (positive margin = bound satisfied).

The energy pair checks the semi-discrete energy budget

    d/dt (|b|_1 + 1/2 |v|_2^2)
        = -(b omega, 1) + (kappa4 - c_v) (mu |D(v)|^2, 1)

between consecutive samples, for every ModelParams: energy_lhs is the
backward difference of the left side's energy, and energy_rhs the
interval average of the right side, (budget - previous budget)/dt from
the State.budget that advance accumulates by the RK4 stage quadrature
of the kernel's own integrands.  The two agree to the scheme's fourth
order, and to roundoff while v = 0.  Both entries are zero on the
first record, and on a record whose t does not follow the previous
one's.  A forcing is outside the budget, so the pair covers the
unforced system.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .. import ops
from ..envelopes import EnvelopeSet


@dataclass
class MonitorRecord:
    t: float
    x0: float
    x1: float
    x2: float
    x3: float
    min_omega: float
    max_omega: float
    min_b: float
    v_l2: float
    b_l1: float
    omega_l2: float
    energy_lhs: float
    energy_rhs: float
    env_omega_lower: float
    env_omega_upper: float
    env_b_lower: float
    env_v_l2: float
    env_b_l1: float
    margin_omega_lower: float
    margin_omega_upper: float
    margin_b_lower: float
    margin_v_l2: float
    margin_b_l1: float


FIELD_NAMES = tuple(f.name for f in dataclasses.fields(MonitorRecord))


class Monitor:
    """Accumulates MonitorRecords from sampled states.

    bounds come from the data at time t0, so the envelopes are evaluated
    at t - t0; a record's t is the state's own.
    """

    def __init__(self, bounds, t0=0.0):
        self.env = EnvelopeSet(bounds)
        self.t0 = t0
        self.records = []
        # (t, energy, budget) of the previous sample
        self._last = None

    def sample(self, state):
        """Record one state.  X1..X3 and the L2 norms are Plancherel sums
        over state.spectrum(), the kept block, which for the states
        advance hands out is the evolved spectrum itself; the extrema
        and L1 terms come from the physical fields."""
        g = state.grid
        env = self.env
        fhat = state.spectrum()
        rows = ops.l2sq_hat_rows(g, fhat, (0, 1, 2, 3))
        l2sq = rows[0]
        x1, x2, x3 = sum(rows[1]), sum(rows[2]), sum(rows[3])
        v_l2 = float(np.sqrt(l2sq[0] + l2sq[1] + l2sq[2]))
        omega_l2 = float(np.sqrt(l2sq[3]))
        b_l1 = ops.lp_norm(g, state.y[4], 1)

        t = state.t
        energy = b_l1 + 0.5 * v_l2**2
        lhs = rhs = 0.0
        if self._last is not None and t > self._last[0]:
            t_prev, e_prev, budget_prev = self._last
            lhs = (energy - e_prev) / (t - t_prev)
            rhs = (state.budget - budget_prev) / (t - t_prev)
        self._last = (t, energy, state.budget)

        tau = t - self.t0
        e_ol = float(env.omega_lower(tau))
        e_ou = float(env.omega_upper(tau))
        e_bl = float(env.b_lower(tau))
        e_v = float(env.v_l2_envelope(tau)) if env.bounds.large_kappa2 else np.nan
        e_b1 = float(env.b_l1_upper(tau, "min"))
        min_omega = float(np.min(state.y[3]))
        max_omega = float(np.max(state.y[3]))
        min_b = float(np.min(state.y[4]))
        rec = MonitorRecord(
            t=t,
            x0=v_l2**2 + b_l1**2,
            x1=x1, x2=x2, x3=x3,
            min_omega=min_omega,
            max_omega=max_omega,
            min_b=min_b,
            v_l2=v_l2,
            b_l1=b_l1,
            omega_l2=omega_l2,
            energy_lhs=lhs,
            energy_rhs=rhs,
            env_omega_lower=e_ol,
            env_omega_upper=e_ou,
            env_b_lower=e_bl,
            env_v_l2=e_v,
            env_b_l1=e_b1,
            margin_omega_lower=min_omega - e_ol,
            margin_omega_upper=e_ou - max_omega,
            margin_b_lower=min_b - e_bl,
            margin_v_l2=e_v - v_l2,
            margin_b_l1=e_b1 - b_l1,
        )
        self.records.append(rec)
        return rec

    def finalize(self):
        """The records: every sample fills in its own energy pair."""
        return self.records


def records_to_csv(records) -> str:
    lines = [",".join(FIELD_NAMES)]
    for rec in records:
        vals = dataclasses.astuple(rec)
        lines.append(",".join("%.17g" % v for v in vals))
    return "\n".join(lines) + "\n"


def write_csv(path, records):
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))
