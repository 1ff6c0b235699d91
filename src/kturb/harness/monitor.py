"""Runtime norm monitors and their CSV stream.

Each record stores the measured norm aggregates X0..X3, extrema,
selected norms, a discrete energy-identity pair, and every envelope
value with its signed margin (positive margin = bound satisfied).

The energy pair approximates both sides of

    d/dt (|b|_1 + 1/2 |v|_2^2) = -(b omega, 1)

between consecutive samples: the left side by a backward difference,
which equals the interval average of the right side exactly for the
semi-discrete solution, and the right side by cubic interpolation of
the sampled coupling through up to four neighboring samples (filled in
by finalize(), since the interior rule needs the next sample).  The
interpolation keeps the defect at O(dt^3) or better; a plain trapezoid
would leave an O(dt^2) gap with a box-volume-sized constant.  Both
entries are zero on the first record.
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
    """Accumulates MonitorRecords from sampled states."""

    def __init__(self, bounds):
        self.env = EnvelopeSet(bounds)
        self.records = []
        self._times = []
        self._energies = []
        self._couplings = []

    def sample(self, state):
        """Record one state.  X1..X3 and the L2 norms are Plancherel sums
        over state.spectrum(), which for the states advance hands out is
        the evolved spectrum itself; the extrema and L1 terms come from
        the physical fields."""
        g = state.grid
        env = self.env
        fhat = state.spectrum()
        rows = ops.l2sq_hat_rows(g, fhat, (0, 1, 2, 3))
        l2sq = rows[0]
        x1, x2, x3 = sum(rows[1]), sum(rows[2]), sum(rows[3])
        v_l2 = float(np.sqrt(l2sq[0] + l2sq[1] + l2sq[2]))
        omega_l2 = float(np.sqrt(l2sq[3]))
        b_l1 = ops.lp_norm(g, state.y[4], 1)
        coupling = -ops.integral(g, state.y[4] * state.y[3])

        t = state.t
        energy = b_l1 + 0.5 * v_l2**2
        self._times.append(t)
        self._energies.append(energy)
        self._couplings.append(coupling)
        lhs = rhs = 0.0  # filled in by finalize()

        e_ol = float(env.omega_lower(t))
        e_ou = float(env.omega_upper(t))
        e_bl = float(env.b_lower(t))
        e_v = float(env.v_l2_envelope(t)) if env.bounds.large_kappa2 else np.nan
        e_b1 = float(env.b_l1_upper(t, "min"))
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
        """Fill in the energy-identity pair for every consecutive sample
        pair; safe to call repeatedly and after partial runs."""
        ts = np.asarray(self._times)
        es = np.asarray(self._energies)
        cs = np.asarray(self._couplings)
        n = ts.size
        for i in range(1, n):
            if ts[i] <= ts[i - 1]:
                continue
            dt = ts[i] - ts[i - 1]
            lo = max(0, i - 2)
            hi = min(n, i + 2)
            tt = ts[lo:hi] - ts[i - 1]  # shift for conditioning
            poly = np.polynomial.Polynomial.fit(
                tt, cs[lo:hi], deg=tt.size - 1).convert()
            integ = poly.integ()
            self.records[i].energy_lhs = (es[i] - es[i - 1]) / dt
            self.records[i].energy_rhs = float(integ(dt) - integ(0.0)) / dt
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
