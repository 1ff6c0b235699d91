"""Reference computations the benchmark checks kturb's outputs against.

Everything here is written from the paper's closed forms and from the
documented file layouts, with numpy alone: nothing calls into kturb, so
a defect in the package cannot hide by agreeing with itself.  Times are
arrays or scalars; s(t) = 1 + kappa2 * omega_max * t throughout.
"""

import collections
import math
import struct

import numpy as np


# The eight scalars of the initial data that the envelopes use; any
# object with these attributes will do.
Bounds = collections.namedtuple("Bounds", "b_min omega_min omega_max b0_l1 "
                                          "v0_l2sq lap_sum kappa2 c_p")


def _s(bd, t):
    return 1.0 + bd.kappa2 * bd.omega_max * np.asarray(t, dtype=float)


def omega_lower(bd, t):
    return bd.omega_min / (1.0 + bd.kappa2 * bd.omega_min * np.asarray(t, float))


def omega_upper(bd, t):
    return bd.omega_max / _s(bd, t)


def b_lower(bd, t):
    return bd.b_min / _s(bd, t) ** (1.0 / bd.kappa2)


def b_mass(bd, t, omega):
    """Decay of |b|_1 + |v|_2^2 / 2 at the rate set by `omega`."""
    rate = 1.0 + bd.kappa2 * omega * np.asarray(t, float)
    return (bd.b0_l1 + 0.5 * bd.v0_l2sq) / rate ** (1.0 / bd.kappa2)


def mu_min(bd, t):
    return bd.b_min / bd.omega_max * _s(bd, t) ** (1.0 - 1.0 / bd.kappa2)


def _decay(bd, t):
    k2 = bd.kappa2
    rate = bd.b_min / (bd.c_p**2 * bd.omega_max**2 * (2.0 * k2 - 1.0))
    return rate * (_s(bd, t) ** (2.0 - 1.0 / k2) - 1.0)


def v_l2(bd, t):
    return math.sqrt(bd.v0_l2sq) * np.exp(-_decay(bd, t))


def y2(bd, t):
    return bd.lap_sum * np.exp(-bd.kappa2 * _decay(bd, t))


def _coefficients(bd, t):
    bmax = b_mass(bd, t, bd.omega_max)
    w = omega_lower(bd, t)
    A = (bd.v0_l2sq + bmax**2) ** 0.25
    B = 1.0 + 1.0 / w + bmax / w + bmax / w**2
    C = 1.0 / w + 1.0 / w**2 + bmax / w**2 + bmax / w**3
    D = 1.0 / w**2 + 1.0 / w**3
    return bmax, A, B, C, D


def margin_terms(bd, c, t):
    """(mu_min(t), c * Z0(t)); the existence margin is their difference."""
    y = y2(bd, t)
    bmax, A, B, C, D = _coefficients(bd, t)
    z0 = bmax + A * y**0.25 + B * y**0.5 + C * y + D * y**1.5
    return mu_min(bd, t), c * z0


def a_of_t(bd, c, t):
    """The function whose supremum over t >= 0 is a0."""
    y = y2(bd, t)
    _, A, B, C, D = _coefficients(bd, t)
    s = _s(bd, t)
    return (2.0 * c * s ** (1.0 / bd.kappa2 - 1.0)
            * (A + B * y**0.25 + C * y**0.75 + D * y**1.25))


def a0_brute(bd, c, points=1_000_000, chunk=10_000):
    """max of a(t) on a dense geometric grid reaching well past the
    latest analytic peak of the decaying constituents of a(t)."""
    k2 = bd.kappa2
    horizon = 1.0e4
    if bd.lap_sum > 0.0:
        r = 2.0 - 1.0 / k2
        beta = k2 * bd.b_min / (bd.c_p**2 * bd.omega_max**2 * (2.0 * k2 - 1.0))
        for p, q in ((1.0 / k2 + 1.0, 0.25), (1.0 / k2 + 2.0, 0.75),
                     (1.0 / k2 + 2.0, 1.25)):
            s_star = (p / (q * beta * r)) ** (1.0 / r)
            horizon = max(horizon, 10.0 * (s_star - 1.0) / (k2 * bd.omega_max))
    # t_j = (1 + horizon)^(j / (points - 1)) - 1, made a chunk at a time
    # so that the check's temporaries stay small
    step = math.log1p(horizon) / (points - 1)
    return max(float(np.max(a_of_t(bd, c, np.expm1(
        step * np.arange(j, min(j + chunk, points))))))
        for j in range(0, points, chunk))


# ---------------------------------------------------------------------------
# file formats

SNAPSHOT_HEADER = struct.Struct("<4sIIII3dd6d")


def read_snapshot(path):
    """(t, lengths, fields[5, N1, N2, N3]) from a KTRB snapshot file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, n1, n2, n3, l1, l2, l3, t, *_ = \
        SNAPSHOT_HEADER.unpack_from(raw, 0)
    if magic != b"KTRB" or version != 1:
        raise ValueError(f"{path}: not a version-1 KTRB snapshot")
    count = 5 * n1 * n2 * n3
    if len(raw) != SNAPSHOT_HEADER.size + 8 * count:
        raise ValueError(f"{path}: {len(raw)} bytes, expected "
                         f"{SNAPSHOT_HEADER.size + 8 * count}")
    fields = np.frombuffer(raw, dtype="<f8", offset=SNAPSHOT_HEADER.size)
    return t, (l1, l2, l3), fields.reshape(5, n1, n2, n3)


def divergence_ratio(v, lengths):
    """|div v|_2 / |grad v|_2 of a periodic velocity, spectrally with
    numpy's own FFT."""
    vhat = np.fft.fftn(v, axes=(1, 2, 3))
    ks = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
                       for n, L in zip(v.shape[1:], lengths)], indexing="ij")
    div = sum(k * vh for k, vh in zip(ks, vhat))
    grad = sum(k**2 for k in ks) * sum(np.abs(vh) ** 2 for vh in vhat)
    return float(np.sqrt(np.sum(np.abs(div) ** 2) / np.sum(grad)))


def read_monitor_csv(path):
    """Column name -> float array of a monitor.csv file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}
