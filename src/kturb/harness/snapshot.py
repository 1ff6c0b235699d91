"""Portable binary snapshots of a full solution state.

Layout (all little-endian regardless of host):
  bytes 0-3   magic "KTRB"
  uint32      format version (currently 1)
  uint32 x3   N1, N2, N3
  float64 x3  L1, L2, L3
  float64     t
  float64 x6  nu0, kappa1, kappa2, kappa3, kappa4, momentum_diffusion_coeff
  float64     the (5, N1, N2, N3) state array row-major: v1, v2, v3,
              omega, b, each N1*N2*N3 values
"""

import struct

import numpy as np

from ..dynamics import ModelParams, State
from ..errors import ConfigError
from ..grid import TorusGrid, check_box

MAGIC = b"KTRB"
VERSION = 1


def write_snapshot(path, state: State, params: ModelParams):
    g = state.grid
    header = MAGIC + struct.pack(
        "<IIII", VERSION, *g.resolution)
    header += struct.pack("<3d", *g.lengths)
    header += struct.pack("<d", state.t)
    header += struct.pack(
        "<6d", params.nu0, params.kappa1, params.kappa2, params.kappa3,
        params.kappa4, params.momentum_diffusion_coeff)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.y, dtype="<f8").tobytes())


def read_snapshot(path):
    """Returns (State, ModelParams)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ConfigError(f"{path}: not a snapshot file (bad magic)")
    if len(raw) < 100:
        raise ConfigError(f"{path}: truncated snapshot header")
    version, n1, n2, n3 = struct.unpack_from("<IIII", raw, 4)
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported snapshot version {version}")
    off = 20
    l1, l2, l3 = struct.unpack_from("<3d", raw, off)
    off += 24
    (t,) = struct.unpack_from("<d", raw, off)
    off += 8
    pvals = struct.unpack_from("<6d", raw, off)
    off += 48
    # checked before the grid, whose tables grow as N1 N2 N3, is built
    lengths, resolution = check_box(
        (l1, l2, l3), (n1, n2, n3), lambda msg: ConfigError(f"{path}: {msg}"))
    count = 5 * n1 * n2 * n3
    if len(raw) < off + 8 * count:
        raise ConfigError(f"{path}: truncated field data")
    if len(raw) > off + 8 * count:
        raise ConfigError(f"{path}: trailing bytes after field data")
    grid = TorusGrid(lengths=lengths, resolution=resolution)
    y = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
    params = ModelParams(nu0=pvals[0], kappa1=pvals[1], kappa2=pvals[2],
                         kappa3=pvals[3], kappa4=pvals[4],
                         momentum_diffusion_coeff=pvals[5])
    state = State(grid, y.astype(float).reshape((5,) + grid.resolution), t)
    return state, params
