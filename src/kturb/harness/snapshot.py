"""Portable binary snapshots of a full solution state.

Layout (all little-endian regardless of host): the 100-byte header
that HEADER packs, then the fields.
  bytes 0-3   magic "KTRB"
  uint32      format version (currently 1)
  uint32 x3   N1, N2, N3
  float64 x3  L1, L2, L3
  float64     t
  float64 x6  nu0, kappa1, kappa2, kappa3, kappa4, momentum_diffusion_coeff
  float64     the (5, N1, N2, N3) state array row-major: v1, v2, v3,
              omega, b, each N1*N2*N3 values

The writer and the reader move the fields straight between the file and
the state's array, so neither holds a second copy of the state.
"""

import os
import struct

import numpy as np

from ..dynamics import ModelParams, State
from ..errors import ConfigError
from ..grid import TorusGrid, check_box

MAGIC = b"KTRB"
VERSION = 1
HEADER = struct.Struct("<4sIIII3dd6d")


def write_snapshot(path, state: State, params: ModelParams):
    g = state.grid
    header = HEADER.pack(
        MAGIC, VERSION, *g.resolution, *g.lengths, state.t, params.nu0,
        params.kappa1, params.kappa2, params.kappa3, params.kappa4,
        params.momentum_diffusion_coeff)
    with open(path, "wb") as fh:
        fh.write(header)
        np.ascontiguousarray(state.y, dtype="<f8").tofile(fh)


def read_snapshot(path):
    """Returns (State, ModelParams)."""
    with open(path, "rb") as fh:
        raw = fh.read(HEADER.size)
        if raw[:4] != MAGIC:
            raise ConfigError(f"{path}: not a snapshot file (bad magic)")
        if len(raw) < HEADER.size:
            raise ConfigError(f"{path}: truncated snapshot header")
        _, version, n1, n2, n3, l1, l2, l3, t, *pvals = HEADER.unpack(raw)
        if version != VERSION:
            raise ConfigError(
                f"{path}: unsupported snapshot version {version}")
        # checked before the grid, whose tables grow as N1 N2 N3, is built
        lengths, resolution = check_box(
            (l1, l2, l3), (n1, n2, n3),
            lambda msg: ConfigError(f"{path}: {msg}"))
        count = 5 * n1 * n2 * n3
        size = os.fstat(fh.fileno()).st_size
        if size < HEADER.size + 8 * count:
            raise ConfigError(f"{path}: truncated field data")
        if size > HEADER.size + 8 * count:
            raise ConfigError(f"{path}: trailing bytes after field data")
        grid = TorusGrid(lengths=lengths, resolution=resolution)
        y = np.fromfile(fh, dtype="<f8", count=count)
    return State(grid, y.reshape((5,) + resolution), t), ModelParams(*pvals)
