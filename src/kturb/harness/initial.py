"""Initial-data generation and reduction to envelope inputs."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import ops
from ..dynamics import ModelParams, State
from ..envelopes import DataBounds
from ..errors import ConfigError, require_finite
from ..grid import TorusGrid
from .monitor import measure

KINDS = ("uniform", "random_band", "from_file")


@dataclass
class InitialDataSpec:
    """Recipe for admissible initial data.

    Scalars are a mean plus a band-limited perturbation rescaled to the
    requested pointwise amplitude, so b0 >= b_mean - b_amp > 0 and
    omega0 stays inside [omega_mean - omega_amp, omega_mean + omega_amp].
    The velocity is a random band-limited field, Leray-projected, then
    rescaled to |v0|_inf = v_amp.
    """

    kind: str = "random_band"
    seed: int = 0
    b_mean: float = 2.0
    b_amp: float = 0.1
    omega_mean: float = 1.0
    omega_amp: float = 0.1
    v_amp: float = 1e-3
    band: int = 5
    path: Optional[str] = None

    def __post_init__(self):
        require_finite(self, error=ConfigError)
        if self.kind not in KINDS:
            raise ConfigError(f"unknown initial data kind '{self.kind}'")
        if self.b_amp < 0 or self.omega_amp < 0 or self.v_amp < 0:
            raise ConfigError("perturbation amplitudes must be nonnegative")
        if self.b_mean - self.b_amp <= 0:
            raise ConfigError("need b_mean - b_amp > 0 for admissible data")
        if self.omega_mean - self.omega_amp <= 0:
            raise ConfigError("need omega_mean - omega_amp > 0")
        if self.band < 1:
            raise ConfigError("band must be >= 1")
        if self.kind == "from_file" and not self.path:
            raise ConfigError("kind=from_file requires a path")


def _band_mask(grid, band):
    m1, m2, m3 = grid.modes
    return (np.abs(m1) <= band) & (np.abs(m2) <= band) & (np.abs(m3) <= band)


def _band_limited(grid, rng, band, shape=()):
    """Kept-block spectra of random real band-limited zero-mean
    field(s): grid-point noise projected onto the block, modes with
    some |m_i| > band zeroed, and k = 0 zeroed."""
    fhat = grid.rfft(rng.standard_normal(shape + grid.resolution))
    fhat *= _band_mask(grid, band)
    fhat[..., 0, 0, 0] = 0.0
    return fhat


def _rescaled(pert, amp):
    peak = float(np.max(np.abs(pert)))
    if amp == 0.0 or peak == 0.0:
        return np.zeros_like(pert)
    return pert * (amp / peak)


def generate_initial(spec: InitialDataSpec, grid: TorusGrid) -> State:
    """Build an admissible State; deterministic in spec.seed.

    Every kind is checked by State.validate(), which sets the state's
    y_hat to its kept-block spectrum; inadmissible data (a velocity that
    is not divergence-free and zero-mean on the block, or scalars that
    are not strictly positive) raise ConfigError.  A from_file array is
    projected onto the block before it is checked: energy outside the
    block is neither checked nor marched.
    """
    state = _build_initial(spec, grid)
    try:
        return state.validate()
    except ValueError as exc:
        raise ConfigError(f"inadmissible initial data: {exc}") from None


def _build_initial(spec, grid):
    if spec.kind == "from_file":
        from .snapshot import read_snapshot
        state, _ = read_snapshot(spec.path)
        if state.grid != grid:
            raise ConfigError("snapshot grid does not match configured grid")
        return state
    if spec.kind == "uniform":
        return State.uniform(grid, spec.omega_mean, spec.b_mean)
    if 3 * spec.band > min(grid.resolution):
        raise ConfigError("band exceeds the dealiased range N/3")
    rng = np.random.default_rng(spec.seed)
    b0 = spec.b_mean + _rescaled(
        grid.irfft(_band_limited(grid, rng, spec.band)), spec.b_amp)
    om0 = spec.omega_mean + _rescaled(
        grid.irfft(_band_limited(grid, rng, spec.band)), spec.omega_amp)
    vhat = ops.leray_hat(grid, _band_limited(grid, rng, spec.band, (3,)))
    v0 = _rescaled(grid.irfft(vhat), spec.v_amp)
    return State(grid, np.concatenate([v0, om0[None], b0[None]]))


def extract_bounds(state: State, params: ModelParams,
                   c_p_override: Optional[float] = None) -> DataBounds:
    """Reduce an initial State to the scalar statistics the envelopes
    consume: those of measure(state), which Monitor.sample records, so
    the bounds are the state's own monitor record.  c_p defaults to
    sqrt(2/c_v) * max L_i/(2 pi), the rate the energy identity
    guarantees (see DataBounds)."""
    if c_p_override is not None:
        c_p = c_p_override
    else:
        c_p = (math.sqrt(2.0 / params.c_v) * max(state.grid.lengths)
               / (2.0 * math.pi))
    s = measure(state)
    return DataBounds(b_min=s["min_b"], omega_min=s["min_omega"],
                      omega_max=s["max_omega"], b0_l1=s["b_l1"],
                      v0_l2sq=s["v_l2"] ** 2, lap_sum=s["x2"],
                      kappa2=params.kappa2, c_p=c_p)
