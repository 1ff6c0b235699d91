"""Flat key = value run configuration with bracketed sections.

Parsing is fail-closed: unknown sections or keys raise ConfigError.
Serialization is canonical (fixed section and key order, repr floats),
so parse(serialize(cfg)) == cfg and a serialized file round-trips to an
identical file.
"""

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Optional

from ..criterion import CriterionConfig
from ..dynamics import ModelParams
from ..errors import ConfigError
from ..grid import TorusGrid
from ..integrator import StepControl
from .initial import InitialDataSpec


@dataclass
class RunConfig:
    lengths: tuple = (2.0 * math.pi,) * 3
    resolution: tuple = (32, 32, 32)
    params: ModelParams = field(default_factory=ModelParams)
    control: StepControl = field(default_factory=lambda: StepControl(dt_max=0.1))
    initial: InitialDataSpec = field(default_factory=InitialDataSpec)
    criterion: CriterionConfig = field(default_factory=CriterionConfig)
    t_end: float = 1.0
    monitor_every: int = 1
    snapshot_every: int = 0
    c_p_override: Optional[float] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        self.lengths = tuple(float(x) for x in self.lengths)
        self.resolution = tuple(int(x) for x in self.resolution)
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigError("t_end must be finite and nonnegative")
        if self.monitor_every < 1:
            raise ConfigError("monitor_every must be >= 1")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.c_p_override is not None and self.c_p_override <= 0:
            raise ConfigError("c_p_override must be positive")

    def make_grid(self):
        return TorusGrid(lengths=self.lengths, resolution=self.resolution)


_SCHEMA = {
    "grid": ("n1", "n2", "n3", "l1", "l2", "l3"),
    "model": ("nu0", "kappa1", "kappa2", "kappa3", "kappa4",
              "momentum_diffusion_coeff"),
    "step": ("dt_max", "cfl_adv", "dt_fixed", "eps_pos"),
    "initial": ("kind", "seed", "b_mean", "b_amp", "omega_mean", "omega_amp",
                "v_amp", "band", "path"),
    "criterion": ("c_omega_kappa", "horizon", "delta", "sup_horizon"),
    "run": ("t_end", "monitor_every", "snapshot_every", "c_p_override"),
    "output": ("dir",),
}


def _float(sec, key, raw):
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: not a number: '{raw}'") from None
    if math.isnan(val):
        raise ConfigError(f"[{sec}] {key}: NaN is not allowed")
    return val


def _int(sec, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: not an integer: '{raw}'") from None


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    data = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            data[(sec, key)] = raw.strip()

    def get(sec, key, conv, default):
        if (sec, key) not in data:
            return default
        return conv(sec, key, data[(sec, key)])

    def gets(sec, key, default=None):
        return data.get((sec, key), default)

    lengths = tuple(get("grid", k, _float, 2.0 * math.pi)
                    for k in ("l1", "l2", "l3"))
    resolution = tuple(get("grid", k, _int, 32) for k in ("n1", "n2", "n3"))
    try:
        params = ModelParams(
            nu0=get("model", "nu0", _float, 1.0),
            kappa1=get("model", "kappa1", _float, 1.0),
            kappa2=get("model", "kappa2", _float, 1.0),
            kappa3=get("model", "kappa3", _float, 1.0),
            kappa4=get("model", "kappa4", _float, 1.0),
            momentum_diffusion_coeff=get(
                "model", "momentum_diffusion_coeff", _float, 1.0),
        )
        dt_fixed = gets("step", "dt_fixed")
        control = StepControl(
            dt_max=get("step", "dt_max", _float, 0.1),
            cfl_adv=get("step", "cfl_adv", _float, 0.4),
            dt_fixed=None if dt_fixed in (None, "none") else
            _float("step", "dt_fixed", dt_fixed),
            eps_pos=get("step", "eps_pos", _float, 1e-10),
        )
        initial = InitialDataSpec(
            kind=gets("initial", "kind", "random_band"),
            seed=get("initial", "seed", _int, 0),
            b_mean=get("initial", "b_mean", _float, 2.0),
            b_amp=get("initial", "b_amp", _float, 0.1),
            omega_mean=get("initial", "omega_mean", _float, 1.0),
            omega_amp=get("initial", "omega_amp", _float, 0.1),
            v_amp=get("initial", "v_amp", _float, 1e-3),
            band=get("initial", "band", _int, 5),
            path=gets("initial", "path"),
        )
        criterion = CriterionConfig(
            c_omega_kappa=get("criterion", "c_omega_kappa", _float, 1.0),
            horizon=get("criterion", "horizon", _float, math.inf),
            delta=get("criterion", "delta", _float, 0.01),
            sup_horizon=get("criterion", "sup_horizon", _float, 1.0e4),
        )
        c_p_raw = gets("run", "c_p_override")
        return RunConfig(
            lengths=lengths,
            resolution=resolution,
            params=params,
            control=control,
            initial=initial,
            criterion=criterion,
            t_end=get("run", "t_end", _float, 1.0),
            monitor_every=get("run", "monitor_every", _int, 1),
            snapshot_every=get("run", "snapshot_every", _int, 0),
            c_p_override=None if c_p_raw in (None, "none") else
            _float("run", "c_p_override", c_p_raw),
            out_dir=gets("output", "dir"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; optional keys are omitted when unset."""
    out = io.StringIO()

    def sec(name, pairs):
        out.write(f"[{name}]\n")
        for k, v in pairs:
            if v is None:
                continue
            if isinstance(v, float):
                v = repr(v)
            out.write(f"{k} = {v}\n")
        out.write("\n")

    n1, n2, n3 = cfg.resolution
    l1, l2, l3 = cfg.lengths
    p, c, i, cr = cfg.params, cfg.control, cfg.initial, cfg.criterion
    sec("grid", [("n1", n1), ("n2", n2), ("n3", n3),
                 ("l1", l1), ("l2", l2), ("l3", l3)])
    sec("model", [("nu0", p.nu0), ("kappa1", p.kappa1), ("kappa2", p.kappa2),
                  ("kappa3", p.kappa3), ("kappa4", p.kappa4),
                  ("momentum_diffusion_coeff", p.momentum_diffusion_coeff)])
    sec("step", [("dt_max", c.dt_max), ("cfl_adv", c.cfl_adv),
                 ("dt_fixed", c.dt_fixed), ("eps_pos", c.eps_pos)])
    sec("initial", [("kind", i.kind), ("seed", i.seed), ("b_mean", i.b_mean),
                    ("b_amp", i.b_amp), ("omega_mean", i.omega_mean),
                    ("omega_amp", i.omega_amp), ("v_amp", i.v_amp),
                    ("band", i.band), ("path", i.path)])
    sec("criterion", [("c_omega_kappa", cr.c_omega_kappa),
                      ("horizon", cr.horizon), ("delta", cr.delta),
                      ("sup_horizon", cr.sup_horizon)])
    sec("run", [("t_end", cfg.t_end), ("monitor_every", cfg.monitor_every),
                ("snapshot_every", cfg.snapshot_every),
                ("c_p_override", cfg.c_p_override)])
    sec("output", [("dir", cfg.out_dir)])
    return out.getvalue()
