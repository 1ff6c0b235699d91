"""Flat key = value run configuration with bracketed sections.

The keys of [model], [step], [initial] and [criterion] are the fields of
the settings dataclass each section fills, in field order; [grid], [run]
and [output] map onto RunConfig's own fields.  A raw value is read by
its field's annotation, "none" unsets an optional number (not a string),
and defaults come from RunConfig().  Parsing is fail-closed: unknown
sections or keys raise ConfigError.  Serialization is canonical (fixed
section and key order, repr floats), so parse(serialize(cfg)) == cfg and
a serialized file round-trips to an identical file.
"""

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass, field
from typing import Optional

from ..criterion import CriterionConfig
from ..dynamics import ModelParams
from ..errors import ConfigError, require_finite
from ..grid import TorusGrid, check_box
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
        # checked as TorusGrid checks them, without building one
        self.lengths, self.resolution = check_box(
            self.lengths, self.resolution, ConfigError)
        require_finite(self, error=ConfigError)
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if self.monitor_every < 1:
            raise ConfigError("monitor_every must be >= 1")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.c_p_override is not None and self.c_p_override <= 0:
            raise ConfigError("c_p_override must be positive")

    def make_grid(self):
        return TorusGrid(lengths=self.lengths, resolution=self.resolution)


# [section] -> the RunConfig field it fills with a settings dataclass
_NESTED = {"model": "params", "step": "control", "initial": "initial",
           "criterion": "criterion"}
_GRID_N = ("n1", "n2", "n3")
_GRID_L = ("l1", "l2", "l3")
_RUN = ("t_end", "monitor_every", "snapshot_every", "c_p_override")
_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# how a raw value becomes a field of each supported annotation
_READERS = {float: float, int: int, str: str, Optional[str]: str,
            Optional[float]: lambda raw: None if raw == "none" else float(raw)}


def _schema():
    """{section: {key: reader}} in canonical order; a field annotation
    without a reader fails on import."""
    types = {"grid": {**dict.fromkeys(_GRID_N, int),
                      **dict.fromkeys(_GRID_L, float)}}
    for sec, attr in _NESTED.items():
        types[sec] = {f.name: f.type for f in dataclasses.fields(_TYPES[attr])}
    types["run"] = {k: _TYPES[k] for k in _RUN}
    types["output"] = {"dir": _TYPES["out_dir"]}
    try:
        return {sec: {k: _READERS[tp] for k, tp in keys.items()}
                for sec, keys in types.items()}
    except KeyError as exc:
        raise TypeError(f"no config reader for fields of type {exc}") from None


_SECTIONS = _schema()


def _tables(cfg):
    """The values of cfg as {section: {key: value}}, in _SECTIONS's order."""
    tables = {"grid": dict(zip(_GRID_N + _GRID_L,
                               cfg.resolution + cfg.lengths))}
    for sec, attr in _NESTED.items():
        tables[sec] = dataclasses.asdict(getattr(cfg, attr))
    tables["run"] = {k: getattr(cfg, k) for k in _RUN}
    tables["output"] = {"dir": cfg.out_dir}
    return tables


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    tables = _tables(RunConfig())
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in _SECTIONS[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            read = _SECTIONS[sec][key]
            try:
                tables[sec][key] = read(raw.strip())
            except ValueError:
                what = "an integer" if read is int else "a number"
                raise ConfigError(
                    f"[{sec}] {key}: not {what}: '{raw.strip()}'") from None
    grid = tables["grid"]
    try:
        return RunConfig(
            resolution=tuple(grid[k] for k in _GRID_N),
            lengths=tuple(grid[k] for k in _GRID_L),
            **{attr: _TYPES[attr](**tables[sec])
               for sec, attr in _NESTED.items()},
            **tables["run"],
            out_dir=tables["output"]["dir"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; optional keys are omitted when unset."""
    out = io.StringIO()
    for sec, table in _tables(cfg).items():
        out.write(f"[{sec}]\n")
        for key, val in table.items():
            if val is not None:
                val = repr(float(val)) if isinstance(val, float) else val
                out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()
