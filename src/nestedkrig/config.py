"""Plain-text run configuration: one section per concern, key=value pairs.

Every key has a default and unknown keys are a hard error, so a config
file is a complete, reproducible record of an experiment.  The parsed
configuration is echoed into the header of every output file.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError
from .kernels import FAMILIES, KernelSpec

PARTITION_MODES = ("kmeans", "random", "consecutive")
TREE_MODES = ("flat", "two_layer_sqrt", "equilibrated", "optimal")


@dataclass
class KernelConfig:
    family: str = "matern52"
    variance: float = 1.0
    lengthscales: tuple = (0.1,)

    def spec(self) -> KernelSpec:
        return KernelSpec(self.family, self.variance, self.lengthscales)


@dataclass
class PartitionConfig:
    mode: str = "kmeans"
    p: int = 0  # 0: let the tree planner decide
    seed: int = 0


@dataclass
class TreeConfig:
    mode: str = "two_layer_sqrt"
    height: int = 2


@dataclass
class EstimationConfig:
    enabled: bool = False
    a: float = 0.1
    A: float = -1.0  # negative: n_iter / 10
    alpha: float = 0.602
    c: float = 0.1
    gamma: float = 0.101
    q: int = 100
    n_iter: int = 500
    seed: int = 0
    two_phase: bool = False
    grid_start: bool = True


@dataclass
class DataConfig:
    response: str = ""  # empty: last column
    center_response: bool = False


@dataclass
class RunSettings:
    threads: int = 0  # 0: NESTEDKRIG_THREADS or 1
    full_cap: int = 5000


@dataclass
class RunConfig:
    kernel: KernelConfig = field(default_factory=KernelConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    tree: TreeConfig = field(default_factory=TreeConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    data: DataConfig = field(default_factory=DataConfig)
    run: RunSettings = field(default_factory=RunSettings)

    def echo(self) -> list:
        """Deterministic key=value lines for output headers."""
        lines = []
        for section in ("kernel", "partition", "tree", "estimation", "data", "run"):
            obj = getattr(self, section)
            for key in sorted(vars(obj)):
                value = getattr(obj, key)
                if isinstance(value, tuple):
                    value = ",".join(repr(float(v)) for v in value)
                lines.append(f"{section}.{key}={value}")
        return lines


_PARSERS = {
    ("kernel", "family"): str,
    ("kernel", "variance"): float,
    ("kernel", "lengthscales"): "floats",
    ("partition", "mode"): str,
    ("partition", "p"): int,
    ("partition", "seed"): int,
    ("tree", "mode"): str,
    ("tree", "height"): int,
    ("estimation", "enabled"): "bool",
    ("estimation", "a"): float,
    ("estimation", "A"): float,
    ("estimation", "alpha"): float,
    ("estimation", "c"): float,
    ("estimation", "gamma"): float,
    ("estimation", "q"): int,
    ("estimation", "n_iter"): int,
    ("estimation", "seed"): int,
    ("estimation", "two_phase"): "bool",
    ("estimation", "grid_start"): "bool",
    ("data", "response"): str,
    ("data", "center_response"): "bool",
    ("run", "threads"): int,
    ("run", "full_cap"): int,
}

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def _parse_value(parser, raw: str):
    if parser == "bool":
        try:
            return _BOOL[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    if parser == "floats":
        values = tuple(float(v) for v in raw.split(",") if v.strip())
        if not values:
            raise ValueError("expected at least one value")
        return values
    return parser(raw)


def load_config(path=None) -> RunConfig:
    """Parse a config file into a RunConfig; missing file sections keep defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    ini = configparser.ConfigParser()
    read = ini.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in ini.sections():
        if not hasattr(cfg, section):
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        for key, raw in ini.items(section):
            if (section, key) not in _PARSERS:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:
                value = _parse_value(_PARSERS[(section, key)], raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from None
            setattr(target, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.kernel.family not in FAMILIES:
        raise ConfigError(f"kernel.family must be one of {FAMILIES}")
    if cfg.kernel.variance <= 0 or any(t <= 0 for t in cfg.kernel.lengthscales):
        raise ConfigError("kernel.variance and lengthscales must be positive")
    if cfg.partition.mode not in PARTITION_MODES:
        raise ConfigError(f"partition.mode must be one of {PARTITION_MODES}")
    if cfg.tree.mode not in TREE_MODES:
        raise ConfigError(f"tree.mode must be one of {TREE_MODES}")
    if cfg.tree.height < 2:
        raise ConfigError("tree.height must be at least 2")
    if cfg.partition.p < 0:
        raise ConfigError("partition.p must be nonnegative")
    if cfg.run.threads < 0:
        raise ConfigError("run.threads must be nonnegative")
    if cfg.run.full_cap < 1:
        raise ConfigError("run.full_cap must be positive")


def plan_partition_size(cfg: RunConfig, n: int) -> int:
    """Group count implied by the configuration for n observations."""
    if cfg.partition.p > 0:
        return cfg.partition.p
    return max(1, int(round(np.sqrt(n))))
