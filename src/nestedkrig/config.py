"""Plain-text run configuration: one section per concern, key=value pairs.

Every key has a default and unknown keys are a hard error, so a config
file is a complete, reproducible record of an experiment.  The parsed
configuration is echoed into the header of every output file.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .estimation import SgdSettings
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
    p: int = 0  # flat trees only; 0: sqrt(n) groups
    seed: int = 0


@dataclass
class TreeConfig:
    mode: str = "two_layer_sqrt"
    height: int = 2


@dataclass
class EstimationConfig(SgdSettings):
    enabled: bool = False
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
        for section in fields(self):
            obj = getattr(self, section.name)
            for key in sorted(vars(obj)):
                value = getattr(obj, key)
                if isinstance(value, tuple):
                    value = ",".join(repr(float(v)) for v in value)
                lines.append(f"{section.name}.{key}={value}")
        return lines


def _parse(default, raw: str):
    """``raw`` read as a value of the type of the field default ``default``."""
    if isinstance(default, bool):
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    if isinstance(default, tuple):
        values = tuple(float(v) for v in raw.split(",") if v.strip())
        if not values:
            raise ValueError("expected at least one value")
        return values
    return type(default)(raw)


def load_config(path=None) -> RunConfig:
    """Parse a config file into a RunConfig; missing file sections keep defaults.

    A section's keys are its dataclass fields, each parsed by the type of
    its default; ``;`` after whitespace starts an inline comment.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    ini = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                    interpolation=None)
    ini.optionxform = str
    try:
        read = ini.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in ini.sections():
        if section not in {f.name for f in fields(cfg)}:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        defaults = {f.name: f.default for f in fields(target)}
        for key, raw in ini.items(section):
            if key not in defaults:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:
                value = _parse(defaults[key], raw)
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
    if cfg.partition.p > 0 and cfg.tree.mode != "flat":
        raise ConfigError(
            f"partition.p applies only to tree.mode = flat; tree.mode = "
            f"{cfg.tree.mode} takes the group count from the tree planner")
    try:
        cfg.estimation.check()
    except ValueError as exc:
        raise ConfigError(f"estimation.{exc}") from None
    if cfg.run.threads < 0:
        raise ConfigError("run.threads must be nonnegative")
    if cfg.run.full_cap < 1:
        raise ConfigError("run.full_cap must be positive")

