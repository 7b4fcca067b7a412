"""Plain-text run configuration: one section per concern, key=value pairs.

Every key has a default and unknown keys are a hard error, so a config
file is a complete, reproducible record of an experiment.  The parsed
configuration is echoed into the header of every output file.  The
``[kernel]``, ``[estimation]`` and ``[data]`` sections are the library's
own :class:`KernelSpec`, :class:`EstimationSettings` and :class:`CsvSchema`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .data import CsvSchema, format_number
from .estimation import EstimationSettings
from .exceptions import ConfigError
from .kernels import KernelSpec
from .tree import PLAN_MODES

PARTITION_MODES = ("kmeans", "random", "consecutive")
TREE_MODES = ("flat",) + PLAN_MODES


@dataclass
class PartitionConfig:
    mode: str = "kmeans"
    p: int = 0  # flat trees only; 0: sqrt(n) groups
    seed: int = 0


@dataclass
class TreeConfig:
    mode: str = "two_layer_sqrt"
    height: int = 2  # equilibrated and optimal trees only


@dataclass
class RunSettings:
    threads: int = 0  # predict's query threads; 0 and 1 run serially
    full_cap: int = 5000


@dataclass
class RunConfig:
    kernel: KernelSpec = KernelSpec("matern52", 1.0, (0.1,))
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    tree: TreeConfig = field(default_factory=TreeConfig)
    estimation: EstimationSettings = field(default_factory=EstimationSettings)
    data: CsvSchema = field(default_factory=CsvSchema)
    run: RunSettings = field(default_factory=RunSettings)

    def echo(self) -> list:
        """Deterministic key=value lines for output headers."""
        lines = []
        for section in fields(self):
            obj = getattr(self, section.name)
            for key in sorted(vars(obj)):
                value = getattr(obj, key)
                if isinstance(value, tuple):
                    value = ",".join(format_number(v) for v in value)
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
    its default value; the section is rebuilt by its own constructor, whose
    ``ValueError`` becomes a :class:`ConfigError`.  ``;`` after whitespace
    starts an inline comment.
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
        current = getattr(cfg, section)
        names = {f.name for f in fields(current)}
        values = {}
        for key, raw in ini.items(section):
            if key not in names:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:
                values[key] = _parse(getattr(current, key), raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from None
        try:
            setattr(cfg, section, replace(current, **values))
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.partition.mode not in PARTITION_MODES:
        raise ConfigError(f"partition.mode must be one of {PARTITION_MODES}")
    if cfg.tree.mode not in TREE_MODES:
        raise ConfigError(f"tree.mode must be one of {TREE_MODES}")
    if cfg.tree.height < 2:
        raise ConfigError("tree.height must be at least 2")
    if cfg.tree.height != 2 and cfg.tree.mode in ("flat", "two_layer_sqrt"):
        raise ConfigError(
            f"tree.mode = {cfg.tree.mode} always builds a height-2 tree; "
            f"tree.height applies only to tree.mode = equilibrated or optimal")
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

