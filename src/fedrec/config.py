"""Experiment configuration: defaults, flat dotted-key files, overrides.

The sections are the records the library takes: ``build_client_graph`` and
``randomize_vector`` read a ``PrivacySection``, ``compose_view`` and
``pretrain`` a ``PretrainSection`` (``server.warm_up`` resolves its
``edge_add_count`` of -1 and its ``eta`` of 0 in a copy), ``personalize`` the
``personalization.alpha`` tuple, and a client update the whole
``ExperimentConfig``.

Precedence is command-line flags > config file > defaults. The file format is
one `key = value` assignment per line with `#` comments; every key round-trips
through :func:`dump_flat` / :func:`build_config` unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

from .errors import ConfigError


@dataclass
class DataSection:
    path: str = ""


@dataclass
class ModelSection:
    dim: int = 64
    layers: int = 3


@dataclass
class TrainSection:
    eta: float = 0.01
    gamma: float = 1e-4
    clients_per_round: int = 256
    max_rounds: int = 100
    seed: int = 0
    batch_size: int = 0  # 0 = one triple per positive item
    eval_every: int = 5
    patience: int = 10


@dataclass
class PretrainSection:
    epochs: int = 5
    tau: float = 0.2
    node_keep_prob: float = 0.9
    edge_add_count: int = -1  # -1 = pseudo_items_p * n_users
    noise_magnitude: float = 0.1
    eta: float = 0.0  # 0 = reuse train.eta


@dataclass
class PrivacySection:
    clip_delta: float = 0.1
    laplace_lambda: float = 0.2
    pseudo_items_p: int = 0
    mask_ratio: float = 0.0
    enabled: bool = False


@dataclass
class ClusterSection:
    k: int = 10
    recluster_every: int = 1


@dataclass
class PersonalizationSection:
    alpha: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)


@dataclass
class EvalSection:
    cutoffs: tuple[int, ...] = (10, 20)


@dataclass
class GraphSection:
    neighbor_expansion: bool = False


@dataclass
class ExperimentConfig:
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    privacy: PrivacySection = field(default_factory=PrivacySection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    personalization: PersonalizationSection = field(
        default_factory=PersonalizationSection
    )
    eval: EvalSection = field(default_factory=EvalSection)
    graph: GraphSection = field(default_factory=GraphSection)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_str(key: str, text: str) -> str:
    return text.strip()


def _parse_ints(key: str, text: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, part) for part in text.split(",") if part.strip())


def _parse_floats(key: str, text: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, part) for part in text.split(",") if part.strip())


def _dump_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_dump_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARSERS: dict[type | str, Callable[[str, str], object]] = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": _parse_str,
    "tuple[int, ...]": _parse_ints,
    "tuple[float, ...]": _parse_floats,
}


def _registry() -> dict[str, tuple[str, str, Callable[[str, str], object]]]:
    table = {}
    for section in fields(ExperimentConfig):
        section_cls = section.default_factory  # type: ignore[union-attr]
        for f in fields(section_cls()):
            key = f"{section.name}.{f.name}"
            table[key] = (section.name, f.name, _PARSERS[f.type])
    return table


REGISTRY = _registry()


def set_key(cfg: ExperimentConfig, key: str, text: str) -> None:
    """Parse ``text`` into the field named by the dotted ``key`` in place."""
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r}")
    section_name, field_name, parser = REGISTRY[key]
    setattr(getattr(cfg, section_name), field_name, parser(key, text))


def dump_flat(cfg: ExperimentConfig) -> str:
    """Canonical flat-file rendering of every key."""
    lines = []
    for key, (section_name, field_name, _) in REGISTRY.items():
        value = getattr(getattr(cfg, section_name), field_name)
        lines.append(f"{key} = {_dump_value(value)}")
    return "\n".join(lines) + "\n"


def read_config_file(path) -> dict[str, str]:
    """Parse `key = value` lines; `#` comments and blanks are skipped."""
    overrides: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        overrides[key.strip()] = value.strip()
    return overrides


def build_config(
    file_overrides: dict[str, str] | None = None,
    flag_overrides: dict[str, str] | None = None,
) -> ExperimentConfig:
    """Defaults, then the config file, then command-line flags."""
    cfg = default_config()
    for mapping in (file_overrides or {}, flag_overrides or {}):
        for key, value in mapping.items():
            set_key(cfg, key, value)
    validate_config(cfg)
    return cfg


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def validate_config(cfg: ExperimentConfig) -> None:
    _require(cfg.model.dim >= 1, "model.dim must be >= 1")
    _require(cfg.model.layers >= 0, "model.layers must be >= 0")
    _require(cfg.train.eta > 0, "train.eta must be > 0")
    _require(cfg.train.gamma >= 0, "train.gamma must be >= 0")
    _require(cfg.train.clients_per_round >= 1, "train.clients_per_round must be >= 1")
    _require(cfg.train.max_rounds >= 0, "train.max_rounds must be >= 0")
    _require(cfg.train.seed >= 0, "train.seed must be >= 0")
    _require(cfg.train.batch_size >= 0, "train.batch_size must be >= 0")
    _require(cfg.train.eval_every >= 1, "train.eval_every must be >= 1")
    _require(cfg.train.patience >= 1, "train.patience must be >= 1")
    _require(cfg.pretrain.epochs >= 0, "pretrain.epochs must be >= 0")
    _require(cfg.pretrain.tau > 0, "pretrain.tau must be > 0")
    _require(
        0 < cfg.pretrain.node_keep_prob <= 1,
        "pretrain.node_keep_prob must be in (0, 1]",
    )
    _require(
        cfg.pretrain.edge_add_count >= -1,
        "pretrain.edge_add_count must be >= -1 (-1 = pseudo_items_p per user)",
    )
    _require(cfg.pretrain.noise_magnitude >= 0, "pretrain.noise_magnitude must be >= 0")
    _require(cfg.pretrain.eta >= 0, "pretrain.eta must be >= 0")
    _require(cfg.privacy.clip_delta > 0, "privacy.clip_delta must be > 0")
    _require(cfg.privacy.laplace_lambda >= 0, "privacy.laplace_lambda must be >= 0")
    _require(cfg.privacy.pseudo_items_p >= 0, "privacy.pseudo_items_p must be >= 0")
    _require(
        0 <= cfg.privacy.mask_ratio < 1, "privacy.mask_ratio must be in [0, 1)"
    )
    _require(cfg.cluster.k >= 1, "cluster.k must be >= 1")
    _require(cfg.cluster.recluster_every >= 1, "cluster.recluster_every must be >= 1")
    _require(
        len(cfg.personalization.alpha) == 3,
        "personalization.alpha needs exactly 3 values",
    )
    _require(
        min(cfg.personalization.alpha) >= 0 and sum(cfg.personalization.alpha) > 0,
        "personalization.alpha values must be >= 0 with a positive sum",
    )
    _require(len(cfg.eval.cutoffs) >= 1, "eval.cutoffs needs at least one cutoff")
    _require(min(cfg.eval.cutoffs) >= 1, "eval.cutoffs values must be >= 1")
    _require(
        len(set(cfg.eval.cutoffs)) == len(cfg.eval.cutoffs),
        "eval.cutoffs values must be distinct",
    )

