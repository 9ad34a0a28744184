"""Single authoritative configuration record.

Every pipeline stage reads its knobs from one Config value, and the
effective config is embedded in index manifests and metric reports so
artifacts stay self-describing; a model file holds only tower weights,
and the index built with it carries its config. Unknown keys are
rejected rather than ignored: a typo in an ablation config must fail
loudly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

from .artifact import decode_json
from .errors import ConfigError, FormatError

ENV_CONFIG_PATH = "P2C_CONFIG"


@dataclass(frozen=True)
class Config:
    # contrastive loss
    tau: float = 0.15
    weight_c: float = 24.0
    # rect footprint-IoU thresholds for labeling training pairs
    theta_pos: float = 0.4
    theta_neg: float = 0.6
    # patch geometry
    patch_fraction: float = 1.0 / 3.0
    min_coverage: float = 0.10
    # canonical views and retrieval vote widths
    num_views: int = 16
    kq: int = 9
    kr: int = 24
    # embedding towers
    embed_dim: int = 32
    hidden_dim: int = 64
    pool_size: int = 16
    negatives_pool: int = 4096
    negatives_keep: int = 1024
    # pose head
    pose_bins: int = 16
    huber_delta: float = 1.0
    # rendering
    render_resolution: int = 96
    shade_noise: float = 0.02
    # training schedule
    learning_rate: float = 0.5
    epochs: int = 200
    batch_size: int = 64
    anchor_views: int = 16
    anchors_per_epoch: int = 512
    seed: int = 0


_COUNT_FIELDS = (
    "num_views",
    "kq",
    "kr",
    "embed_dim",
    "hidden_dim",
    "pool_size",
    "negatives_pool",
    "negatives_keep",
    "pose_bins",
    "batch_size",
    "anchor_views",
    "anchors_per_epoch",
    "epochs",
)


def validate(cfg: Config) -> list[str]:
    """Return a list of violation messages, each naming the bad field."""
    errors = []
    for f in fields(Config):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{f.name}: must be finite")
        elif f.type == "float" and isinstance(value, int) and not _fits_float(value):
            errors.append(f"{f.name}: must fit in a float")
    if not cfg.tau > 0:
        errors.append("tau: must be > 0")
    if not cfg.weight_c > 0:
        errors.append("weight_c: must be > 0")
    if not cfg.theta_pos > 0:
        errors.append("theta_pos: must be > 0")
    if not cfg.theta_neg <= 1:
        errors.append("theta_neg: must be <= 1")
    if not 0 < cfg.patch_fraction <= 1:
        errors.append("patch_fraction: must be in (0, 1]")
    if not 0 <= cfg.min_coverage <= 1:
        errors.append("min_coverage: must be in [0, 1]")
    for name in _COUNT_FIELDS:
        if getattr(cfg, name) < 1:
            errors.append(f"{name}: must be >= 1")
    if cfg.negatives_keep > cfg.negatives_pool:
        errors.append("negatives_keep: must be <= negatives_pool")
    if not cfg.huber_delta > 0:
        errors.append("huber_delta: must be > 0")
    if cfg.render_resolution < 8:
        errors.append("render_resolution: must be >= 8")
    if not cfg.shade_noise >= 0:
        errors.append("shade_noise: must be >= 0")
    if not cfg.learning_rate >= 0:
        errors.append("learning_rate: must be >= 0")
    if cfg.seed < 0:
        errors.append("seed: must be >= 0")
    return errors


def _fits_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _type_problems(data: dict) -> list[str]:
    """An int field takes an int, a float field an int or a float; never a bool."""
    problems = []
    for f in fields(Config):
        if f.name not in data:
            continue
        value = data[f.name]
        kinds = (int, float) if f.type == "float" else (int,)
        if isinstance(value, bool) or not isinstance(value, kinds):
            wanted = "a number" if f.type == "float" else "an integer"
            problems.append(f"{f.name}: must be {wanted}, not {type(value).__name__}")
    return problems


def from_dict(data: dict) -> Config:
    """Build a Config from a JSON-style dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f.name for f in fields(Config)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown key: {unknown[0]}")
    problems = _type_problems(data)
    if problems:
        raise ConfigError("; ".join(problems))
    cfg = Config(**data)
    problems = validate(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def load_config(path: str | None = None) -> Config:
    """Load a config file; absent keys fall back to defaults.

    With no path, honors the P2C_CONFIG environment variable, then
    falls back to pure defaults. An empty file also means defaults.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if path is None:
        return Config()
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.strip():
        return Config()
    try:
        data = decode_json(raw, "config")
    except FormatError as exc:
        raise ConfigError(str(exc)) from exc
    return from_dict(data)


def to_dict(cfg: Config) -> dict:
    return asdict(cfg)


def dumps_canonical(cfg: Config) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(to_dict(cfg), sort_keys=True, indent=2) + "\n"


def save_config(cfg: Config, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(cfg))
