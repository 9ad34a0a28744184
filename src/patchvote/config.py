"""Single authoritative configuration record.

Every pipeline stage reads its knobs from one Config value, and the
effective config is embedded in index manifests and metric reports so
artifacts stay self-describing; a model file holds only tower weights,
and the index built with it carries its config. A Config checks itself
when it is built, by its constructor, `dataclasses.replace` or a file,
and raises a ConfigError that names the bad field. Unknown keys are
rejected rather than ignored: a typo in an ablation config must fail
loudly. Every field is read by a pipeline stage; a value no run varies
is a constant beside its one reader instead: the anchors `embed.train`
draws per epoch, the pose head's Huber delta and bin count, the query
gap band in `views`, and in `experiment` the corpus's patches per
candidate and anchor view and the pose experiment's samples per shape.
NEGATIVES_POOL, read by `experiment.build_corpus`, lives here because
`validate` bounds negatives_keep by it. A value another field fixes is
derived where it is read: the towers' hidden width from pool_size
(`experiment.lit_init`) and the corpus's anchor views, one per canonical
view, from num_views (`experiment.build_corpus`).
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from .artifact import decode_json
from .descriptor import patch_side
from .errors import ConfigError, FormatError
from .views import ROTATION_POOL

ENV_CONFIG_PATH = "P2C_CONFIG"
_LOG_F64_MAX = math.log(sys.float_info.max)


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
    pool_size: int = 16
    negatives_keep: int = 1024
    # rendering
    render_resolution: int = 96
    shade_noise: float = 0.02
    # training schedule
    learning_rate: float = 0.5
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        problems = _type_problems(self) or validate(self)
        if problems:
            raise ConfigError("; ".join(problems))


_COUNT_FIELDS = (
    "num_views",
    "kq",
    "kr",
    "embed_dim",
    "pool_size",
    "negatives_keep",
    "batch_size",
    "epochs",
)

# fields that size an allocation: a render is res x res pixels, the
# towers hold d_in x h and h x embed_dim weights and a query draws kq
# rects, so a value like 2**40 is refused here, not by numpy deep in a
# pipeline
_SIZE_FIELDS = ("render_resolution", "embed_dim", "kq")
_SIZE_CEILING = 4096
# the hidden width h is ceil(pool_size / 2)**2, one unit per 2 x 2 block
# of pooled cells (experiment.lit_init); this bound keeps it <= _SIZE_CEILING
_POOL_CEILING = 2 * math.isqrt(_SIZE_CEILING)

NEGATIVES_POOL = 4096  # negatives build_corpus keeps per anchor, at most


def validate(cfg: Config) -> list[str]:
    """Return a list of violation messages, each naming the bad field."""
    errors = []
    for f in fields(Config):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{f.name}: must be finite")
        elif f.type == "float" and isinstance(value, int) and not _fits_float(value):
            errors.append(f"{f.name}: must fit in a float")
        elif f.type == "int" and not -(2**63) <= value < 2**63:
            errors.append(f"{f.name}: must be a 64-bit integer")
    if not cfg.tau > 0:
        errors.append("tau: must be > 0")
    if not cfg.weight_c > 0:
        errors.append("weight_c: must be > 0")
    # the loss's largest exponential, exp(1/tau), and its largest
    # denominator, (1 + weight_c) * exp(1/tau), must stay finite
    if all(_fits_float(v) and 0 < v < math.inf for v in (cfg.tau, cfg.weight_c)):
        if 1.0 / cfg.tau + math.log1p(cfg.weight_c) >= _LOG_F64_MAX:
            errors.append(f"tau: 1/tau + log1p(weight_c) must be < {_LOG_F64_MAX:.2f}")
    # both thresholds bound a footprint IoU, which lies in [0, 1]
    if not 0 < cfg.theta_pos <= 1:
        errors.append("theta_pos: must be in (0, 1]")
    if not 0 <= cfg.theta_neg <= 1:
        errors.append("theta_neg: must be in [0, 1]")
    if not 0 < cfg.patch_fraction <= 1:
        errors.append("patch_fraction: must be in (0, 1]")
    if not 0 <= cfg.min_coverage <= 1:
        errors.append("min_coverage: must be in [0, 1]")
    for name in _COUNT_FIELDS:
        if getattr(cfg, name) < 1:
            errors.append(f"{name}: must be >= 1")
    if cfg.num_views > ROTATION_POOL:
        errors.append(f"num_views: must be <= {ROTATION_POOL}, the rotation pool")
    # sample_patches refuses a patch side below 2 px, and a patch and the
    # whole render the pose head pools must split into pool_size x
    # pool_size equal bins (see embed._pool_windows)
    res = cfg.render_resolution
    if 0 < cfg.patch_fraction <= 1 and 8 <= res <= _SIZE_CEILING and cfg.pool_size >= 1:
        side = patch_side(cfg.patch_fraction, res)
        if side < 2:
            errors.append(f"patch_fraction: gives a patch side of {side} px, below 2")
        if side < cfg.pool_size or side % cfg.pool_size or res % cfg.pool_size:
            errors.append(
                f"pool_size: must divide the patch side {side} and "
                f"render_resolution {res}"
            )
    if cfg.negatives_keep > NEGATIVES_POOL:
        errors.append(f"negatives_keep: must be <= {NEGATIVES_POOL}")
    if cfg.render_resolution < 8:
        errors.append("render_resolution: must be >= 8")
    for name in _SIZE_FIELDS:
        if getattr(cfg, name) > _SIZE_CEILING:
            errors.append(f"{name}: must be <= {_SIZE_CEILING}")
    if cfg.pool_size > _POOL_CEILING:
        errors.append(f"pool_size: must be <= {_POOL_CEILING}")
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


def _type_problems(cfg: Config) -> list[str]:
    """An int field holds an int, a float field an int or a float; never a bool."""
    problems = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
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
    return Config(**data)


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
