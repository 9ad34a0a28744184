"""Pose head: rotation-bin classification plus quaternion refinement.

Rotation space is quantized into POSE_BINS medoid bins; the head
classifies the bin with cross entropy and regresses a residual
quaternion under a Huber loss of width HUBER_DELTA. The final rotation
is offset (x) medoid, in that fixed order. The head itself is linear
over pooled whole-object render features, trained with the same plain
SGD as the embedding towers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .embed import _normalize_backward, _normalize_rows, _sgd_step
from .errors import TrainingError
from .views import canonical_quat, nearest_medoid, quat_conj, quat_mul

HUBER_DELTA = 1.0  # width of the offset loss's quadratic zone
POSE_BINS = 16  # rotation bins the head classifies, one logit each


@dataclass
class PoseHeadParams:
    Wc: np.ndarray  # (d_in, K) bin logits
    bc: np.ndarray
    Wq: np.ndarray  # (d_in, 4) offset quaternion (pre-normalization)
    bq: np.ndarray

    def arrays(self):
        return (self.Wc, self.bc, self.Wq, self.bq)


def init_pose_head(d_in: int, k: int, seed: int) -> PoseHeadParams:
    rng = np.random.default_rng(seed)
    s = np.sqrt(1.0 / d_in)
    return PoseHeadParams(
        Wc=rng.normal(0.0, s, size=(d_in, k)),
        bc=np.zeros(k),
        Wq=rng.normal(0.0, s, size=(d_in, 4)),
        bq=np.zeros(4),
    )


def huber(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    return np.where(
        a <= HUBER_DELTA, 0.5 * x * x, HUBER_DELTA * (a - 0.5 * HUBER_DELTA)
    )


def huber_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) <= HUBER_DELTA, x, HUBER_DELTA * np.sign(x))


def assign_rotation_bin(
    medoids: np.ndarray, rotation: np.ndarray
) -> tuple[int, np.ndarray]:
    """Nearest-medoid bin and the residual with residual (x) medoid = rotation."""
    idx = nearest_medoid(rotation, medoids)
    residual = canonical_quat(quat_mul(rotation, quat_conj(medoids[idx])))
    return idx, residual


def compose_rotation(
    medoids: np.ndarray, bin_index: int, offset: np.ndarray
) -> np.ndarray:
    """The rotation offset (x) medoid of a predicted bin and offset."""
    return canonical_quat(quat_mul(offset, medoids[bin_index]))


def pose_forward(params: PoseHeadParams, X: np.ndarray):
    """Head outputs for a feature batch: logits, unit offsets, and the raw
    offsets' norms (see embed._normalize_rows)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    logits = X @ params.Wc + params.bc
    offsets, norms = _normalize_rows(X @ params.Wq + params.bq)
    return logits, offsets, norms


@dataclass
class PoseDataset:
    features: np.ndarray      # (N, d_in)
    gt_bins: np.ndarray       # (N,) int
    gt_offsets: np.ndarray    # (N, 4) canonical unit quaternions


@dataclass
class PoseTrainResult:
    params: PoseHeadParams
    history: list[tuple[int, float]] = field(default_factory=list)


def pose_loss_and_grad(
    params: PoseHeadParams, data: PoseDataset
) -> tuple[float, PoseHeadParams]:
    """Mean total loss over the batch and its analytic gradient."""
    N = len(data.features)
    if N == 0:
        raise TrainingError("empty pose batch")
    X = data.features
    logits, offsets, norms = pose_forward(params, X)

    # cross entropy
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    ce = -np.log(p[np.arange(N), data.gt_bins])
    dlogits = p.copy()
    dlogits[np.arange(N), data.gt_bins] -= 1.0

    # offset huber on sign-aligned unit quaternions
    dots = np.sum(offsets * data.gt_offsets, axis=1)
    signs = np.where(dots < 0, -1.0, 1.0)
    aligned = offsets * signs[:, None]
    qres = aligned - data.gt_offsets
    off_loss = huber(qres).sum(axis=1)
    daligned = huber_grad(qres)
    draw = _normalize_backward(daligned * signs[:, None], offsets, norms)

    total = float((ce + off_loss).mean())
    scale = 1.0 / N
    grad = PoseHeadParams(
        Wc=X.T @ dlogits * scale,
        bc=dlogits.sum(axis=0) * scale,
        Wq=X.T @ draw * scale,
        bq=draw.sum(axis=0) * scale,
    )
    return total, grad


def train_pose_head(data: PoseDataset, cfg: Config) -> PoseTrainResult:
    """Mini-batch SGD on the combined pose loss; seed-deterministic."""
    N = len(data.features)
    if N == 0:
        raise TrainingError("empty pose dataset")
    if data.gt_bins.min() < 0 or data.gt_bins.max() >= POSE_BINS:
        raise TrainingError(f"gt bins must lie in [0, POSE_BINS={POSE_BINS})")
    params = init_pose_head(data.features.shape[1], POSE_BINS, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 2)
    history = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(N)
        total = 0.0
        for start in range(0, N, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            batch = PoseDataset(
                features=data.features[idx],
                gt_bins=data.gt_bins[idx],
                gt_offsets=data.gt_offsets[idx],
            )
            loss, grad = pose_loss_and_grad(params, batch)
            total += loss * len(idx)
            _sgd_step(params, grad, cfg.learning_rate)
        history.append((epoch, total / N))
    return PoseTrainResult(params=params, history=history)
