"""Pose head: rotation-bin classification plus quaternion refinement.

Rotation space is quantized into K medoid bins; the head classifies the
bin with cross entropy and regresses a residual quaternion and a 2D
box-relative translation, both under a Huber loss. The final rotation
is offset (x) medoid, in that fixed order. The head itself is linear
over pooled whole-object render features, trained with the same plain
SGD as the embedding towers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifact import Reader, f4, pack
from .config import Config
from .embed import _normalize_rows
from .errors import TrainingError
from .views import canonical_quat, nearest_medoid, quat_conj, quat_mul


@dataclass
class PoseHeadParams:
    Wc: np.ndarray  # (d_in, K) bin logits
    bc: np.ndarray
    Wq: np.ndarray  # (d_in, 4) offset quaternion (pre-normalization)
    bq: np.ndarray
    Wt: np.ndarray  # (d_in, 2) translation ratios
    bt: np.ndarray

    def copy(self) -> "PoseHeadParams":
        return PoseHeadParams(*(a.copy() for a in self.arrays()))

    def arrays(self):
        return (self.Wc, self.bc, self.Wq, self.bq, self.Wt, self.bt)


def init_pose_head(d_in: int, k: int, seed: int) -> PoseHeadParams:
    rng = np.random.default_rng(seed)
    s = np.sqrt(1.0 / d_in)
    return PoseHeadParams(
        Wc=rng.normal(0.0, s, size=(d_in, k)),
        bc=np.zeros(k),
        Wq=rng.normal(0.0, s, size=(d_in, 4)),
        bq=np.zeros(4),
        Wt=rng.normal(0.0, s, size=(d_in, 2)),
        bt=np.zeros(2),
    )


def huber(x: np.ndarray, delta: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    return np.where(a <= delta, 0.5 * x * x, delta * (a - 0.5 * delta))


def huber_grad(x: np.ndarray, delta: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) <= delta, x, delta * np.sign(x))


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
    """Raw head outputs for a feature batch: logits, unit offsets, translations."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    logits = X @ params.Wc + params.bc
    raw_q = X @ params.Wq + params.bq
    offsets, raw_q = _normalize_rows(raw_q)
    trans = X @ params.Wt + params.bt
    return logits, offsets, raw_q, trans


@dataclass
class PoseDataset:
    features: np.ndarray      # (N, d_in)
    gt_bins: np.ndarray       # (N,) int
    gt_offsets: np.ndarray    # (N, 4) canonical unit quaternions
    gt_translations: np.ndarray  # (N, 2)


@dataclass
class PoseTrainResult:
    params: PoseHeadParams
    history: list[tuple[int, float]] = field(default_factory=list)


def pose_loss_and_grad(
    params: PoseHeadParams, data: PoseDataset, delta: float
) -> tuple[float, PoseHeadParams]:
    """Mean total loss over the batch and its analytic gradient."""
    N = len(data.features)
    if N == 0:
        raise TrainingError("empty pose batch")
    X = data.features
    logits, offsets, raw_q, trans = pose_forward(params, X)

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
    off_loss = huber(qres, delta).sum(axis=1)
    daligned = huber_grad(qres, delta)
    dY = daligned * signs[:, None]
    norms = np.linalg.norm(raw_q, axis=1, keepdims=True)
    draw = (dY - np.sum(dY * offsets, axis=1, keepdims=True) * offsets) / norms

    # translation huber
    tres = trans - data.gt_translations
    tr_loss = huber(tres, delta).sum(axis=1)
    dtrans = huber_grad(tres, delta)

    total = float((ce + off_loss + tr_loss).mean())
    scale = 1.0 / N
    grad = PoseHeadParams(
        Wc=X.T @ dlogits * scale,
        bc=dlogits.sum(axis=0) * scale,
        Wq=X.T @ draw * scale,
        bq=draw.sum(axis=0) * scale,
        Wt=X.T @ dtrans * scale,
        bt=dtrans.sum(axis=0) * scale,
    )
    return total, grad


def train_pose_head(data: PoseDataset, cfg: Config) -> PoseTrainResult:
    """Mini-batch SGD on the combined pose loss; seed-deterministic."""
    N = len(data.features)
    if N == 0:
        raise TrainingError("empty pose dataset")
    k = max(int(data.gt_bins.max()) + 1, cfg.pose_bins)
    params = init_pose_head(data.features.shape[1], k, seed=cfg.seed)
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
                gt_translations=data.gt_translations[idx],
            )
            loss, grad = pose_loss_and_grad(params, batch, cfg.huber_delta)
            total += loss * len(idx)
            for arr, g in zip(params.arrays(), grad.arrays()):
                arr -= cfg.learning_rate * g
        history.append((epoch, total / N))
    return PoseTrainResult(params=params, history=history)


def pack_pose_section(params: PoseHeadParams, medoids: np.ndarray) -> bytes:
    """Serialize head + bins: u32 K, u32 d_in, f64 medoids, f32 weights."""
    d_in, k = params.Wc.shape
    medoids = np.ascontiguousarray(medoids, dtype="<f8")
    return pack(b"", (k, d_in), medoids, *f4(*params.arrays()))


def unpack_pose_section(blob: bytes) -> tuple[PoseHeadParams, np.ndarray]:
    reader = Reader(blob, "pose section")
    k, d_in = reader.u32(2, "header")
    medoids = reader.finite(reader.array("<f8", k * 4, "medoids"), "medoids")
    medoids = medoids.reshape(k, 4).copy()
    shapes = [(d_in, k), (k,), (d_in, 4), (4,), (d_in, 2), (2,)]
    arrays = reader.f4(shapes, "weights")
    reader.end()
    return PoseHeadParams(*arrays), medoids
