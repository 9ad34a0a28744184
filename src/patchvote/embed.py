"""Two-tower patch embeddings and the averaged-positive contrastive loss.

Both towers are small two-layer perceptrons over average-pooled patch
features: the image tower eats P*P intensities, the shape tower eats
3*P*P normal components. Outputs are L2-normalized, similarities are
tau-scaled cosines, and the loss for an anchor compares the MEAN
exponentiated similarity over its positives against the mean over its
mined negatives. Gradients are derived by hand and checked against
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifact import Reader, f4, pack
from .config import Config
from .descriptor import PatchRect, rect_windows
from .errors import FormatError, TrainingError

MODEL_MAGIC = b"P2CM"
MODEL_VERSION = 1
NORM_EPS = 1e-8


@dataclass
class Tower:
    W1: np.ndarray  # (d_in, h)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (h, d)
    b2: np.ndarray  # (d,)

    def copy(self) -> "Tower":
        return Tower(*(a.copy() for a in self.arrays()))

    def arrays(self):
        return (self.W1, self.b1, self.W2, self.b2)


@dataclass
class TowerParams:
    image: Tower
    shape: Tower

    def copy(self) -> "TowerParams":
        return TowerParams(self.image.copy(), self.shape.copy())


def init_params(
    d_in_image: int, d_in_shape: int, h: int, d: int, seed: int
) -> TowerParams:
    """Independent He-style init for both towers, biases zero."""
    rng = np.random.default_rng(seed)

    def tower(d_in: int) -> Tower:
        return Tower(
            W1=rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, h)),
            b1=np.zeros(h),
            W2=rng.normal(0.0, np.sqrt(2.0 / h), size=(h, d)),
            b2=np.zeros(d),
        )

    return TowerParams(image=tower(d_in_image), shape=tower(d_in_shape))


def _pool_windows(stack: np.ndarray, pool: int) -> np.ndarray:
    """Average-pool each (h, w) or (h, w, c) block of a stack to pool x pool.

    Bin edges come from floor(i * size / pool), so uneven sizes get
    deterministic, nearly equal bins. The stack's blocks are summed
    together, two `reduceat` calls in all, each cell in the same order
    as a block pooled on its own. Returns (N, pool * pool [* c]) f64.
    """
    h, w = stack.shape[1:3]
    if h < pool or w < pool:
        raise ValueError(f"patch {h}x{w} smaller than pool size {pool}")
    ye = (np.arange(pool + 1) * h) // pool
    xe = (np.arange(pool + 1) * w) // pool
    rows = np.add.reduceat(stack.astype(np.float64), ye[:-1], axis=1)
    cells = np.add.reduceat(rows, xe[:-1], axis=2)
    counts = np.outer(np.diff(ye), np.diff(xe)).astype(np.float64)
    if stack.ndim == 4:
        counts = counts[:, :, None]
    return (cells / counts).reshape(len(stack), -1)


def pool_patch(block: np.ndarray, pool: int) -> np.ndarray:
    """Average-pool one (h, w) or (h, w, c) block to pool x pool, flattened."""
    return _pool_windows(block[None], pool)[0]


def _rect_features(raster: np.ndarray, rects, pool: int, stacked: bool = False):
    if isinstance(rects, PatchRect):
        return _rect_features(raster, [rects], pool)[0]
    return _pool_windows(rect_windows(raster, rects, stacked), pool)


def image_patch_features(
    intensity: np.ndarray, rects, pool: int, stacked: bool = False
) -> np.ndarray:
    """Pooled intensities of one rect, (P*P,), or of same-size rects, (N, P*P).

    With `stacked`, the intensity is an (N, H, W) stack holding one
    raster per rect, and each rect is pooled from its own layer.
    """
    return _rect_features(intensity, rects, pool, stacked)


def shape_patch_features(normals: np.ndarray, rects, pool: int) -> np.ndarray:
    """Pooled normals of one rect, (3*P*P,), or of same-size rects, (N, 3*P*P)."""
    return _rect_features(normals, rects, pool)


def _normalize_rows(pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize rows; returns (Y, effective pre) after the epsilon fix."""
    pre = pre.copy()
    norms = np.linalg.norm(pre, axis=1)
    tiny = norms < NORM_EPS
    if tiny.any():
        pre[tiny, 0] += NORM_EPS
        norms = np.linalg.norm(pre, axis=1)
    return pre / norms[:, None], pre


@dataclass
class TowerTrace:
    """Forward intermediates kept for the backward pass."""

    X: np.ndarray
    pre1: np.ndarray
    h1: np.ndarray
    pre2: np.ndarray  # after epsilon fix
    Y: np.ndarray


def tower_forward(t: Tower, X: np.ndarray) -> TowerTrace:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != t.W1.shape[0]:
        raise ValueError(
            f"feature dim {X.shape[1]} does not match tower d_in {t.W1.shape[0]}"
        )
    pre1 = X @ t.W1 + t.b1
    h1 = np.maximum(pre1, 0.0)
    pre2 = h1 @ t.W2 + t.b2
    Y, pre2 = _normalize_rows(pre2)
    return TowerTrace(X=X, pre1=pre1, h1=h1, pre2=pre2, Y=Y)


def embed_forward(params: TowerParams, tower: str, x: np.ndarray) -> np.ndarray:
    t = params.image if tower == "image" else params.shape
    return tower_forward(t, x).Y[0]


def tower_backward(t: Tower, trace: TowerTrace, dY: np.ndarray) -> Tower:
    """Gradients of the loss w.r.t. one tower's parameters.

    Backprop through normalization: with y = u/|u|,
    dL/du = (dY - (dY . y) y) / |u|.
    """
    norms = np.linalg.norm(trace.pre2, axis=1, keepdims=True)
    dpre2 = (dY - np.sum(dY * trace.Y, axis=1, keepdims=True) * trace.Y) / norms
    dW2 = trace.h1.T @ dpre2
    db2 = dpre2.sum(axis=0)
    dh1 = dpre2 @ t.W2.T
    dpre1 = dh1 * (trace.pre1 > 0)
    dW1 = trace.X.T @ dpre1
    db1 = dpre1.sum(axis=0)
    return Tower(W1=dW1, b1=db1, W2=dW2, b2=db2)


@dataclass
class TrainingBatch:
    """Anchors plus the unique candidate pool they reference.

    pos_ids/neg_ids index rows of cand_feats; every anchor must carry at
    least one of each.
    """

    anchor_feats: np.ndarray        # (A, d_in_image)
    cand_feats: np.ndarray          # (M, d_in_shape)
    pos_ids: list[np.ndarray]
    neg_ids: list[np.ndarray]


def nce_loss_and_grad(
    params: TowerParams, batch: TrainingBatch, cfg: Config
) -> tuple[float, TowerParams]:
    """Loss summed over anchors and its analytic parameter gradient.

    Per anchor: loss = -log(Dp / (Dp + C * Dn)), with Dp and Dn the means
    of exp(cos/tau) over positives and negatives. Cosine arguments are
    bounded by 1/tau, so the exponentials never overflow in double
    precision.
    """
    A = len(batch.anchor_feats)
    if A == 0:
        raise TrainingError("batch has no anchors")
    for i in range(A):
        if len(batch.pos_ids[i]) == 0 or len(batch.neg_ids[i]) == 0:
            raise TrainingError(f"anchor {i} lacks positives or negatives")

    atrace = tower_forward(params.image, batch.anchor_feats)
    ctrace = tower_forward(params.shape, batch.cand_feats)
    sims = (atrace.Y @ ctrace.Y.T) / cfg.tau
    exps = np.exp(sims)

    loss = 0.0
    coeff = np.zeros_like(sims)  # d(loss)/d(sims), accumulated per anchor
    for i in range(A):
        p = batch.pos_ids[i]
        n = batch.neg_ids[i]
        dp = exps[i, p].mean()
        dn = exps[i, n].mean()
        denom = dp + cfg.weight_c * dn
        loss += float(np.log1p(cfg.weight_c * dn / dp))
        coeff[i, p] += (1.0 / denom - 1.0 / dp) / len(p) * exps[i, p]
        coeff[i, n] += (cfg.weight_c / denom) / len(n) * exps[i, n]

    dYa = (coeff @ ctrace.Y) / cfg.tau
    dYc = (coeff.T @ atrace.Y) / cfg.tau
    grad = TowerParams(
        image=tower_backward(params.image, atrace, dYa),
        shape=tower_backward(params.shape, ctrace, dYc),
    )
    return loss, grad


def _top_k(sims: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest sims, by similarity descending then id ascending.

    Exact partial top-k: np.partition finds the k-th highest similarity,
    and only the entries at or above it, every entry tied with the k-th
    included, are sorted, so the result is the first k of the full sort.
    A NaN compares false, stays in the sorted set, and sorts last, as in
    a full sort.
    """
    neg = -sims
    keep = np.arange(len(ids))
    if k < len(ids):
        kth = np.partition(neg, k - 1)[k - 1]
        keep = np.flatnonzero(~(neg > kth))
    return keep[np.lexsort((ids[keep], neg[keep]))[:k]]


def mine_hard_negatives(
    anchor_embedding: np.ndarray,
    candidate_ids: np.ndarray,
    candidate_embeddings: np.ndarray,
    keep: int,
) -> np.ndarray:
    """Ids of the `keep` most similar candidates (hardest negatives).

    Order: similarity descending, then id ascending. Returns everything
    if the pool is smaller than keep.
    """
    candidate_ids = np.asarray(candidate_ids)
    if len(candidate_ids) == 0:
        return candidate_ids
    sims = candidate_embeddings @ anchor_embedding
    return candidate_ids[_top_k(sims, candidate_ids, keep)]


@dataclass
class PatchCorpus:
    """Footprint-labeled training data.

    Candidate rows are shape-domain patches; per anchor we keep the rows
    labeled positive and the rows labeled negative by their rect
    footprint IoU with the anchor (see experiment.build_corpus).
    Negatives here are the full per-anchor pool; mining trims them to
    cfg.negatives_keep each epoch.
    """

    anchor_feats: np.ndarray
    cand_feats: np.ndarray
    pos_lists: list[np.ndarray]
    neg_lists: list[np.ndarray]
    skipped_anchors: int = 0  # anchors dropped at build time


@dataclass
class TrainResult:
    params: TowerParams
    history: list[tuple[int, float, int]] = field(default_factory=list)


def _sgd_step(params: TowerParams, grad: TowerParams, lr: float) -> None:
    for tower, g in ((params.image, grad.image), (params.shape, grad.shape)):
        tower.W1 -= lr * g.W1
        tower.b1 -= lr * g.b1
        tower.W2 -= lr * g.W2
        tower.b2 -= lr * g.b2


def train(corpus: PatchCorpus, cfg: Config, params: TowerParams | None = None) -> TrainResult:
    """Mini-batch SGD over the corpus with per-epoch hard-negative mining.

    Each epoch draws at most cfg.anchors_per_epoch anchors from the
    corpus without replacement, so a large corpus acts as a rotating
    supply of fresh examples rather than a small set the towers can
    memorize, while the per-epoch cost stays flat.
    Negatives are mined once per epoch against epoch-start embeddings
    (slightly stale within the epoch, but deterministic and cheap).
    Positives are never mined or subsampled: the mean inside the loss
    weights each positive by the exponential of its similarity, so the
    best-aligned correspondence dominates and the loosely-overlapping
    ones fade without needing to win on their own.
    Anchors left without positives or negatives are skipped and counted.
    """
    A = len(corpus.anchor_feats)
    if A == 0:
        raise TrainingError("empty corpus: no anchors")
    if params is None:
        params = init_params(
            d_in_image=corpus.anchor_feats.shape[1],
            d_in_shape=corpus.cand_feats.shape[1],
            h=cfg.hidden_dim,
            d=cfg.embed_dim,
            seed=cfg.seed,
        )
    rng = np.random.default_rng(cfg.seed + 1)
    history: list[tuple[int, float, int]] = []

    eligible = np.array(
        [
            i
            for i in range(A)
            if len(corpus.pos_lists[i]) and len(corpus.neg_lists[i])
        ],
        dtype=np.int64,
    )
    skipped = A - len(eligible) + corpus.skipped_anchors
    if len(eligible) == 0:
        raise TrainingError("all anchors skipped: nothing to train on")

    for epoch in range(cfg.epochs):
        if len(eligible) > cfg.anchors_per_epoch:
            sel = rng.choice(eligible, cfg.anchors_per_epoch, replace=False)
        else:
            sel = eligible.copy()
        rng.shuffle(sel)
        atrace = tower_forward(params.image, corpus.anchor_feats[sel])
        ctrace = tower_forward(params.shape, corpus.cand_feats)
        mined: dict[int, np.ndarray] = {}
        for k, i in enumerate(sel):
            neg = corpus.neg_lists[i]
            mined[int(i)] = mine_hard_negatives(
                atrace.Y[k], neg, ctrace.Y[neg], cfg.negatives_keep
            )

        total = 0.0
        for start in range(0, len(sel), cfg.batch_size):
            chunk = [int(i) for i in sel[start : start + cfg.batch_size]]
            rows = np.unique(
                np.concatenate([corpus.pos_lists[i] for i in chunk]
                               + [mined[i] for i in chunk])
            )
            batch = TrainingBatch(
                anchor_feats=corpus.anchor_feats[chunk],
                cand_feats=corpus.cand_feats[rows],
                pos_ids=[
                    np.searchsorted(rows, corpus.pos_lists[i]) for i in chunk
                ],
                neg_ids=[np.searchsorted(rows, mined[i]) for i in chunk],
            )
            loss, grad = nce_loss_and_grad(params, batch, cfg)
            total += loss
            _sgd_step(params, grad, cfg.learning_rate / len(chunk))
        history.append((epoch, total / len(sel), skipped))

    return TrainResult(params=params, history=history)


# ---------------------------------------------------------------------------
# model file format


def save_model(
    params: TowerParams,
    path: str,
    sections: dict[bytes, bytes] | None = None,
) -> None:
    """Write the two towers, then optional tagged sections.

    Each extra section is a 4-byte tag, u32 payload length, payload.
    Known tags: CFG0 (canonical config JSON), POSE (pose head blob).
    """
    d_in_image, h = params.image.W1.shape
    d_in_shape = params.shape.W1.shape[0]
    d = params.image.W2.shape[1]
    blocks = []
    for tag, payload in (sections or {}).items():
        if len(tag) != 4:
            raise FormatError(f"section tag must be 4 bytes, got {tag!r}")
        blocks.append(pack(tag, (len(payload),), payload))
    header = (MODEL_VERSION, d_in_image, d_in_shape, h, d)
    towers = f4(*params.image.arrays(), *params.shape.arrays())
    with open(path, "wb") as fh:
        fh.write(pack(MODEL_MAGIC, header, *towers, *blocks))


def load_model(path: str) -> tuple[TowerParams, dict[bytes, bytes]]:
    with open(path, "rb") as fh:
        reader = Reader(fh.read(), "model", MODEL_MAGIC)
    version, d_in_image, d_in_shape, h, d = reader.u32(5, "header")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    arrays = reader.f4(
        [(d_in_image, h), (h,), (h, d), (d,), (d_in_shape, h), (h,), (h, d), (d,)],
        "parameters",
    )
    sections: dict[bytes, bytes] = {}
    while not reader.at_end:
        tag = reader.take(4, "section header")
        (length,) = reader.u32(1, "section header")
        sections[tag] = reader.take(length, f"section {tag!r}")
    return TowerParams(image=Tower(*arrays[:4]), shape=Tower(*arrays[4:])), sections
