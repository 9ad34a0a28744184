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
from typing import NamedTuple

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


def _pairwise(terms: np.ndarray, lo: int, n: int) -> np.ndarray:
    """numpy's pairwise sum of terms[:, :, lo:lo + n] over axis 2, n >= 1.

    The order is numpy's for a reduction over one strided run: fewer than
    8 terms are added in sequence; up to 128 go through eight strided
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and
    the tail of fewer than 8 is added in sequence; more are split at
    n // 2 rounded down to a multiple of 8, each half summed this way.
    Sums are f64 whatever the terms' dtype; a single term comes back as is.
    """
    if n == 1:
        return terms[:, :, lo]
    if n < 8:
        total = np.add(terms[:, :, lo], terms[:, :, lo + 1], dtype=np.float64)
        for i in range(lo + 2, lo + n):
            total += terms[:, :, i]
        return total
    if n <= 128:
        end = lo + n - n % 8
        acc = terms[:, :, lo : lo + 8].astype(np.float64)
        for i in range(lo + 8, end, 8):
            acc += terms[:, :, i : i + 8]
        r = [acc[:, :, k] for k in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            total += terms[:, :, i]
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise(terms, lo, half) + _pairwise(terms, lo + half, n - half)


def _bin_cells(terms: np.ndarray) -> np.ndarray:
    """Each bin of an (M, bins, width, ...) stack of terms: its first term
    plus the pairwise sum of the rest, in f64."""
    width = terms.shape[2]
    if width == 1:
        return terms[:, :, 0].astype(np.float64)
    return np.add(terms[:, :, 0], _pairwise(terms, 1, width - 1), dtype=np.float64)


def _bin_sums(a: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sums of a (M, L, ...) stack over the bins [edges[i], edges[i+1]) of axis 1.

    Each cell is its bin's first element plus the pairwise sum of the
    rest, numpy's order for an add reduction started at each edge. Bins
    of floor(i * L / P) edges come in at most two widths. Equal widths
    are summed from a view of `a`; otherwise the bins of each width are
    gathered into one stack of terms and summed together.
    """
    m, size = a.shape[:2]
    bins = len(edges) - 1
    narrow = size // bins
    if narrow * bins == size:
        return _bin_cells(a.reshape((m, bins, narrow) + a.shape[2:]))
    out = np.empty((m, bins) + a.shape[2:])
    wide = np.diff(edges) > narrow
    for width, which in ((narrow, np.flatnonzero(~wide)), (narrow + 1, np.flatnonzero(wide))):
        out[:, which] = _bin_cells(a[:, edges[which, None] + np.arange(width)])
    return out


def _pool_windows(stack: np.ndarray, pool: int) -> np.ndarray:
    """Average-pool each (h, w) or (h, w, c) block of a stack to pool x pool.

    Bin edges come from floor(i * size / pool), so uneven sizes get
    deterministic, nearly equal bins. Rows are binned first, for every
    channel at once, then columns, one channel at a time so that every
    add runs over long strided runs. Returns (N, pool * pool [* c]) f64.

    Order contract: every cell is bit for bit what `np.add.reduceat`
    gives over the block's rows and then its columns in f64, the block
    pooled on its own; `_bin_sums` encodes numpy's summation order, and
    the oracle tests check each of its branches against live reduceat.
    """
    h, w = stack.shape[1:3]
    if h < pool or w < pool:
        raise ValueError(f"patch {h}x{w} smaller than pool size {pool}")
    ye = (np.arange(pool + 1) * h) // pool
    xe = (np.arange(pool + 1) * w) // pool
    n = len(stack)
    channels = stack.shape[3] if stack.ndim == 4 else 1
    rows = _bin_sums(stack.reshape(n, h, w * channels), ye)
    rows = rows.reshape(n * pool, w, channels)
    counts = np.outer(np.diff(ye), np.diff(xe)).astype(np.float64)
    out = np.empty((n, pool, pool, channels))
    for c in range(channels):
        cells = _bin_sums(rows[:, :, c], xe)
        np.divide(cells.reshape(n, pool, pool), counts, out=out[..., c])
    return out.reshape(n, -1)


def _rect_features(raster: np.ndarray, rects, pool: int, stacked: bool = False):
    if isinstance(rects, PatchRect):
        return _rect_features(raster, [rects], pool, stacked)[0]
    return _pool_windows(rect_windows(raster, rects, stacked), pool)


def image_patch_features(intensity: np.ndarray, rects, pool: int) -> np.ndarray:
    """Pooled intensities of one rect, (P*P,), or of same-size rects, (N, P*P).

    An intensity is single-channel, so a 3-D one is an (N, H, W) stack
    holding one raster per rect, and each rect is pooled from its own
    layer.
    """
    return _rect_features(intensity, rects, pool, stacked=intensity.ndim == 3)


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


class EpochStats(NamedTuple):
    """One training epoch: its loss and the health of its epoch-start embeddings.

    The cosines are those mining sees: the epoch's anchors against the
    candidates, both embedded with the parameters the epoch starts from.
    """

    epoch: int
    loss: float  # mean loss per anchor over the epoch's batches
    skipped: int  # anchors without positives or negatives, build-time skips included
    pos_cos: float  # mean cosine over every (anchor, positive) pair
    hard_neg_cos: float  # mean over anchors of the cosine to its hardest mined negative
    pos_beats_neg: float  # share of anchors whose best positive beats that negative


@dataclass
class TrainResult:
    params: TowerParams
    history: list[EpochStats] = field(default_factory=list)


def _sgd_step(params: TowerParams, grad: TowerParams, lr: float) -> None:
    for tower, g in ((params.image, grad.image), (params.shape, grad.shape)):
        tower.W1 -= lr * g.W1
        tower.b1 -= lr * g.b1
        tower.W2 -= lr * g.W2
        tower.b2 -= lr * g.b2


def _health(
    anchor_y: np.ndarray, cand_y: np.ndarray, pos: list[np.ndarray], mined: list[np.ndarray]
) -> tuple[float, float, float]:
    """(pos_cos, hard_neg_cos, pos_beats_neg) of EpochStats, anchor k = row k.

    Each list holds one id array per anchor, mined ones hardest first.
    """
    owner = np.repeat(np.arange(len(pos)), [len(p) for p in pos])
    cos = np.einsum("ij,ij->i", cand_y[np.concatenate(pos)], anchor_y[owner])
    best = np.full(len(pos), -np.inf)
    np.maximum.at(best, owner, cos)
    hard = np.einsum("ij,ij->i", cand_y[[m[0] for m in mined]], anchor_y)
    return float(cos.mean()), float(hard.mean()), float(np.mean(best > hard))


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
    Each epoch appends one EpochStats row to the history.
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
    history: list[EpochStats] = []

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

    # a batch's candidate rows are the marked ids in ascending order, and
    # slot maps each of them to its row in the batch; both are reused
    mark = np.zeros(len(corpus.cand_feats), dtype=bool)
    slot = np.zeros(len(corpus.cand_feats), dtype=np.intp)
    for epoch in range(cfg.epochs):
        if len(eligible) > cfg.anchors_per_epoch:
            sel = rng.choice(eligible, cfg.anchors_per_epoch, replace=False)
        else:
            sel = eligible.copy()
        rng.shuffle(sel)
        anchor_y = tower_forward(params.image, corpus.anchor_feats[sel]).Y
        cand_y = tower_forward(params.shape, corpus.cand_feats).Y
        pos = [corpus.pos_lists[i] for i in sel]
        mined = []
        for k, i in enumerate(sel):
            neg = corpus.neg_lists[i]
            mined.append(
                mine_hard_negatives(anchor_y[k], neg, cand_y[neg], cfg.negatives_keep)
            )
        health = _health(anchor_y, cand_y, pos, mined)

        total = 0.0
        for start in range(0, len(sel), cfg.batch_size):
            end = start + cfg.batch_size
            mark[np.concatenate(pos[start:end] + mined[start:end])] = True
            rows = np.flatnonzero(mark)
            mark[rows] = False
            slot[rows] = np.arange(len(rows))
            batch = TrainingBatch(
                anchor_feats=corpus.anchor_feats[sel[start:end]],
                cand_feats=corpus.cand_feats[rows],
                pos_ids=[slot[p] for p in pos[start:end]],
                neg_ids=[slot[m] for m in mined[start:end]],
            )
            loss, grad = nce_loss_and_grad(params, batch, cfg)
            total += loss
            _sgd_step(params, grad, cfg.learning_rate / len(batch.anchor_feats))
        history.append(EpochStats(epoch, total / len(sel), skipped, *health))

    return TrainResult(params=params, history=history)


# ---------------------------------------------------------------------------
# model file format


def save_model(params: TowerParams, path: str) -> None:
    """Write the image tower, then the shape tower, as f32 blocks."""
    d_in_image, h = params.image.W1.shape
    d_in_shape = params.shape.W1.shape[0]
    d = params.image.W2.shape[1]
    header = (MODEL_VERSION, d_in_image, d_in_shape, h, d)
    towers = f4(*params.image.arrays(), *params.shape.arrays())
    with open(path, "wb") as fh:
        fh.write(pack(MODEL_MAGIC, header, *towers))


def load_model(path: str) -> tuple[TowerParams, dict]:
    with open(path, "rb") as fh:
        reader = Reader(fh.read(), "model", MODEL_MAGIC)
    version, d_in_image, d_in_shape, h, d = reader.u32(5, "header")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    arrays = reader.f4(
        [(d_in_image, h), (h,), (h, d), (d,), (d_in_shape, h), (h,), (h, d), (d,)],
        "parameters",
    )
    reader.end()
    # the empty dict keeps the (model, sections) pair perfbench/workloads.py unpacks
    return TowerParams(image=Tower(*arrays[:4]), shape=Tower(*arrays[4:])), {}
