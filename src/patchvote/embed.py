"""Two-tower patch embeddings and the averaged-positive contrastive loss.

Both towers are small two-layer perceptrons over average-pooled patch
features: the image tower eats P*P intensities, the shape tower eats
3*P*P normal components. Outputs are L2-normalized, similarities are
tau-scaled cosines, and the loss for an anchor compares the MEAN
exponentiated similarity over its positives against the mean over its
mined negatives. Gradients are derived by hand and checked against
finite differences in the test suite.

A tower's first layer reads its input in blocks (first_layer): forward,
near-equal blocks of at most _ROW_BLOCK rows; backward, the weight
gradient X.T @ dpre1 in column blocks of at most _COL_BLOCK input
features over every row. An f64 block is multiplied where it lies, an
f32 one widened, and no scratch buffer is kept. A trace keeps the input
as given and the backward pass reads it again, so `train` and
experiment.lit_init hand the f32 candidate corpus itself, and a batch
the rows it uses, to the shape tower: no f64 array the size of the
corpus is allocated. Both kinds of block round exactly as one dense f64
product does. The corpus stores each anchor's labels as one packed bit
row (see PatchCorpus), and `train` decodes an anchor's row into int32
ids only when it needs them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .artifact import Reader, f4, pack, read_file
from .config import Config
from .descriptor import rect_windows
from .errors import FormatError, TrainingError

MODEL_MAGIC = b"P2CM"
MODEL_VERSION = 1
NORM_EPS = 1e-8
TOPK_GROUP = 64  # entries per strided group of the top-k cut (see _top_k)
_ROW_BLOCK = 512  # most input rows per block of first_layer
_COL_BLOCK = 64  # most input features per block of _first_layer_grad
_ANCHORS_PER_EPOCH = 512  # anchors train draws per epoch, at most


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

    def arrays(self):
        return self.image.arrays() + self.shape.arrays()


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


def _bin_totals(terms: np.ndarray) -> np.ndarray:
    """Each bin of an (M, bins, width, ...) stack of terms, in f64: its
    first term plus the sequential sum of the rest, every term widened
    before it is added."""
    width = terms.shape[2]
    if width == 1:
        return terms[:, :, 0].astype(np.float64)
    rest = terms[:, :, 1]
    if width > 2:
        rest = np.add(rest, terms[:, :, 2], dtype=np.float64)
        for i in range(3, width):
            rest += terms[:, :, i]
    return np.add(terms[:, :, 0], rest, dtype=np.float64)


def _pool_windows(stack: np.ndarray, pool: int) -> np.ndarray:
    """Average-pool each (h, w) or (h, w, c) block of a stack to pool x pool.

    Both sides must split into pool equal bins, as a Config checks.
    Rows are binned first, for every channel at once, then columns, one
    channel at a time so that every add runs over long strided runs.
    Returns (N, pool * pool [* c]) f64.

    Order contract: each cell is its bin's first term plus the
    sequential sum of the rest, rows and then columns, in f64. For bins
    of up to 8 terms per axis, which covers every geometry the pipeline
    pools, that is `np.add.reduceat`'s order over the block, bit for
    bit. From 9 terms on, numpy sums the rest pairwise, so wider bins
    can round apart from reduceat.
    """
    n, h, w = stack.shape[:3]
    if min(h, w) < pool or h % pool or w % pool:
        raise ValueError(f"patch {h}x{w} does not split into {pool} x {pool} equal bins")
    channels = stack.shape[3] if stack.ndim == 4 else 1
    rows = _bin_totals(stack.reshape(n, pool, h // pool, w * channels))
    rows = rows.reshape(n * pool, pool, w // pool, channels)
    count = float((h // pool) * (w // pool))
    out = np.empty((n, pool, pool, channels))
    for c in range(channels):
        cells = _bin_totals(rows[..., c])
        np.divide(cells.reshape(n, pool, pool), count, out=out[..., c])
    return out.reshape(n, -1)


def image_patch_features(
    intensity: np.ndarray, rects: np.ndarray, pool: int
) -> np.ndarray:
    """Pooled intensities of (N, 4) same-size rects, (N, pool * pool) f64.

    An intensity is single-channel, so a 3-D one is an (N, H, W) stack
    holding one raster per rect, and each rect is pooled from its own
    layer. Each side of the rects must be a multiple of pool, or a
    ValueError names the side and the pool. That holds for query
    rasters too, whose size a Config cannot see.
    """
    return _pool_windows(rect_windows(intensity, rects, intensity.ndim == 3), pool)


def shape_patch_features(
    normals: np.ndarray, rects: np.ndarray, pool: int
) -> np.ndarray:
    """Pooled normals of (N, 4) same-size rects, (N, 3 * pool * pool) f64."""
    return _pool_windows(rect_windows(normals, rects), pool)


def _normalize_rows(pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize rows in place; returns (Y, row norms), Y being `pre`.
    A row of norm below NORM_EPS first gets NORM_EPS on its first entry."""
    norms = np.linalg.norm(pre, axis=1)
    tiny = norms < NORM_EPS
    if tiny.any():
        pre[tiny, 0] += NORM_EPS
        norms = np.linalg.norm(pre, axis=1)
    pre /= norms[:, None]
    return pre, norms


def _normalize_backward(dY: np.ndarray, Y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the rows of _normalize_rows, given it w.r.t. Y and their norms.

    With y = u/|u|, dL/du = (dY - (dY . y) y) / |u|. It is computed in
    place: dY is overwritten with the result and returned.
    """
    proj = dY * Y
    np.multiply(proj.sum(axis=1, keepdims=True), Y, out=proj)
    dY -= proj
    dY /= norms[:, None]
    return dY


def _spans(n: int, most: int) -> list[tuple[int, int]]:
    """ceil(n / most) near-equal spans covering range(n), one if n <= most.

    Span lengths differ by at most one, so no span is a short tail: past
    one span, each holds more than most / 2 entries.
    """
    k = max(1, -(-n // most))
    cuts = [n * i // k for i in range(k + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def first_layer(t: Tower, X: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """relu(X @ W1 + b1), or relu(X[rows] @ W1 + b1), as (n, h) f64.

    X is 2-D of any real dtype, typically the f32 candidate corpus. Its
    rows are read in near-equal blocks of at most _ROW_BLOCK rows (see
    _spans), each multiplied by W1 where it lies (numpy widens an f32
    block), so no f64 copy of the whole input is made. Under OpenBLAS a
    block of 64 rows or more rounds exactly as the same rows of one
    whole-input product, so the result is that product's, bit for bit; a
    short tail block would not (a 1-row or 7-row block of a 768-wide
    input rounds apart in every row).
    """
    n = len(X) if rows is None else len(rows)
    h1 = np.empty((n, t.W1.shape[1]))
    for lo, hi in _spans(n, _ROW_BLOCK):
        block = X[lo:hi] if rows is None else X[rows[lo:hi]]
        np.matmul(block, t.W1, out=h1[lo:hi])
    h1 += t.b1
    np.maximum(h1, 0.0, out=h1)
    return h1


def _first_layer_grad(
    X: np.ndarray, rows: np.ndarray | None, dpre1: np.ndarray
) -> np.ndarray:
    """dW1 = X.T @ dpre1 (X[rows].T @ dpre1 given rows), (d_in, h) f64.

    The input features are read in near-equal column blocks of at most
    _COL_BLOCK over all the rows. An f64 block is multiplied where it
    lies; astype widens an f32 one before the transpose, twice as fast as
    np.matmul widening the transposed view. Each block is one product
    over every row, so every entry sums the same terms in the same order
    as one whole-input product.
    """
    d_in = X.shape[1]
    dW1 = np.empty((d_in, dpre1.shape[1]))
    for lo, hi in _spans(d_in, _COL_BLOCK):
        block = X[:, lo:hi] if rows is None else X[rows, lo:hi]
        np.matmul(block.astype(np.float64, copy=False).T, dpre1, out=dW1[lo:hi])
    return dW1


@dataclass
class TowerTrace:
    """Forward intermediates kept for the backward pass.

    The input is kept as it was given, X and its rows (None for all of
    X), not as an f64 copy: the backward pass reads it again (see
    _first_layer_grad). Neither pre-activation is kept. The relu
    overwrites the first in place, and the backward mask h1 > 0 is the
    predicate pre1 > 0, NaN and -0 included (both compare false on
    either side); the second is normalized in place into Y.
    """

    X: np.ndarray
    rows: np.ndarray | None
    h1: np.ndarray  # relu(X @ W1 + b1)
    norms: np.ndarray  # (n,) row norms of h1 @ W2 + b2 after the epsilon fix
    Y: np.ndarray


def tower_forward(
    t: Tower, X: np.ndarray, rows: np.ndarray | None = None
) -> TowerTrace:
    """One tower over the rows of X, or over X[rows] (see first_layer)."""
    X = np.atleast_2d(X)
    if X.shape[1] != t.W1.shape[0]:
        raise ValueError(
            f"feature dim {X.shape[1]} does not match tower d_in {t.W1.shape[0]}"
        )
    h1 = first_layer(t, X, rows)
    pre2 = h1 @ t.W2
    pre2 += t.b2
    Y, norms = _normalize_rows(pre2)
    return TowerTrace(X=X, rows=rows, h1=h1, norms=norms, Y=Y)


def tower_backward(t: Tower, trace: TowerTrace, dY: np.ndarray) -> Tower:
    """Gradients of the loss w.r.t. one tower's parameters; dY is overwritten."""
    dpre2 = _normalize_backward(dY, trace.Y, trace.norms)
    dW2 = trace.h1.T @ dpre2
    db2 = dpre2.sum(axis=0)
    dpre1 = dpre2 @ t.W2.T
    dpre1 *= trace.h1 > 0
    dW1 = _first_layer_grad(trace.X, trace.rows, dpre1)
    db1 = dpre1.sum(axis=0)
    return Tower(W1=dW1, b1=db1, W2=dW2, b2=db2)


@dataclass
class TrainingBatch:
    """Anchors plus the unique candidate pool they reference.

    Labels are runs, anchor by anchor: anchor k's positives are the
    pos_counts[k] entries of pos_ids after those of anchors 0..k-1, and
    likewise its negatives in neg_ids. Every count must be at least one.
    The batch's candidates are the rows cand_rows of cand_feats, or all of
    cand_feats when cand_rows is None, and ids index them in that order:
    `train` hands over the whole f32 corpus and the rows the batch uses.
    """

    anchor_feats: np.ndarray        # (A, d_in_image)
    cand_feats: np.ndarray          # (N, d_in_shape)
    pos_ids: np.ndarray             # (sum of pos_counts,)
    pos_counts: np.ndarray          # (A,)
    neg_ids: np.ndarray             # (sum of neg_counts,)
    neg_counts: np.ndarray          # (A,)
    cand_rows: np.ndarray | None = None  # (M,) rows of cand_feats, or all of them


def _run_starts(counts: np.ndarray) -> np.ndarray:
    """Offset of each run's first entry in the flat array of the runs."""
    return np.cumsum(counts) - counts


def _run_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each run of a flat f64 array, every count at least one.

    Order rule: `.mean()` adds a run's pairwise sum onto 0.0, while
    np.add.reduceat adds it onto the run's first value, so each run is
    summed with a 0.0 placed in front of it. Each mean is then bit for
    bit the run's own `.mean()`.
    """
    starts = _run_starts(counts)
    padded = np.insert(values, starts, 0.0)
    return np.add.reduceat(padded, starts + np.arange(len(starts))) / counts


def nce_loss_and_grad(
    params: TowerParams, batch: TrainingBatch, cfg: Config
) -> tuple[float, TowerParams]:
    """Loss summed over anchors and its analytic parameter gradient.

    Per anchor: loss = log(Dp + C * Dn) - log(Dp), with Dp and Dn the
    means of exp(cos/tau) over its run of positives and its run of
    negatives (see TrainingBatch). Each mean is the run's own `.mean()`
    bit for bit (see _run_means), and the gradient is accumulated into
    one coefficient matrix d(loss)/d(sims) by one scatter per label kind.

    Cosine arguments are bounded by 1/tau, and a Config keeps
    1/tau + log1p(C) below log(f64 max), so every exponential, the
    denominator Dp + C * Dn <= (1 + C) exp(1/tau), the gradient and the
    loss stay finite: a mean is at least its smallest term, so
    Dp >= exp(-1/tau) and log(Dp) is finite too.
    """
    A = len(batch.anchor_feats)
    if A == 0:
        raise TrainingError("batch has no anchors")
    # reduceat would give an empty run its neighbour's first value
    if not (np.all(batch.pos_counts > 0) and np.all(batch.neg_counts > 0)):
        raise TrainingError("every anchor needs at least one positive and one negative")

    atrace = tower_forward(params.image, batch.anchor_feats)
    ctrace = tower_forward(params.shape, batch.cand_feats, batch.cand_rows)
    exps = atrace.Y @ ctrace.Y.T
    exps /= cfg.tau
    np.exp(exps, out=exps)

    pos_row = np.repeat(np.arange(A), batch.pos_counts)
    neg_row = np.repeat(np.arange(A), batch.neg_counts)
    pos_exps = exps[pos_row, batch.pos_ids]
    neg_exps = exps[neg_row, batch.neg_ids]
    dp = _run_means(pos_exps, batch.pos_counts)
    dn = _run_means(neg_exps, batch.neg_counts)
    denom = dp + cfg.weight_c * dn
    loss = float(np.sum(np.log(denom) - np.log(dp)))
    pos_scale = (1.0 / denom - 1.0 / dp) / batch.pos_counts
    neg_scale = (cfg.weight_c / denom) / batch.neg_counts
    coeff = exps  # d(loss)/d(sims), sims = cos / tau, in the spent exps
    coeff.fill(0.0)
    coeff[pos_row, batch.pos_ids] += pos_scale[pos_row] * pos_exps
    coeff[neg_row, batch.neg_ids] += neg_scale[neg_row] * neg_exps

    dYa = coeff @ ctrace.Y
    dYa /= cfg.tau
    dYc = coeff.T @ atrace.Y
    dYc /= cfg.tau
    # none of these is read again: free them before the backward passes
    del exps, coeff, pos_row, neg_row, pos_exps, neg_exps
    grad = TowerParams(
        image=tower_backward(params.image, atrace, dYa),
        shape=tower_backward(params.shape, ctrace, dYc),
    )
    return loss, grad


def _top_k(sims: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of each row's k highest sims, by similarity descending then id ascending.

    `sims` is a block of rows (P, n) scored against the same n `ids`;
    the result is (P, k') positions along each row, k' = min(k, n).

    Exact partial top-k, once for the whole block. A cut value per row
    comes first: column j of the first TOPK_GROUP * g columns joins the
    strided group j mod g, g = n // TOPK_GROUP, and np.partition finds
    the k-th highest of the g group maxima. Each of the k best groups
    holds an entry at least that high, so the cut is at or below the
    row's own k-th highest similarity; the up to TOPK_GROUP - 1 columns
    past the groups are only filtered. When g <= k the cut is the row's
    k-th highest itself, partitioned from the whole row. Every entry not
    below the cut, every tie included, is then sorted by (row,
    similarity descending, id ascending), and each row takes its first k
    of that order, the first k of the row's full sort. A NaN compares
    false, so it stays in the sorted set and sorts last, as in a full
    sort; a group holding one has a NaN maximum, which partitions last,
    and a row with fewer than k groups free of NaN gets a NaN cut and
    keeps every entry.
    """
    P, n = sims.shape
    k = min(k, n)
    if k < n:
        g = n // TOPK_GROUP
        if g > k:
            grouped = sims[:, : g * TOPK_GROUP].reshape(P, TOPK_GROUP, g)
            candidates = grouped.max(axis=1)
        else:
            candidates = sims
        cut = -np.partition(-candidates, k - 1, axis=1)[:, k - 1 : k]
        flat = np.flatnonzero(~(sims < cut))
    else:
        flat = np.arange(P * n)
    row, col = np.divmod(flat, n)  # ascending, so each row's entries are one run
    order = np.lexsort((ids[col], -sims.ravel()[flat], row))
    # every row keeps at least k entries; row p's run starts after the
    # entries kept in the rows before it
    counts = np.bincount(row, minlength=P)
    start = np.cumsum(counts) - counts
    return col[order][start[:, None] + np.arange(k)]


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
    sims = candidate_embeddings @ anchor_embedding
    return candidate_ids[_top_k(sims[None], candidate_ids, keep)[0]]


def _unpack_row(row: np.ndarray, n: int) -> np.ndarray:
    """The ids a packed label row marks, ascending, int32."""
    # the unpacked 0/1 bytes read as bool take nonzero's fast path: on a
    # 9,775-candidate row, 13 against 47 us on uint8 (numpy 2.4, one core)
    return np.flatnonzero(np.unpackbits(row, count=n).view(bool)).astype(np.int32)


class _LabelRows:
    """Read-only per-anchor view of packed label rows: [i] decodes row i alone."""

    def __init__(self, bits: np.ndarray, n: int):
        self._bits = bits
        self._n = n

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i) -> np.ndarray:
        return _unpack_row(self._bits[operator.index(i)], self._n)


@dataclass
class PatchCorpus:
    """Footprint-labeled training data.

    Candidate rows are shape-domain patches; per anchor we keep the rows
    labeled positive and the rows labeled negative by their rect
    footprint IoU with the anchor (see experiment.build_corpus).
    Negatives here are an anchor's labeled set, or build_corpus's seeded
    sample of config.NEGATIVES_POOL of it: the pool from which mining
    takes the cfg.negatives_keep hardest each epoch.

    Each polarity is one (A, ceil(n / 8)) uint8 matrix of np.packbits
    rows, n = len(cand_feats): bit j of row i, counted from the most
    significant bit of its first byte, marks candidate j as a label of
    anchor i. So a row holds distinct ids, and it decodes to them in
    ascending order, as int32 (see pos_lists). The per-anchor counts are
    the set bits of each row, counted on access (see pos_counts), so no
    stored count can disagree with its row. A bit per (anchor,
    candidate) pair replaces int32 id lists that live through all of
    `train`: on the bench corpus (713 anchors, 4,906 candidates) a
    negative set holds a median 3,878 ids, and both polarities took
    11.1 MB as lists against 0.9 MB of bits; on the pinned run's (1,431
    anchors, 9,775 candidates), 23.5 MB against 3.5 MB.
    """

    anchor_feats: np.ndarray
    cand_feats: np.ndarray
    pos_bits: np.ndarray  # (A, ceil(n / 8)) uint8
    neg_bits: np.ndarray  # (A, ceil(n / 8)) uint8
    skipped_anchors: int = 0  # anchors dropped at build time

    @classmethod
    def from_lists(cls, anchor_feats, cand_feats, pos_lists, neg_lists) -> "PatchCorpus":
        """A corpus labelled by per-anchor id lists, for tests and microbench.

        Each polarity marks its lists in one (A, n) bool matrix, packed by
        one np.packbits call as build_corpus packs its labels; a row keeps
        a list's distinct ids, not their order.
        """

        def pack(lists):
            rows = np.zeros((len(lists), len(cand_feats)), dtype=bool)
            for k, ids in enumerate(lists):
                rows[k, ids] = True
            return np.packbits(rows, axis=1)

        return cls(anchor_feats, cand_feats, pack(pos_lists), pack(neg_lists))

    @property
    def pos_counts(self) -> np.ndarray:
        """Positives per anchor, (A,) int32: the set bits of each row."""
        return np.bitwise_count(self.pos_bits).sum(axis=1, dtype=np.int32)

    @property
    def neg_counts(self) -> np.ndarray:
        """Negatives per anchor, (A,) int32: the set bits of each row."""
        return np.bitwise_count(self.neg_bits).sum(axis=1, dtype=np.int32)

    @property
    def pos_lists(self) -> _LabelRows:
        """Anchor i's positive ids on [i], decoded from its row alone."""
        return _LabelRows(self.pos_bits, len(self.cand_feats))

    @property
    def neg_lists(self) -> _LabelRows:
        """Anchor i's negative ids on [i], decoded from its row alone."""
        return _LabelRows(self.neg_bits, len(self.cand_feats))


class EpochStats(NamedTuple):
    """One training epoch: its loss and the health of its epoch-start embeddings.

    The cosines are those mining sees: the epoch's anchors against the
    candidates, both embedded with the parameters the epoch starts from.
    The anchors build_corpus dropped are counted once, on the corpus
    (PatchCorpus.skipped_anchors), not per epoch.
    """

    epoch: int
    loss: float  # mean loss per anchor over the epoch's batches
    pos_cos: float  # mean cosine over every (anchor, positive) pair
    hard_neg_cos: float  # mean over anchors of the cosine to its hardest mined negative
    pos_beats_neg: float  # share of anchors whose best positive beats that negative


def _sgd_step(params, grad, lr: float) -> None:
    """One plain SGD update, in place, of every array of params by the
    same-position array of grad; any pair of objects with `arrays()`."""
    for arr, g in zip(params.arrays(), grad.arrays()):
        arr -= lr * g


def _health(
    anchor_y, cand_y, pos_ids, pos_counts, mined_ids, mined_counts
) -> tuple[float, float, float]:
    """(pos_cos, hard_neg_cos, pos_beats_neg) of EpochStats, anchor k = row k.

    Labels are runs as in TrainingBatch, each mined run hardest first.
    """
    owner = np.repeat(np.arange(len(pos_counts)), pos_counts)
    cos = np.einsum("ij,ij->i", cand_y[pos_ids], anchor_y[owner])
    best = np.maximum.reduceat(cos, _run_starts(pos_counts))
    hard = np.einsum("ij,ij->i", cand_y[mined_ids[_run_starts(mined_counts)]], anchor_y)
    return float(cos.mean()), float(hard.mean()), float(np.mean(best > hard))


def train(corpus: PatchCorpus, cfg: Config, params: TowerParams) -> list[EpochStats]:
    """Mini-batch SGD over the corpus with per-epoch hard-negative mining.

    Updates `params` in place; returns the per-epoch history (the
    pipeline starts from experiment.lit_init's towers).
    Each epoch draws at most _ANCHORS_PER_EPOCH anchors from the
    corpus without replacement, so a large corpus acts as a rotating
    supply of fresh examples rather than a small set the towers can
    memorize, while the per-epoch cost stays flat.
    Negatives are mined once per epoch against epoch-start embeddings
    (slightly stale within the epoch, but deterministic and cheap).
    Positives are never mined or subsampled: the mean inside the loss
    weights each positive by the exponential of its similarity, so the
    best-aligned correspondence dominates and the loosely-overlapping
    ones fade without needing to win on their own.
    Every anchor must carry a positive and a negative: build_corpus
    drops the ones that do not and counts them in skipped_anchors, and
    an unlabelled anchor here is rejected before the first epoch.
    The epoch's positives and mined negatives are laid out once as runs
    (see TrainingBatch); each batch takes its anchors' stretch of them.
    Mining writes each anchor's run straight into the epoch's one int32
    array of negatives. An anchor's label row is decoded only there, and
    when the epoch's positives are laid out; the decoded ids ascend, so
    mining's ties and the runs see them in the order of an id list.
    Each epoch appends one EpochStats row to the history.
    Every shape-tower pass reads the f32 corpus.cand_feats itself: the
    epoch-start pass all of its rows, a batch the rows its labels
    reference (TrainingBatch.cand_rows). The first layer reads them in
    blocks (first_layer, _first_layer_grad), so no f64 array shaped
    like cand_feats is allocated, nor an f32 gather of all a batch's rows.
    The epoch-start candidate embeddings are dropped once mining and
    the health row are done.
    """
    A = len(corpus.anchor_feats)
    if A == 0:
        raise TrainingError("empty corpus: no anchors")
    pos_len, neg_len = corpus.pos_counts, corpus.neg_counts
    pos_rows, neg_rows = corpus.pos_lists, corpus.neg_lists
    unlabelled = np.flatnonzero((pos_len == 0) | (neg_len == 0))
    if len(unlabelled):
        raise TrainingError(f"anchor {unlabelled[0]} lacks positives or negatives")
    rng = np.random.default_rng(cfg.seed + 1)
    history: list[EpochStats] = []

    # a batch's candidate rows are the marked ids in ascending order, and
    # slot maps each of them to its row in the batch; both are reused
    mark = np.zeros(len(corpus.cand_feats), dtype=bool)
    slot = np.zeros(len(corpus.cand_feats), dtype=np.intp)
    for epoch in range(cfg.epochs):
        if A > _ANCHORS_PER_EPOCH:
            sel = rng.choice(A, _ANCHORS_PER_EPOCH, replace=False)
        else:
            sel = np.arange(A)
        rng.shuffle(sel)
        anchor_y = tower_forward(params.image, corpus.anchor_feats[sel]).Y
        cand_y = tower_forward(params.shape, corpus.cand_feats).Y
        pos_ids = np.concatenate([pos_rows[i] for i in sel])
        pos_counts = pos_len[sel]
        neg_counts = np.minimum(neg_len[sel], cfg.negatives_keep)
        neg_at = np.r_[0, np.cumsum(neg_counts)]
        neg_ids = np.empty(neg_at[-1], dtype=np.int32)
        for k, i in enumerate(sel):
            neg = neg_rows[i]
            neg_ids[neg_at[k] : neg_at[k + 1]] = mine_hard_negatives(
                anchor_y[k], neg, cand_y[neg], cfg.negatives_keep
            )
        health = _health(anchor_y, cand_y, pos_ids, pos_counts, neg_ids, neg_counts)
        del anchor_y, cand_y

        pos_at = np.r_[0, np.cumsum(pos_counts)]
        total = 0.0
        for start in range(0, len(sel), cfg.batch_size):
            end = min(start + cfg.batch_size, len(sel))
            pos = pos_ids[pos_at[start] : pos_at[end]]
            neg = neg_ids[neg_at[start] : neg_at[end]]
            mark[pos] = mark[neg] = True
            rows = np.flatnonzero(mark)
            mark[rows] = False
            slot[rows] = np.arange(len(rows))
            batch = TrainingBatch(
                anchor_feats=corpus.anchor_feats[sel[start:end]],
                cand_feats=corpus.cand_feats,
                pos_ids=slot[pos],
                pos_counts=pos_counts[start:end],
                neg_ids=slot[neg],
                neg_counts=neg_counts[start:end],
                cand_rows=rows,
            )
            loss, grad = nce_loss_and_grad(params, batch, cfg)
            total += loss
            _sgd_step(params, grad, cfg.learning_rate / len(batch.anchor_feats))
        history.append(EpochStats(epoch, total / len(sel), *health))

    return history


# ---------------------------------------------------------------------------
# model file format


def _block_shapes(d_in_image: int, d_in_shape: int, h: int, d: int) -> list:
    """The shapes of the eight tower blocks, image tower then shape tower."""
    return [(d_in_image, h), (h,), (h, d), (d,), (d_in_shape, h), (h,), (h, d), (d,)]


def save_model(params: TowerParams, path: str) -> None:
    """Write the image tower, then the shape tower, as f32 blocks.

    Refuses, before opening the file, towers whose block shapes disagree
    with the header they give, and non-finite values.
    """
    shapes = [np.shape(a) for a in params.arrays()]
    # d_in_image, d_in_shape, h, d, as the header records them
    dims = shapes[0][:1] + shapes[4][:1] + shapes[2][:2]
    if len(dims) != 4 or shapes != _block_shapes(*dims):
        raise FormatError(f"model: parameters of shapes {shapes} are not two towers")
    header = (MODEL_VERSION, *dims)
    towers = f4("model", "parameters", *params.arrays())
    with open(path, "wb") as fh:
        fh.write(pack(MODEL_MAGIC, header, *towers))


def load_model(path: str) -> tuple[TowerParams, dict]:
    reader = Reader(read_file(path), "model", MODEL_MAGIC)
    version, *dims = reader.u32(5, "header")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    arrays = reader.f4(_block_shapes(*dims), "parameters")
    reader.end()
    # the empty dict keeps the (model, sections) pair perfbench/workloads.py unpacks
    return TowerParams(image=Tower(*arrays[:4]), shape=Tower(*arrays[4:])), {}
