"""End-to-end pipelines over the synthetic benchmarks.

Everything here is orchestration: rendering a benchmark into a training
corpus, fitting the towers, building the index, scoring queries, and
the pose experiment. Training pairs are labeled by the double-threshold
rule on rect footprint IoU (theta_pos, theta_neg); anchors live in the
image domain (shaded renders at views nudged off the canonical grid),
candidates in the shape domain (the same records the index holds,
enumerated by the same generator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NEGATIVES_POOL, Config, to_dict
from .descriptor import content_rect, coverage, sample_patches
from .embed import (
    PatchCorpus,
    TowerParams,
    first_layer,
    image_patch_features,
    init_params,
    train,
)
from .errors import NoRetrievalError, TrainingError
from .index import (
    PatchIndex,
    Renders,
    _render,
    build_index,
    derive_seed,
    enumerate_view_patches,
    render_views,
    retrieve_shape,
)
from .metrics import build_report, rotation_error
from .pose import (
    POSE_BINS,
    PoseDataset,
    PoseHeadParams,
    assign_rotation_bin,
    compose_rotation,
    pose_forward,
    train_pose_head,
)
from .render import SCENE_LIGHT, rasterize, shade
from .synth import Benchmark, generate_benchmark
from .views import (
    ViewSet,
    canonical_quat,
    nearest_medoid,
    perturb_quat,
    quat_geodesic,
    random_rotations,
    rotation_grid,
)

# seed streams hanging off cfg.seed; collisions would correlate sampling
# decisions that must stay independent. The offsets below are disjoint
# from one another only: nothing keeps them apart from streams seeded in
# other modules, and some of those do collide (a query's noise and patch
# streams, embed.train's and init_params' draws, generate_benchmark's),
# as the FOUND line on seed streams in CHANGES.md sets out.
_ANCHOR_RECT_BASE = 1
_NEG_SUBSAMPLE_BASE = 2
_ANCHOR_NOISE_BASE = 3
_ANCHOR_ROT_OFFSET = 7
_VIEW_SELECT_OFFSET = 11
_POSE_MEDOID_OFFSET = 13
_POSE_TRAIN_OFFSET = 17
_POSE_EVAL_OFFSET = 19

# patches sampled per anchor view and per candidate view in the training
# corpus
_ANCHOR_PATCHES = 8
_CANDIDATE_PATCHES = 64
# full-object samples per database shape the pose head trains and is scored on
_POSE_TRAIN_PER_SHAPE = 24
_POSE_EVAL_PER_SHAPE = 8


def select_views(cfg: Config) -> ViewSet:
    """The canonical view grid, a rotation grid of cfg.num_views medoids.

    The one place the grid is decided: the index, the training corpus and
    the benchmark's query offsets (generate_benchmark's base_views) all
    take it from here.
    """
    return rotation_grid(cfg.num_views, cfg.seed + _VIEW_SELECT_OFFSET)


def render_query(mesh, view, cfg: Config, seed: int):
    """Shaded render of a mesh under the fixed scene light at the given view."""
    nmap = rasterize(mesh, view, cfg.render_resolution)
    shaded = shade(nmap, cfg.shade_noise, seed)
    return shaded, nmap


def _rect_iou(rects: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Intersection over union of (k, 4) rows against (M, 4) rows, (k, M).

    Rows are (x, y, w, h).
    """
    a, b = rects[:, None, :], cands[None, :, :]
    x0 = np.maximum(a[..., 0], b[..., 0])
    y0 = np.maximum(a[..., 1], b[..., 1])
    x1 = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
    y1 = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
    inter = np.maximum(0, x1 - x0) * np.maximum(0, y1 - y0)
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return inter / union


def build_corpus(
    bench: Benchmark,
    views: ViewSet,
    cfg: Config,
    patches_per_view: int,
    renders: Renders | None = None,
) -> PatchCorpus:
    """Label image-domain anchors against shape-domain candidates.

    Anchors are patches of shaded renders of database shapes, taken at
    views perturbed off the canonical grid by the same angular band the
    benchmark queries use (one such view per canonical view and shape),
    so training sees the same view offsets retrieval has to absorb. Each
    anchor patch is pooled from its own noise draw of the render, so no
    two anchors share a pixel-exact grain pattern for the towers to
    key on.

    Both polarities follow the double-threshold rule on the rect
    footprint IoU, measured in pixel coordinates. A candidate is
    positive when it shows the same region of the same shape: it must
    come from the canonical view nearest the anchor's view and overlap
    the anchor's rect with IoU at least theta_pos. A candidate is
    negative when it comes from another shape and its footprint IoU
    stays at or below theta_neg; cross-shape records parked on the
    anchor's own position are dropped rather than pushed apart,
    because shapes share exact part dimensions by construction and a
    same-position patch of a lookalike part is often inseparable.
    An anchor with more than config.NEGATIVES_POOL negatives keeps a
    seeded sample of that many: the pool `train` mines the
    cfg.negatives_keep hardest from. The draw shapes training, not
    memory; mining from every labelled negative lowered pinned recall.

    Candidates are the records of enumerate_view_patches over the
    canonical views; `renders` (see index.render_views) lets that pass
    reuse the triangle-id maps of renders made once per pipeline. Each
    anchor view is one pass: one `shade` call draws the noise variants
    of its rects that meet cfg.min_coverage (variant i from its own
    seed stream), one
    `content_rect` call snaps every rect on its own variant, one array
    op gives the footprint IoU of all of them against every candidate,
    and one `image_patch_features` call pools the anchors that keep a
    positive and a negative. The result equals labelling one anchor at
    a time. Each anchor view packs the labels of its kept anchors into
    bit rows with one np.packbits call per polarity (see PatchCorpus);
    only an anchor whose negatives exceed the pool is visited alone, to
    clear the bits its seeded subsample drops.
    """
    db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
    blocks = [
        (
            feats.astype(np.float32),
            np.full(len(rects), sid, dtype=np.int64),
            np.full(len(rects), vid, dtype=np.int64),
            rects,
        )
        for sid, vid, feats, rects in enumerate_view_patches(
            db, views, patches_per_view, cfg, renders
        )
    ]
    if not blocks:
        raise TrainingError("no shape-domain candidates to train against")
    cand_feats, cand_sids, cand_vids, cand_rects = map(np.concatenate, zip(*blocks))
    del blocks  # the concatenation holds every candidate from here on
    sids_sorted = sorted(db)
    rot_rng = np.random.default_rng(cfg.seed + _ANCHOR_ROT_OFFSET)
    anchor_feats, pos_bits, neg_bits = [], [], []
    skipped = 0
    for sid in sids_sorted:
        for av, base in enumerate(views.medoids):
            rot = perturb_quat(base, rot_rng)
            nmap = _render(db[sid], rot, cfg.render_resolution)
            if nmap is None:
                continue
            rects = sample_patches(
                nmap,
                cfg.patch_fraction,
                _ANCHOR_PATCHES,
                derive_seed(cfg.seed + _ANCHOR_RECT_BASE, sid, av),
            )
            live = np.flatnonzero(coverage(nmap.mask, rects) >= cfg.min_coverage)
            if not len(live):
                continue
            variants = shade(
                nmap,
                cfg.shade_noise,
                [
                    derive_seed(
                        cfg.seed + _ANCHOR_NOISE_BASE,
                        sid,
                        (av + 1) * _ANCHOR_PATCHES + pi,
                    )
                    for pi in live.tolist()
                ],
            ).intensity
            snapped = content_rect(variants, nmap.mask, rects[live])
            footprint = _rect_iou(snapped, cand_rects)
            near_vid = nearest_medoid(rot, views.medoids)
            same_view = (cand_sids == sid) & (cand_vids == near_vid)
            positive = (footprint >= cfg.theta_pos) & same_view
            negative = (footprint <= cfg.theta_neg) & (cand_sids != sid)
            n_pos = np.count_nonzero(positive, axis=1)
            n_neg = np.count_nonzero(negative, axis=1)
            kept = (n_pos > 0) & (n_neg > 0)
            skipped += int(np.count_nonzero(~kept))
            if not kept.any():
                continue
            for j in np.flatnonzero(kept & (n_neg > NEGATIVES_POOL)).tolist():
                rng = np.random.default_rng(
                    derive_seed(
                        cfg.seed + _NEG_SUBSAMPLE_BASE,
                        sid,
                        av * _ANCHOR_PATCHES + int(live[j]),
                    )
                )
                sample = rng.choice(
                    np.flatnonzero(negative[j]), NEGATIVES_POOL, replace=False
                )
                negative[j] = False
                negative[j, sample] = True
            pos_bits.append(np.packbits(positive[kept], axis=1))
            neg_bits.append(np.packbits(negative[kept], axis=1))
            anchor_feats.append(
                image_patch_features(variants[kept], snapped[kept], cfg.pool_size)
            )
    if not anchor_feats:
        raise TrainingError("corpus has no usable anchors")
    return PatchCorpus(
        anchor_feats=np.concatenate(anchor_feats).astype(np.float32),
        cand_feats=cand_feats,
        pos_bits=np.concatenate(pos_bits),
        neg_bits=np.concatenate(neg_bits),
        skipped_anchors=skipped,
    )


@dataclass
class Pipeline:
    model: TowerParams
    index: PatchIndex
    history: list


_INDEX_JITTER_OFFSET = 29


def augment_views(views: ViewSet, extra_per_view: int, seed: int) -> ViewSet:
    """Canonical medoids plus jittered copies inside the query gap band.

    Queries sit a few degrees off the canonical grid, and pooled-cell
    matching decays quickly with view offset even after rects are
    anchored to content. Indexing each shape at the canonical views
    plus a few perturbed copies drawn from the same angular band puts a
    record within a degree or two of any query view, at a linear cost
    in index size and no change to retrieval semantics.
    """
    if extra_per_view < 1:
        return views
    rng = np.random.default_rng(seed)
    med = [np.asarray(m, dtype=np.float64) for m in views.medoids]
    for base in views.medoids:
        for _ in range(extra_per_view):
            med.append(perturb_quat(base, rng))
    return ViewSet(medoids=np.asarray(med, dtype=np.float64))


_LIT_INIT_SIGMA = 1.0


def lit_init(cfg: Config, corpus: PatchCorpus) -> TowerParams:
    """Initial towers that agree through the rendering physics.

    Two facts shape the construction. First, a rendered pixel is
    rectified Lambert shading (render.lambert, in both domains), so
    dotting a pooled normal cell with the light reproduces the pooled
    intensity cell wherever the cell faces the light. Second, a hidden relu distributes over a sum of
    same-sign terms, so a hidden unit whose input weights are local and
    nonnegative rectifies its whole receptive field at once; a dense
    random first layer cannot, which is why a plain linear map between
    the two patch domains stays poor no matter how it is fitted.

    The image tower therefore starts as a grid of nonnegative Gaussian
    bumps over the pooled cells (a blur, transparent to its own relu
    because intensities are nonnegative), one bump centred on each 2 x 2
    block of cells, so the hidden width is ceil(pool_size / 2)**2, 64 at
    the default pool of 16. The shape tower starts as those same bumps
    composed with SCENE_LIGHT, and the output layer is shared verbatim.
    Both towers then assign nearly the same embedding to an image patch
    and to the shape record it was rendered from, except where a
    receptive field straddles lit and unlit faces, and training refines
    the correspondence instead of having to rediscover the lighting from
    scratch.

    Blurred intensities share a big all-positive mean component, and a
    linear projection of vectors in a tight cone lands in a tight cone:
    left alone, every embedding would sit at cosine one from every
    other and the loss would see no spread. The shared output bias is
    therefore set to subtract the corpus's mean hidden response, so the
    normalize step measures each patch's deviation from average
    rather than its share of the common brightness. Both mean responses
    are taken through embed.first_layer, the towers' own first layer at
    their zero b1, which reads the f32 corpus in row blocks, so no f64
    copy of the candidates is made.
    """
    pool = cfg.pool_size
    cells = pool * pool
    ticks = np.arange(0, pool, 2) + 0.5
    cy, cx = (g.reshape(-1) for g in np.meshgrid(ticks, ticks, indexing="ij"))
    params = init_params(
        d_in_image=cells,
        d_in_shape=3 * cells,
        h=len(cy),
        d=cfg.embed_dim,
        seed=cfg.seed,
    )
    gy, gx = np.meshgrid(np.arange(pool), np.arange(pool), indexing="ij")
    d2 = (gy.reshape(-1)[:, None] - cy[None]) ** 2
    d2 += (gx.reshape(-1)[:, None] - cx[None]) ** 2
    W1 = np.exp(-d2 / (2.0 * _LIT_INIT_SIGMA**2))
    W1 /= np.linalg.norm(W1, axis=0, keepdims=True)
    params.image.W1 = W1
    # row 3 * i + c of the shape W1 is SCENE_LIGHT[c] * W1[i]
    params.shape.W1 = (W1[:, None, :] * SCENE_LIGHT[:, None]).reshape(3 * cells, -1)
    params.shape.W2 = params.image.W2.copy()
    h_img = first_layer(params.image, corpus.anchor_feats)
    h_shp = first_layer(params.shape, corpus.cand_feats)
    h_bar = 0.5 * (h_img.mean(axis=0) + h_shp.mean(axis=0))
    center = -(h_bar @ params.image.W2)
    params.image.b2 = center.copy()
    params.shape.b2 = center.copy()
    return params


def train_pipeline(
    bench: Benchmark,
    cfg: Config,
    views: ViewSet,
    index_view_jitter: int = 3,
    index_patches_per_view: int = 256,
) -> Pipeline:
    """Corpus, training and index build over the benchmark's database shapes.

    The corpus draws _CANDIDATE_PATCHES rects per canonical view; the
    index draws index_patches_per_view at each canonical view and at
    index_view_jitter jittered copies of each (augment_views).
    """
    db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
    # the corpus and the index both draw records at the canonical views:
    # rasterize each (shape, view) once and hand both passes its held
    # triangle ids, from which each rebuilds the normal map it needs
    renders = render_views(db, views, cfg.render_resolution)
    corpus = build_corpus(bench, views, cfg, _CANDIDATE_PATCHES, renders=renders)
    model = lit_init(cfg, corpus)
    history = train(corpus, cfg, model)
    index_views = augment_views(
        views, index_view_jitter, cfg.seed + _INDEX_JITTER_OFFSET
    )
    index = build_index(
        db, index_views, model, index_patches_per_view, cfg, renders=renders
    )
    return Pipeline(model=model, index=index, history=history)


def evaluate_queries(bench: Benchmark, pipe: Pipeline, cfg: Config):
    """Score every benchmark query; a fully excluded query scores a miss."""
    results, gts = [], []
    for q in bench.queries:
        entry = bench.shapes[q.shape_id]
        shaded, _ = render_query(entry.mesh, q.view_quat, cfg, q.aug_seed)
        try:
            res = retrieve_shape(
                pipe.index, shaded, shaded.mask, pipe.model,
                cfg.kq, cfg.kr, seed=q.aug_seed + 1, cfg=cfg,
                category=entry.spec.category,
            )
        except NoRetrievalError:
            res = []
        results.append(res)
        gts.append(q.gt_shape_id)
    return results, gts


def run_retrieval_experiment(
    cfg: Config,
    num_shapes: int = 20,
    leave_out: float = 0.0,
    views_per_query: int = 5,
):
    views = select_views(cfg)
    bench = generate_benchmark(
        num_shapes, leave_out, views_per_query, cfg.seed, views.medoids
    )
    pipe = train_pipeline(bench, cfg, views)
    results, gts = evaluate_queries(bench, pipe, cfg)
    report = build_report(results, gts, config=to_dict(cfg))
    return report, pipe, bench


# ---------------------------------------------------------------------------
# pose experiments


def pose_samples(
    shapes: dict, cfg: Config, medoids: np.ndarray, per_shape: int, seed: int
):
    """Full-object pose samples; returns the dataset plus the gt rotations."""
    sids = sorted(shapes)
    rots = random_rotations(len(sids) * per_shape, seed)
    res = cfg.render_resolution
    whole = np.array([[0, 0, res, res]])
    n = len(rots)
    feats = np.empty((n, cfg.pool_size * cfg.pool_size), dtype=np.float64)
    bins = np.empty(n, dtype=np.int64)
    offsets = np.empty((n, 4), dtype=np.float64)
    idx = 0
    for sid in sids:
        for j in range(per_shape):
            rot = rots[idx]
            shaded, _ = render_query(shapes[sid], rot, cfg, derive_seed(seed, sid, j))
            feats[idx] = image_patch_features(shaded.intensity, whole, cfg.pool_size)[0]
            b, resid = assign_rotation_bin(medoids, rot)
            bins[idx] = b
            offsets[idx] = resid
            idx += 1
    return PoseDataset(feats, bins, offsets), rots


@dataclass
class PoseEvaluation:
    bin_accuracy: float
    median_error_deg: float
    median_bin_radius_deg: float
    params: PoseHeadParams
    medoids: np.ndarray
    history: list


def run_pose_experiment(bench: Benchmark, cfg: Config) -> PoseEvaluation:
    """Train the pose head on _POSE_TRAIN_PER_SHAPE random rotations of
    each database shape and score it on _POSE_EVAL_PER_SHAPE others."""
    medoids = rotation_grid(POSE_BINS, cfg.seed + _POSE_MEDOID_OFFSET).medoids
    db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
    train_ds, _ = pose_samples(
        db, cfg, medoids, _POSE_TRAIN_PER_SHAPE, cfg.seed + _POSE_TRAIN_OFFSET
    )
    eval_ds, eval_rots = pose_samples(
        db, cfg, medoids, _POSE_EVAL_PER_SHAPE, cfg.seed + _POSE_EVAL_OFFSET
    )
    result = train_pose_head(train_ds, cfg)
    logits, offs, _ = pose_forward(result.params, eval_ds.features)
    pred_bins = logits.argmax(axis=1)
    accuracy = float(np.mean(pred_bins == eval_ds.gt_bins))
    errors = np.empty(len(eval_rots))
    radii = np.empty(len(eval_rots))
    for i, rot in enumerate(eval_rots):
        composed = compose_rotation(medoids, pred_bins[i], canonical_quat(offs[i]))
        errors[i] = rotation_error(composed, rot)
        radii[i] = np.degrees(quat_geodesic(rot, medoids[eval_ds.gt_bins[i]]))
    return PoseEvaluation(
        bin_accuracy=accuracy,
        median_error_deg=float(np.median(errors)),
        median_bin_radius_deg=float(np.median(radii)),
        params=result.params,
        medoids=medoids,
        history=result.history,
    )
