import math
from dataclasses import replace

import numpy as np
import pytest

from patchvote import index as index_module
from patchvote.config import Config
from patchvote.descriptor import PatchRect, content_rect, sample_patches
from patchvote.embed import (
    PatchCorpus,
    image_patch_features,
    init_params,
    shape_patch_features,
    train,
)
from patchvote.errors import RenderError
from patchvote.experiment import (
    _ANCHOR_NOISE_BASE,
    _ANCHOR_PATCHES,
    _ANCHOR_RECT_BASE,
    _ANCHOR_ROT_OFFSET,
    _INDEX_JITTER_OFFSET,
    _NEG_SUBSAMPLE_BASE,
    augment_views,
    build_corpus,
    lit_init,
    run_pose_experiment,
    run_retrieval_experiment,
    train_pipeline,
)
from patchvote.index import (
    build_index,
    derive_seed,
    enumerate_view_patches,
    render_views,
    save_index,
)
from patchvote.render import rasterize, scene_light, shade
from patchvote.synth import QUERY_GAP_MAX, QUERY_GAP_MIN, generate_benchmark
from patchvote.views import kmedoids, perturb_quat, quat_geodesic, random_rotations

PATCHES_PER_VIEW = 6


TINY = Config(
    num_views=4,
    render_resolution=48,
    pool_size=4,
    hidden_dim=8,
    embed_dim=4,
    anchor_views=2,
    pose_bins=4,
    seed=0,
)


@pytest.fixture(scope="module")
def tiny():
    cfg = TINY
    # select_views' grid over a pool of 32 rotations, not 256
    views = kmedoids(random_rotations(32, 11), 4, 11)
    # 4 shapes with one held out: a database of 3 (chair, table, cabinet)
    bench = generate_benchmark(4, 0.25, 1, 0, views.medoids)
    return cfg, views, bench


class TestCorpusMatchesIndex:
    def test_candidate_rows_are_the_index_records(self, tiny):
        cfg, views, bench = tiny
        db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
        assert len(db) == 3
        corpus = build_corpus(bench, views, cfg, PATCHES_PER_VIEW)
        model = init_params(
            cfg.pool_size**2, 3 * cfg.pool_size**2, cfg.hidden_dim, cfg.embed_dim, 0
        )
        idx = build_index(db, views, model, PATCHES_PER_VIEW, cfg)
        assert len(corpus.cand_feats) == len(idx) > 0
        assert corpus.cand_feats.dtype == np.float32
        nmaps = {}
        for row, (sid, vid, (x, y, w, h)) in enumerate(
            zip(idx.shape_ids.tolist(), idx.view_ids.tolist(), idx.rects.tolist())
        ):
            if (sid, vid) not in nmaps:
                nmaps[sid, vid] = rasterize(
                    db[sid], views.medoids[vid], cfg.render_resolution
                )
            feats = shape_patch_features(
                nmaps[sid, vid].normals, PatchRect(x, y, w, h), cfg.pool_size
            )
            np.testing.assert_array_equal(
                corpus.cand_feats[row], feats.astype(np.float32)
            )

    def test_labels_index_candidate_rows(self, tiny):
        cfg, views, bench = tiny
        corpus = build_corpus(bench, views, cfg, PATCHES_PER_VIEW)
        n = len(corpus.cand_feats)
        assert len(corpus.anchor_feats) == len(corpus.pos_lists) > 0
        for pos, neg in zip(corpus.pos_lists, corpus.neg_lists):
            assert len(pos) and len(neg)
            assert 0 <= pos.min() and pos.max() < n
            assert 0 <= neg.min() and neg.max() < n
            assert not set(pos.tolist()) & set(neg.tolist())


class TestPoseExperiment:
    def run(self, bench):
        return run_pose_experiment(
            bench, replace(TINY, epochs=3, learning_rate=0.1),
            train_per_shape=3, eval_per_shape=2,
        )

    def test_smoke_bounded_finite_repeatable(self, tiny):
        _, _, bench = tiny
        a = self.run(bench)
        assert 0.0 <= a.bin_accuracy <= 1.0
        assert math.isfinite(a.median_error_deg)
        assert math.isfinite(a.median_bin_radius_deg)
        assert len(a.medoids) == 4
        assert all(math.isfinite(loss) for _, loss in a.history)
        b = self.run(bench)
        assert a.bin_accuracy == b.bin_accuracy
        assert a.median_error_deg == b.median_error_deg
        assert a.median_bin_radius_deg == b.median_bin_radius_deg
        assert a.history == b.history
        np.testing.assert_array_equal(a.medoids, b.medoids)


# ---------------------------------------------------------------------------
# the per-view anchor pass against the per-anchor loop it replaced


def oracle_rect_iou(rect, rects):
    x0 = np.maximum(rect.x, rects[:, 0])
    y0 = np.maximum(rect.y, rects[:, 1])
    x1 = np.minimum(rect.x + rect.w, rects[:, 0] + rects[:, 2])
    y1 = np.minimum(rect.y + rect.h, rects[:, 1] + rects[:, 3])
    inter = np.maximum(0, x1 - x0) * np.maximum(0, y1 - y0)
    union = rect.w * rect.h + rects[:, 2] * rects[:, 3] - inter
    return inter / union


def oracle_build_corpus(bench, views, cfg, patches_per_view):
    """The earlier build_corpus, one shade, snap, IoU and pool call per anchor.

    Kept verbatim apart from names; also returns how often the paths
    the stressed fixture must reach were taken.
    """
    stats = {"empty": 0, "subsampled": 0}
    db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
    blocks = [
        (
            feats.astype(np.float32),
            np.full(len(rects), sid, dtype=np.int64),
            np.full(len(rects), vid, dtype=np.int64),
            rects,
        )
        for sid, vid, feats, rects in enumerate_view_patches(
            db, views, patches_per_view, cfg
        )
    ]
    cand_feats, cand_sids, cand_vids, cand_rects = map(np.concatenate, zip(*blocks))
    rot_rng = np.random.default_rng(cfg.seed + _ANCHOR_ROT_OFFSET)
    anchor_feats, pos_lists, neg_lists = [], [], []
    skipped = 0
    for sid in sorted(db):
        for av in range(cfg.anchor_views):
            base = views.medoids[av % len(views.medoids)]
            rot = perturb_quat(base, QUERY_GAP_MIN, QUERY_GAP_MAX, rot_rng)
            try:
                nmap = rasterize(db[sid], rot, cfg.render_resolution)
            except RenderError:
                continue
            shaded = shade(
                nmap, scene_light(), cfg.shade_noise,
                derive_seed(cfg.seed + _ANCHOR_NOISE_BASE, sid, av),
            )
            rects = sample_patches(
                shaded, cfg.patch_fraction, _ANCHOR_PATCHES,
                derive_seed(cfg.seed + _ANCHOR_RECT_BASE, sid, av),
                cfg.min_coverage,
            )
            variants = [
                shade(
                    nmap, scene_light(), cfg.shade_noise,
                    derive_seed(
                        cfg.seed + _ANCHOR_NOISE_BASE, sid,
                        (av + 1) * _ANCHOR_PATCHES + pi,
                    ),
                )
                for pi in range(len(rects))
            ]
            near_vid = int(np.argmin([quat_geodesic(rot, m) for m in views.medoids]))
            for pi, r in enumerate(rects):
                if r.empty:
                    stats["empty"] += 1
                    continue
                (r,) = content_rect(variants[pi].intensity, variants[pi].mask, [r])
                footprint = oracle_rect_iou(r, cand_rects)
                pos = np.flatnonzero(
                    (cand_sids == sid)
                    & (cand_vids == near_vid)
                    & (footprint >= cfg.theta_pos)
                )
                neg = np.flatnonzero((cand_sids != sid) & (footprint <= cfg.theta_neg))
                if len(neg) > cfg.negatives_pool:
                    stats["subsampled"] += 1
                    rng = np.random.default_rng(
                        derive_seed(
                            cfg.seed + _NEG_SUBSAMPLE_BASE, sid, av * _ANCHOR_PATCHES + pi
                        )
                    )
                    neg = np.sort(rng.choice(neg, cfg.negatives_pool, replace=False))
                if len(pos) == 0 or len(neg) == 0:
                    skipped += 1
                    continue
                anchor_feats.append(
                    image_patch_features(variants[pi].intensity, r, cfg.pool_size)
                )
                pos_lists.append(pos.astype(np.int64))
                neg_lists.append(neg.astype(np.int64))
    corpus = PatchCorpus(
        anchor_feats=np.asarray(anchor_feats, dtype=np.float32),
        cand_feats=cand_feats,
        pos_lists=pos_lists,
        neg_lists=neg_lists,
        skipped_anchors=skipped,
    )
    return corpus, stats


def assert_same_corpus(got, want):
    assert got.anchor_feats.dtype == want.anchor_feats.dtype == np.float32
    assert got.anchor_feats.shape == want.anchor_feats.shape
    assert got.anchor_feats.tobytes() == want.anchor_feats.tobytes()
    assert got.cand_feats.tobytes() == want.cand_feats.tobytes()
    assert got.skipped_anchors == want.skipped_anchors
    for lists_got, lists_want in ((got.pos_lists, want.pos_lists),
                                  (got.neg_lists, want.neg_lists)):
        assert len(lists_got) == len(lists_want)
        for a, b in zip(lists_got, lists_want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# small pools, strict positives and a high coverage floor: anchors are
# flagged empty, skipped for want of a positive, and subsampled
STRESSED = replace(
    TINY, min_coverage=0.45, theta_pos=0.6, negatives_pool=6, negatives_keep=3,
    anchor_views=5,
)


class TestCorpusMatchesPerAnchorLoop:
    def test_tiny(self, tiny):
        cfg, views, bench = tiny
        want, _ = oracle_build_corpus(bench, views, cfg, PATCHES_PER_VIEW)
        assert_same_corpus(build_corpus(bench, views, cfg, PATCHES_PER_VIEW), want)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_stressed(self, tiny, noise):
        _, views, bench = tiny
        cfg = replace(STRESSED, shade_noise=noise)
        want, stats = oracle_build_corpus(bench, views, cfg, 12)
        assert stats["empty"] > 0 and stats["subsampled"] > 0
        assert want.skipped_anchors > 0 and len(want.anchor_feats) > 0
        got = build_corpus(bench, views, cfg, 12)
        assert_same_corpus(got, want)

    def test_shared_renders_change_nothing(self, tiny):
        cfg, views, bench = tiny
        db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
        renders = render_views(db, views, cfg.render_resolution)
        assert len(renders) == len(db) * len(views.medoids)
        assert all(m is None or m.tri_ids is None for m in renders.values())
        got = build_corpus(bench, views, cfg, PATCHES_PER_VIEW, renders=renders)
        assert_same_corpus(got, build_corpus(bench, views, cfg, PATCHES_PER_VIEW))


class TestPipelineRendersOnce:
    def unshared_index_bytes(self, bench, cfg, views, jitter, tmp_path):
        """train_pipeline's steps with every pass rendering its own views."""
        db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
        corpus = build_corpus(bench, views, cfg, PATCHES_PER_VIEW)
        result = train(corpus, cfg, params=lit_init(cfg, corpus))
        index_views = augment_views(views, jitter, cfg.seed + _INDEX_JITTER_OFFSET)
        idx = build_index(db, index_views, result.params, 16, cfg)
        path = tmp_path / "unshared.p2ci"
        save_index(idx, str(path))
        return path.read_bytes()

    def test_jittered_index_bytes_equal_unshared_build(self, tiny, tmp_path, monkeypatch):
        cfg, views, bench = tiny
        cfg = replace(cfg, epochs=2)
        want = self.unshared_index_bytes(bench, cfg, views, 3, tmp_path)
        rendered = []
        real = index_module.rasterize

        def counting(mesh, view, resolution):
            rendered.append((id(mesh), np.asarray(view, dtype=np.float64).tobytes()))
            return real(mesh, view, resolution)

        monkeypatch.setattr(index_module, "rasterize", counting)
        pipe = train_pipeline(
            bench, cfg, views, PATCHES_PER_VIEW, index_view_jitter=3,
            index_patches_per_view=16,
        )
        path = tmp_path / "shared.p2ci"
        save_index(pipe.index, str(path))
        assert path.read_bytes() == want
        # every database shape at every canonical view once, and each
        # jittered index view once more
        n_db, n_views = len(bench.database_ids), len(views.medoids)
        assert len(rendered) == len(set(rendered)) == n_db * n_views * (1 + 3)


def run_tiny_retrieval():
    cfg = replace(TINY, epochs=2, kq=4, kr=6)
    return run_retrieval_experiment(
        cfg, num_shapes=4, leave_out=0.25, views_per_query=1,
        patches_per_view=PATCHES_PER_VIEW,
    )


@pytest.fixture(scope="module")
def tiny_retrieval():
    return run_tiny_retrieval()


class TestRetrievalExperiment:
    def test_smoke_bounded_and_repeatable(self, tiny_retrieval):
        report, pipe, bench = tiny_retrieval
        assert len(report.rows) == len(bench.queries) == 4
        assert report.recall and all(0.0 <= r <= 1.0 for r in report.recall.values())
        assert len(pipe.index) > 0
        again, _, _ = run_tiny_retrieval()
        assert again == report

    def test_queries_sit_just_off_the_pipeline_grid(self, tiny_retrieval):
        """The benchmark offsets its queries from the grid the pipeline indexes."""
        _, pipe, bench = tiny_retrieval
        assert len(pipe.views) == TINY.num_views
        for q in bench.queries:
            gaps = [quat_geodesic(q.view_quat, m) for m in pipe.views.medoids]
            assert min(gaps) <= QUERY_GAP_MAX + 1e-9
            assert min(gaps) > 0.0
