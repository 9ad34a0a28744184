import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from patchvote import experiment as experiment_module
from patchvote import index as index_module
from patchvote.config import Config, to_dict
from patchvote.descriptor import content_rect, coverage, sample_patches
from patchvote.embed import (
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
    _CANDIDATE_PATCHES,
    _INDEX_JITTER_OFFSET,
    _NEG_SUBSAMPLE_BASE,
    augment_views,
    build_corpus,
    lit_init,
    render_query,
    run_pose_experiment,
    run_retrieval_experiment,
    select_views,
    train_pipeline,
)
from patchvote.index import (
    build_index,
    derive_seed,
    enumerate_view_patches,
    render_views,
    retrieve_shape,
    save_index,
)
from patchvote.mesh import TriMesh
from patchvote.metrics import build_report
from patchvote.pose import POSE_BINS
from patchvote.render import normal_map, rasterize, shade
from patchvote.synth import generate_benchmark
from patchvote.views import (
    QUERY_GAP_MAX,
    ViewSet,
    axis_angle_quat,
    kmedoids,
    perturb_quat,
    quat_geodesic,
    random_rotations,
    rotation_grid,
)

PATCHES_PER_VIEW = 6


TINY = Config(
    num_views=4,
    render_resolution=48,
    pool_size=4,
    embed_dim=4,
    seed=0,
)


def database(bench):
    """The database meshes by shape id, as train_pipeline hands them over."""
    return {sid: bench.shapes[sid].mesh for sid in bench.database_ids}


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
        db = database(bench)
        assert len(db) == 3
        corpus = build_corpus(db, views, cfg, PATCHES_PER_VIEW)
        model = init_params(cfg.pool_size**2, 3 * cfg.pool_size**2, 8, cfg.embed_dim, 0)
        idx = build_index(db, views, model, PATCHES_PER_VIEW, cfg)
        assert len(corpus.cand_feats) == len(idx) > 0
        assert corpus.cand_feats.dtype == np.float32
        nmaps = {}
        for row, (sid, vid) in enumerate(
            zip(idx.shape_ids.tolist(), idx.view_ids.tolist())
        ):
            if (sid, vid) not in nmaps:
                nmaps[sid, vid] = rasterize(
                    db[sid], views.medoids[vid], cfg.render_resolution
                )
            feats = shape_patch_features(
                nmaps[sid, vid].normals, idx.rects[row : row + 1], cfg.pool_size
            )
            np.testing.assert_array_equal(
                corpus.cand_feats[row], feats[0].astype(np.float32)
            )

    def test_labels_index_candidate_rows(self, tiny):
        cfg, views, bench = tiny
        corpus = build_corpus(database(bench), views, cfg, PATCHES_PER_VIEW)
        n = len(corpus.cand_feats)
        assert len(corpus.anchor_feats) == len(corpus.pos_lists) > 0
        for pos, neg in zip(corpus.pos_lists, corpus.neg_lists):
            assert len(pos) and len(neg)
            assert 0 <= pos.min() and pos.max() < n
            assert 0 <= neg.min() and neg.max() < n
            assert not set(pos.tolist()) & set(neg.tolist())


class TestLitInit:
    """The hidden width is the bump grid's size, one unit per 2 x 2 block of
    pooled cells, and init_params makes the only draws."""

    def corpus(self, cfg):
        rng = np.random.default_rng(0)
        cells = cfg.pool_size**2
        return SimpleNamespace(
            anchor_feats=rng.random((3, cells), dtype=np.float32),
            cand_feats=rng.random((5, 3 * cells), dtype=np.float32),
        )

    def test_default_pool_builds_the_64_bumps_of_the_old_grid(self):
        cfg = Config()
        params = lit_init(cfg, self.corpus(cfg))
        assert params.image.W1.shape == (256, 64)
        # the 8 x 8 centres a hidden width of 64 used to fix at pool 16
        ticks = (np.arange(8) + 0.5) * 2.0 - 0.5
        cy, cx = (g.reshape(-1) for g in np.meshgrid(ticks, ticks, indexing="ij"))
        cells = np.arange(16)
        gy, gx = (g.reshape(-1, 1) for g in np.meshgrid(cells, cells, indexing="ij"))
        W1 = np.exp(-((gy - cy) ** 2 + (gx - cx) ** 2) / 2.0)
        W1 /= np.linalg.norm(W1, axis=0, keepdims=True)
        np.testing.assert_array_equal(params.image.W1, W1)
        want = init_params(256, 768, 64, cfg.embed_dim, seed=cfg.seed)
        np.testing.assert_array_equal(params.image.W2, want.image.W2)

    @pytest.mark.parametrize("pool, width", [(3, 4), (1, 1)])
    def test_odd_pool_builds_a_unit_per_block(self, pool, width, monkeypatch):
        # render 72: a patch side of 24 px, which 3 and 1 both divide
        cfg = Config(render_resolution=72, pool_size=pool)
        corpus = self.corpus(cfg)
        want = init_params(pool * pool, 3 * pool * pool, width, cfg.embed_dim, cfg.seed)
        draws, real = [], np.random.default_rng

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        params = lit_init(cfg, corpus)
        assert draws == [(cfg.seed,)]
        assert params.image.W1.shape == (pool * pool, width)
        assert params.shape.W1.shape == (3 * pool * pool, width)
        np.testing.assert_array_equal(params.image.W2, want.image.W2)


class TestPoseExperiment:
    def run(self, bench):
        return run_pose_experiment(bench, replace(TINY, epochs=3, learning_rate=0.1))

    def test_smoke_bounded_finite_repeatable(self, tiny):
        _, _, bench = tiny
        a = self.run(bench)
        assert 0.0 <= a.bin_accuracy <= 1.0
        assert math.isfinite(a.median_error_deg)
        assert math.isfinite(a.median_bin_radius_deg)
        assert len(a.medoids) == POSE_BINS
        assert all(math.isfinite(loss) for _, loss in a.history)
        b = self.run(bench)
        assert a.bin_accuracy == b.bin_accuracy
        assert a.median_error_deg == b.median_error_deg
        assert a.median_bin_radius_deg == b.median_bin_radius_deg
        assert a.history == b.history
        np.testing.assert_array_equal(a.medoids, b.medoids)

    def test_bins_are_the_rotation_grid_of_their_stream(self, tiny):
        _, _, bench = tiny
        want = rotation_grid(POSE_BINS, TINY.seed + 13).medoids
        assert self.run(bench).medoids.tobytes() == want.tobytes()


class TestViewGrid:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_select_views_is_the_rotation_grid_of_its_stream(self, seed):
        cfg = Config(seed=seed)
        got = select_views(cfg)
        want = rotation_grid(cfg.num_views, cfg.seed + 11)
        assert got.medoids.tobytes() == want.medoids.tobytes()


# ---------------------------------------------------------------------------
# the per-view anchor pass against the per-anchor loop it replaced


def oracle_rect_iou(rect, rects):
    x, y, w, h = rect
    x0 = np.maximum(x, rects[:, 0])
    y0 = np.maximum(y, rects[:, 1])
    x1 = np.minimum(x + w, rects[:, 0] + rects[:, 2])
    y1 = np.minimum(y + h, rects[:, 1] + rects[:, 3])
    inter = np.maximum(0, x1 - x0) * np.maximum(0, y1 - y0)
    union = w * h + rects[:, 2] * rects[:, 3] - inter
    return inter / union


def oracle_build_corpus(bench, views, cfg, patches_per_view):
    """The earlier build_corpus, one shade, snap, IoU and pool call per anchor.

    Kept verbatim apart from names and its result, which holds the
    per-anchor int32 id lists the corpus stored before it packed them
    into bit rows; also returns how often the paths the stressed fixture
    must reach were taken. Negatives are capped at the pool build_corpus
    reads, which the stressed tests patch.
    """
    pool = experiment_module.NEGATIVES_POOL
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
        for av, base in enumerate(views.medoids):
            rot = perturb_quat(base, rot_rng)
            try:
                nmap = rasterize(db[sid], rot, cfg.render_resolution)
            except RenderError:
                continue
            shaded = shade(
                nmap, cfg.shade_noise,
                derive_seed(cfg.seed + _ANCHOR_NOISE_BASE, sid, av),
            )
            rects = sample_patches(
                shaded, cfg.patch_fraction, _ANCHOR_PATCHES,
                derive_seed(cfg.seed + _ANCHOR_RECT_BASE, sid, av),
            )
            cov = coverage(shaded.mask, rects)
            variants = [
                shade(
                    nmap, cfg.shade_noise,
                    derive_seed(
                        cfg.seed + _ANCHOR_NOISE_BASE, sid,
                        (av + 1) * _ANCHOR_PATCHES + pi,
                    ),
                )
                for pi in range(len(rects))
            ]
            near_vid = int(np.argmin([quat_geodesic(rot, m) for m in views.medoids]))
            for pi, r in enumerate(rects):
                if cov[pi] < cfg.min_coverage:
                    stats["empty"] += 1
                    continue
                (r,) = content_rect(variants[pi].intensity, variants[pi].mask, r[None])
                footprint = oracle_rect_iou(r, cand_rects)
                pos = np.flatnonzero(
                    (cand_sids == sid)
                    & (cand_vids == near_vid)
                    & (footprint >= cfg.theta_pos)
                )
                neg = np.flatnonzero((cand_sids != sid) & (footprint <= cfg.theta_neg))
                if len(neg) > pool:
                    stats["subsampled"] += 1
                    rng = np.random.default_rng(
                        derive_seed(
                            cfg.seed + _NEG_SUBSAMPLE_BASE, sid, av * _ANCHOR_PATCHES + pi
                        )
                    )
                    neg = np.sort(rng.choice(neg, pool, replace=False))
                if len(pos) == 0 or len(neg) == 0:
                    skipped += 1
                    continue
                anchor_feats.append(
                    image_patch_features(
                        variants[pi].intensity, r[None], cfg.pool_size
                    )[0]
                )
                pos_lists.append(pos.astype(np.int32))
                neg_lists.append(neg.astype(np.int32))
    corpus = SimpleNamespace(
        anchor_feats=np.asarray(anchor_feats, dtype=np.float32),
        cand_feats=cand_feats,
        pos_lists=pos_lists,
        neg_lists=neg_lists,
        skipped_anchors=skipped,
    )
    return corpus, stats


def assert_same_corpus(got, want):
    """Features equal, and every packed label row decodes to the oracle's
    int32 id list, dtype and bytes included."""
    assert got.anchor_feats.dtype == want.anchor_feats.dtype == np.float32
    assert got.anchor_feats.shape == want.anchor_feats.shape
    assert got.anchor_feats.tobytes() == want.anchor_feats.tobytes()
    assert got.cand_feats.tobytes() == want.cand_feats.tobytes()
    assert got.skipped_anchors == want.skipped_anchors
    row_bytes = -(-len(got.cand_feats) // 8)
    for bits, counts, rows, lists in (
        (got.pos_bits, got.pos_counts, got.pos_lists, want.pos_lists),
        (got.neg_bits, got.neg_counts, got.neg_lists, want.neg_lists),
    ):
        assert bits.dtype == np.uint8 and bits.shape == (len(lists), row_bytes)
        assert bits.nbytes <= len(got.anchor_feats) * row_bytes
        assert counts.dtype == np.int32
        assert counts.tolist() == [len(ids) for ids in lists]
        assert len(rows) == len(lists)
        for i, ids in enumerate(lists):
            row = rows[i]
            assert row.dtype == ids.dtype == np.int32
            assert row.tobytes() == ids.tobytes()


# strict positives and a high coverage floor, and a negative pool of 6
# patched in where build_corpus reads it: anchors fall below the floor,
# are skipped for want of a positive, and subsampled
STRESSED = replace(TINY, min_coverage=0.45, theta_pos=0.6, negatives_keep=3)
STRESSED_POOL = 6


class TestCorpusMatchesPerAnchorLoop:
    def test_tiny(self, tiny):
        cfg, views, bench = tiny
        want, _ = oracle_build_corpus(bench, views, cfg, PATCHES_PER_VIEW)
        got = build_corpus(database(bench), views, cfg, PATCHES_PER_VIEW)
        assert_same_corpus(got, want)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_stressed(self, tiny, noise, monkeypatch):
        _, views, bench = tiny
        monkeypatch.setattr(experiment_module, "NEGATIVES_POOL", STRESSED_POOL)
        cfg = replace(STRESSED, shade_noise=noise)
        want, stats = oracle_build_corpus(bench, views, cfg, 12)
        assert stats["empty"] > 0 and stats["subsampled"] > 0
        assert want.skipped_anchors > 0 and len(want.anchor_feats) > 0
        got = build_corpus(database(bench), views, cfg, 12)
        assert_same_corpus(got, want)

    def test_shared_renders_change_nothing(self, tiny):
        cfg, views, bench = tiny
        db = database(bench)
        renders = render_views(db, views, cfg.render_resolution)
        assert len(renders) == len(db) * len(views.medoids)
        res = cfg.render_resolution
        assert all(
            m is None
            or (np.issubdtype(m.dtype, np.signedinteger) and m.shape == (res, res))
            for m in renders.values()
        )
        got = build_corpus(db, views, cfg, PATCHES_PER_VIEW, renders=renders)
        assert_same_corpus(got, build_corpus(db, views, cfg, PATCHES_PER_VIEW))


def row_of_boxes(n):
    """n unit boxes side by side along x, 12 triangles each, all in view
    from the identity rotation."""
    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    quads = [(1, 3, 2, 0), (6, 7, 5, 4), (4, 5, 1, 0),
             (3, 7, 6, 2), (2, 6, 4, 0), (5, 7, 3, 1)]
    tris = np.array([t for a, b, c, d in quads for t in ((a, b, c), (a, c, d))])
    verts = np.vstack([corners + [1.5 * i, 0, 0] for i in range(n)])
    return TriMesh(verts, np.vstack([tris + 8 * i for i in range(n)]))


class TestHeldRenders:
    """render_views holds each render as its triangle-id map, and
    normal_map rebuilds the render from it bit for bit."""

    def assert_rebuilds(self, mesh, held, view, resolution):
        want = rasterize(mesh, view, resolution)
        got = normal_map(mesh, held)
        assert got.normals.tobytes() == want.normals.tobytes()
        assert got.mask.tobytes() == want.mask.tobytes()

    def test_every_canonical_view_of_the_tiny_database(self, tiny):
        cfg, views, bench = tiny
        db = {sid: bench.shapes[sid].mesh for sid in bench.database_ids}
        renders = render_views(db, views, cfg.render_resolution)
        for sid, mesh in db.items():
            assert len(mesh.triangles) <= 128
            for view in views.medoids:
                held = renders[sid, np.asarray(view, dtype=np.float64).tobytes()]
                assert held.dtype == np.int8
                self.assert_rebuilds(mesh, held, view, cfg.render_resolution)

    def test_more_than_128_triangles_held_as_int16(self):
        mesh = row_of_boxes(11)
        assert len(mesh.triangles) == 132
        view = np.array([1.0, 0.0, 0.0, 0.0])
        (held,) = render_views({0: mesh}, ViewSet(medoids=view[None]), 96).values()
        assert held.dtype == np.int16
        assert held.max() >= 128  # a triangle id int8 cannot hold is on view
        self.assert_rebuilds(mesh, held, view, 96)

    def test_edge_on_view_held_as_none_and_not_rendered_again(self, monkeypatch):
        # a square in the xz plane: edge-on from the identity view, face-on
        # after a quarter turn about x
        verts = np.array([[-0.5, 0, -0.5], [0.5, 0, -0.5], [0.5, 0, 0.5], [-0.5, 0, 0.5]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
        edge_on = np.array([1.0, 0.0, 0.0, 0.0])
        views = ViewSet(medoids=np.stack([edge_on, axis_angle_quat([1, 0, 0], np.pi / 2)]))
        renders = render_views({0: mesh}, views, TINY.render_resolution)
        assert renders[0, edge_on.tobytes()] is None
        rendered = []
        monkeypatch.setattr(
            index_module, "rasterize", lambda *args: rendered.append(args)
        )
        blocks = list(enumerate_view_patches({0: mesh}, views, 8, TINY, renders))
        assert rendered == []
        assert [vid for _, vid, _, _ in blocks] == [1]


class TestPipelineRendersOnce:
    def unshared_index_bytes(self, bench, cfg, views, jitter, tmp_path):
        """train_pipeline's steps with every pass rendering its own views."""
        db = database(bench)
        corpus = build_corpus(db, views, cfg, _CANDIDATE_PATCHES)
        model = lit_init(cfg, corpus)
        train(corpus, cfg, model)
        index_views = augment_views(views, jitter, cfg.seed + _INDEX_JITTER_OFFSET)
        idx = build_index(db, index_views, model, 16, cfg)
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
            bench, cfg, views, index_view_jitter=3, index_patches_per_view=16
        )
        path = tmp_path / "shared.p2ci"
        save_index(pipe.index, str(path))
        assert path.read_bytes() == want
        # every database shape at every canonical view once, each jittered
        # index view once more, and each of the corpus's anchor views, one
        # per canonical view, once (build_corpus renders them through
        # index._render too)
        n_db, n_views = len(bench.database_ids), len(views.medoids)
        expected = n_db * n_views * (1 + 3) + n_db * n_views
        assert len(rendered) == len(set(rendered)) == expected


TINY_RETRIEVAL = replace(TINY, epochs=2, kq=4, kr=6)


def run_tiny_retrieval():
    return run_retrieval_experiment(
        TINY_RETRIEVAL, num_shapes=4, leave_out=0.25, views_per_query=1
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

    def test_recall_both_ways_read_off_gt_rank(self, tiny_retrieval):
        report, pipe, bench = tiny_retrieval
        cfg = TINY_RETRIEVAL
        for rep in (report, report.all_shapes):
            assert len(rep.rows) == len(bench.queries)
            for k, r in rep.recall.items():
                hits = sum(1 <= row.gt_rank <= k for row in rep.rows)
                assert r == hits / len(rep.rows)
        category = {sid: e.spec.category for sid, e in bench.shapes.items()}
        for row in report.rows:
            assert {category[s] for s in row.ranked} == {category[row.gt_shape]}
        # over all shapes a query's patches reach the other categories' records
        assert any(
            {category[s] for s in row.ranked} != {category[row.gt_shape]}
            for row in report.all_shapes.rows
        )
        # the category-given report is what one retrieval per query gives
        results = []
        for q in bench.queries:
            entry = bench.shapes[q.shape_id]
            shaded, _ = render_query(entry.mesh, q.view_quat, cfg, q.aug_seed)
            results.append(retrieve_shape(
                pipe.index, shaded, shaded.mask, pipe.model, cfg.kq, cfg.kr,
                seed=q.aug_seed + 1, cfg=cfg, category=entry.spec.category,
            ))
        want = build_report(
            results, [q.gt_shape_id for q in bench.queries], config=to_dict(cfg)
        )
        assert replace(report, all_shapes=None) == want

    def test_queries_sit_just_off_the_pipeline_grid(self, tiny_retrieval):
        """The benchmark offsets its queries from the grid the pipeline indexes."""
        _, pipe, bench = tiny_retrieval
        # the index lists the canonical grid first, then its jittered copies
        grid = pipe.index.manifest["views"]["medoids"][: TINY.num_views]
        for q in bench.queries:
            gaps = [quat_geodesic(q.view_quat, np.array(m)) for m in grid]
            assert min(gaps) <= QUERY_GAP_MAX + 1e-9
            assert min(gaps) > 0.0
