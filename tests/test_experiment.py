import math

import numpy as np
import pytest

from patchvote.config import Config
from patchvote.descriptor import PatchRect
from patchvote.embed import init_params, shape_patch_features
from patchvote.experiment import build_corpus, run_pose_experiment, select_views
from patchvote.index import build_index
from patchvote.render import rasterize
from patchvote.synth import generate_benchmark

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
    views = select_views(cfg, candidates=32)
    # 4 shapes with one held out: a database of 3 (chair, table, cabinet)
    bench = generate_benchmark(4, 0.25, 1, seed=0, base_views=views.medoids)
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
            bench, TINY, train_per_shape=3, eval_per_shape=2,
            epochs=3, learning_rate=0.1,
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
