import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchvote.config import Config, to_dict
from patchvote.embed import TOPK_GROUP, Tower, TowerParams, _top_k, init_params
from patchvote.errors import (
    ConfigError,
    EmptyIndexError,
    FormatError,
    NoRetrievalError,
    PatchVoteError,
)
from patchvote.index import (
    INDEX_MAGIC,
    PatchIndex,
    _tally,
    build_index,
    derive_seed,
    knn_query,
    load_index,
    retrieve_shape,
    save_index,
)
from patchvote.mesh import TriMesh
from patchvote.render import ShadedRender
from patchvote.views import ViewSet, axis_angle_quat

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def unit_cube():
    g = [-0.5, 0.5]
    verts = np.array([[x, y, z] for x in g for y in g for z in g], dtype=float)
    quads = [
        (1, 3, 2, 0), (6, 7, 5, 4),
        (4, 5, 1, 0), (3, 7, 6, 2),
        (2, 6, 4, 0), (5, 7, 3, 1),
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriMesh(verts, np.array(tris), category="chair")


def axis_views():
    medoids = np.stack(
        [
            IDENTITY,
            axis_angle_quat([1, 0, 0], np.pi / 2),
            axis_angle_quat([0, 1, 0], np.pi / 2),
            axis_angle_quat([0, 0, 1], np.pi / 2),
        ]
    )
    return ViewSet(medoids=medoids, source_size=4, seed=0)


def micro_index(embeddings, shape_ids, d=4, categories=None):
    n = len(embeddings)
    cats = categories or {}
    manifest = {
        "shapes": {
            str(s): {"category": cats.get(int(s), "chair")}
            for s in sorted(set(shape_ids))
        },
        "views": {"n": 1, "medoids": [[1, 0, 0, 0]], "seed": 0, "source_size": 1},
        "config": to_dict(Config(pool_size=2, embed_dim=d)),
        "patches_per_view": 1,
    }
    return PatchIndex(
        embeddings=np.asarray(embeddings, dtype=np.float32),
        shape_ids=np.asarray(shape_ids, dtype=np.int64),
        view_ids=np.zeros(n, dtype=np.int64),
        rects=np.tile([0, 0, 4, 4], (n, 1)).astype(np.int64),
        manifest=manifest,
    )


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestBuildIndex:
    def cfg(self):
        return Config(render_resolution=48, seed=3)

    def test_record_count_upper_bound_attained(self):
        # axis-aligned cube views fill the frame, so no patch is empty
        shapes = {0: unit_cube(), 1: unit_cube()}
        model = init_params(256, 768, 8, 6, seed=0)
        idx = build_index(shapes, axis_views(), model, 3, self.cfg())
        assert len(idx) == 2 * 4 * 3
        assert set(idx.shape_ids.tolist()) == {0, 1}

    def test_empty_view_drops_records_not_build(self):
        verts = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.5, 0.0]])
        tri = TriMesh(verts, np.array([[0, 1, 2]]), category="chair")
        views = ViewSet(
            medoids=np.stack([IDENTITY, axis_angle_quat([0, 1, 0], np.pi / 2)]),
            source_size=2,
            seed=0,
        )
        model = init_params(256, 768, 8, 6, seed=0)
        idx = build_index({0: tri}, views, model, 2, self.cfg())
        assert 0 < len(idx) <= 2  # the edge-on view contributed nothing
        assert set(idx.view_ids.tolist()) == {0}

    def test_embeddings_unit_norm(self):
        model = init_params(256, 768, 8, 6, seed=1)
        idx = build_index({0: unit_cube()}, axis_views(), model, 2, self.cfg())
        norms = np.linalg.norm(idx.embeddings.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_rebuild_byte_identical(self, tmp_path):
        model = init_params(256, 768, 8, 6, seed=2)
        p1 = tmp_path / "a.p2ci"
        p2 = tmp_path / "b.p2ci"
        for p in (p1, p2):
            idx = build_index(
                {0: unit_cube(), 1: unit_cube()}, axis_views(), model, 2, self.cfg()
            )
            save_index(idx, str(p))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_shapes_rejected(self):
        model = init_params(256, 768, 8, 6, seed=0)
        with pytest.raises(EmptyIndexError):
            build_index({}, axis_views(), model, 2, self.cfg())

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


# every micro_index record's shape is a "chair" unless categories say
# otherwise, so these searches give the same answer for both scopes
WHOLE_AND_CHAIR = (None, "chair")


class TestKnn:
    def test_exact_match_first(self):
        idx = micro_index([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])], [0, 1])
        for category in WHOLE_AND_CHAIR:
            ids, sims = knn_query(idx, unit([[1, 0, 0, 0]]), 1, category=category)
            assert ids.tolist() == [[0]]
            assert sims[0, 0] == pytest.approx(1.0)

    def test_k_exceeding_size_returns_all_sorted(self):
        idx = micro_index(
            [unit([1, 0, 0, 0]), unit([1, 1, 0, 0]), unit([0, 1, 0, 0])], [0, 1, 2]
        )
        for category in WHOLE_AND_CHAIR:
            ids, sims = knn_query(idx, unit([[1, 0, 0, 0]]), 10, category=category)
            assert ids.tolist() == [[0, 1, 2]]
            assert sims[0].tolist() == sorted(sims[0].tolist(), reverse=True)

    def test_identical_embeddings_tie_to_lower_id(self):
        v = unit([1, 2, 0, 0])
        idx = micro_index([v, v, v], [0, 1, 2])
        for category in WHOLE_AND_CHAIR:
            ids, _ = knn_query(idx, v[None], 2, category=category)
            assert ids.tolist() == [[0, 1]]

    def test_empty_index_rejected(self):
        idx = micro_index(np.zeros((0, 4)), [])
        for category in WHOLE_AND_CHAIR:
            with pytest.raises(EmptyIndexError):
                knn_query(idx, unit([[1, 0, 0, 0]]), 1, category=category)

    def test_k_below_one_rejected(self):
        idx = micro_index([unit([1, 0, 0, 0])], [0])
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            knn_query(idx, unit([[1, 0, 0, 0]]), 0)

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 4)], ids=["vector", "3-d"])
    def test_query_not_a_block_rejected(self, shape):
        idx = micro_index([unit([1, 0, 0, 0])], [0])
        with pytest.raises(ValueError, match=r"\(P, d\) block"):
            knn_query(idx, np.ones(shape), 1)

    def test_scope_rows_are_cached_f64_of_its_records(self):
        idx = micro_index(
            [unit([1, 0, 0, 0]), unit([0, 1, 0, 0]), unit([1, 1, 1, 0])],
            [0, 1, 2],
            categories={1: "table"},
        )
        for category, want in ((None, [0, 1, 2]), ("chair", [0, 2]), ("table", [1])):
            ids, rows = idx.scope(category)
            assert ids.tolist() == want
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            np.testing.assert_array_equal(rows, idx.embeddings[want])
            assert idx.scope(category)[1] is rows


def reference_tally(neighbor_shapes, sims):
    """The dict-of-lists vote `_tally` replaced, kept as its oracle."""
    counts, aggregates, seen = {}, {}, set()
    for row_shapes, row_sims in zip(neighbor_shapes.tolist(), sims.tolist()):
        tally = {}
        for sid, sim in zip(row_shapes, row_sims):
            tally.setdefault(sid, []).append(sim)
        winner, won = max(tally.items(), key=lambda kv: (len(kv[1]), sum(kv[1]), -kv[0]))
        counts[winner] = counts.get(winner, 0) + 1
        aggregates[winner] = aggregates.get(winner, 0.0) + max(won)
        seen.update(row_shapes)
    for sid in seen:
        counts.setdefault(sid, 0)
        aggregates.setdefault(sid, 0.0)
    return sorted(
        ((sid, n, aggregates[sid]) for sid, n in counts.items()),
        key=lambda row: (-row[1], -row[2], row[0]),
    )


class TestElect:
    """A patch's election, seen through the ranking of a one-patch vote."""

    def test_modal_shape_wins(self):
        ranking = _tally(np.array([[5, 5, 7]]), np.array([[0.5, 0.6, 0.9]]))
        assert ranking == [(5, 1, 0.6), (7, 0, 0.0)]  # the winner's best neighbour

    def test_tie_higher_summed_similarity(self):
        ranking = _tally(np.array([[1, 2]]), np.array([[0.4, 0.7]]))
        assert ranking[0][0] == 2

    def test_full_tie_lower_shape_id(self):
        ranking = _tally(np.array([[3, 9]]), np.array([[0.5, 0.5]]))
        assert ranking[0][0] == 3

    def test_similarity_sums_add_in_neighbour_order(self):
        """Shape 1's similarities 1, e x 8 sum to exactly 1 + 8e, but added
        in neighbour order each e rounds away and the sum stays 1, below
        shape 2's 1 + 4e; any other order lets shape 1 win the tie."""
        e = 2.0**-53
        shapes = np.array([[2] + [1] + [1] * 8 + [2] * 8])
        sims = np.array([[1 + 4 * e] + [1.0] + [e] * 8 + [0.0] * 8])
        assert _tally(shapes, sims)[0][0] == 2

    @pytest.mark.parametrize("sims_kind", ["small-int", "f64"])
    def test_matches_dict_tally(self, sims_kind):
        """Small-integer similarities make vote and sum ties common; random
        f64 ones make the summation order show in the aggregates."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            P, K = int(rng.integers(1, 17)), int(rng.integers(1, 25))
            pool = np.sort(rng.choice(1000, int(rng.integers(1, 5)), replace=False))
            shapes = pool[rng.integers(0, len(pool), size=(P, K))]
            if sims_kind == "small-int":
                sims = rng.integers(-2, 3, size=(P, K)).astype(np.float64)
            else:
                sims = rng.uniform(-1.0, 1.0, size=(P, K)) * 10.0 ** rng.uniform(-3, 3)
            assert _tally(shapes, sims) == reference_tally(shapes, sims)


def identity_image_tower(d_in=4):
    return Tower(W1=np.eye(d_in), b1=np.zeros(d_in), W2=np.eye(d_in), b2=np.zeros(d_in))


def retrieval_fixture(embeddings, shape_ids):
    """8x8 constant raster, pool 2 -> features along [1,1,1,1]."""
    idx = micro_index(embeddings, shape_ids)
    model = TowerParams(image=identity_image_tower(), shape=identity_image_tower())
    raster = ShadedRender(
        intensity=np.full((8, 8), 0.5, dtype=np.float32),
        mask=np.ones((8, 8), dtype=bool),
    )
    cfg = Config(pool_size=2, patch_fraction=1.0, embed_dim=4)
    return idx, model, raster, cfg


class TestRetrieve:
    def test_kq1_kr1_equals_nearest_record(self):
        idx, model, raster, cfg = retrieval_fixture(
            [unit([1, 1, 1, 1]), unit([1, 0, 0, 0])], [4, 9]
        )
        res = retrieve_shape(
            idx, raster, raster.mask, model, kq=1, kr=1, seed=0, cfg=cfg
        )
        assert res.ranking[0][0] == 4
        assert res.ranking[0][1] == 1

    def test_vote_conservation_and_sorted_ranking(self):
        idx, model, raster, cfg = retrieval_fixture(
            [unit([1, 1, 1, 1]), unit([1, 1, 1, 0]), unit([0, 1, 1, 1])],
            [0, 1, 2],
        )
        res = retrieve_shape(
            idx, raster, raster.mask, model, kq=5, kr=2, seed=1, cfg=cfg
        )
        total_votes = sum(v for _, v, _ in res.ranking)
        assert total_votes == 5 - res.excluded_patches
        keys = [(-v, -a, s) for s, v, a in res.ranking]
        assert keys == sorted(keys)

    def test_zero_vote_shapes_ranked_below(self):
        idx, model, raster, cfg = retrieval_fixture(
            [unit([1, 1, 1, 1]), unit([1, 1, 1, 0.5])], [0, 1]
        )
        res = retrieve_shape(
            idx, raster, raster.mask, model, kq=3, kr=2, seed=2, cfg=cfg
        )
        # both shapes appear in every neighbor list; 0 wins all patches
        assert res.ranking[0][0] == 0
        assert res.ranking[0][1] == 3
        assert res.ranking[1] == (1, 0, 0.0)

    def test_all_masked_out_raises_no_retrieval(self):
        idx, model, raster, cfg = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        with pytest.raises(NoRetrievalError):
            retrieve_shape(
                idx, raster, np.zeros_like(raster.mask), model,
                kq=3, kr=1, seed=0, cfg=cfg,
            )

    @pytest.mark.parametrize("kq, kr", [(0, 1), (1, 0)], ids=["kq", "kr"])
    def test_vote_width_below_one_rejected(self, kq, kr):
        idx, model, raster, cfg = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        with pytest.raises(ValueError, match="^kq and kr must be >= 1$"):
            retrieve_shape(idx, raster, raster.mask, model, kq, kr, seed=0, cfg=cfg)

    def test_query_patch_without_equal_bins_raises(self):
        """A 100 px query at the default patch_fraction gives 33 px patches,
        which pool_size 16 cannot split into equal bins."""
        idx = micro_index([unit([1, 1, 1, 1])], [0])
        model = init_params(Config().pool_size**2, 12, 8, 4, seed=0)
        raster = ShadedRender(
            intensity=np.full((100, 100), 0.5, dtype=np.float32),
            mask=np.ones((100, 100), dtype=bool),
        )
        with pytest.raises(ValueError, match="33x33 does not split into 16 x 16"):
            retrieve_shape(idx, raster, raster.mask, model, 3, 1, seed=0, cfg=Config())

    def test_deterministic(self):
        idx, model, raster, cfg = retrieval_fixture(
            [unit([1, 1, 1, 1]), unit([1, 1, 0, 0])], [0, 1]
        )
        a = retrieve_shape(idx, raster, raster.mask, model, 4, 2, seed=5, cfg=cfg)
        b = retrieve_shape(idx, raster, raster.mask, model, 4, 2, seed=5, cfg=cfg)
        assert a.ranking == b.ranking

    def test_monotone_evidence_duplicates_never_hurt(self):
        base = [unit([1, 1, 1, 0.9]), unit([1, 1, 1, 1])]
        ids = [0, 1]
        idx, model, raster, cfg = retrieval_fixture(base, ids)
        res1 = retrieve_shape(idx, raster, raster.mask, model, 1, 3, seed=0, cfg=cfg)
        rank1 = res1.ranked_ids().index(1)
        # duplicate the true shape's record twice
        idx2, _, _, _ = retrieval_fixture(
            base + [unit([1, 1, 1, 1])] * 2, ids + [1, 1]
        )
        res2 = retrieve_shape(idx2, raster, raster.mask, model, 1, 3, seed=0, cfg=cfg)
        rank2 = res2.ranked_ids().index(1)
        assert rank2 <= rank1

    def test_category_filter_restricts_records(self):
        idx = micro_index(
            [unit([1, 1, 1, 1]), unit([1, 1, 1, 1])],
            [0, 1],
            categories={0: "chair", 1: "table"},
        )
        model = TowerParams(image=identity_image_tower(), shape=identity_image_tower())
        raster = ShadedRender(
            intensity=np.full((8, 8), 0.5, dtype=np.float32),
            mask=np.ones((8, 8), dtype=bool),
        )
        cfg = Config(pool_size=2, patch_fraction=1.0, embed_dim=4)
        res = retrieve_shape(
            idx, raster, raster.mask, model, 2, 5, seed=0, cfg=cfg, category="table"
        )
        assert res.ranked_ids() == [1]


class TestIndexIO:
    def test_round_trip_byte_identical(self, tmp_path):
        model = init_params(256, 768, 8, 6, seed=4)
        idx = build_index(
            {0: unit_cube()}, axis_views(), model, 2, Config(render_resolution=48)
        )
        p1 = tmp_path / "i1.p2ci"
        p2 = tmp_path / "i2.p2ci"
        save_index(idx, str(p1))
        back = load_index(str(p1))
        save_index(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(back.embeddings, idx.embeddings)
        np.testing.assert_array_equal(back.shape_ids, idx.shape_ids)
        np.testing.assert_array_equal(back.rects, idx.rects)
        assert back.manifest == idx.manifest

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.p2ci"
        p.write_bytes(b"WHAT" + b"\x00" * 24)
        with pytest.raises(FormatError, match="magic"):
            load_index(str(p))

    def test_truncation_detected(self, tmp_path):
        idx = micro_index([unit([1, 0, 0, 0])], [0])
        p = tmp_path / "t.p2ci"
        save_index(idx, str(p))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_index(str(p))


def reference_knn(index, query, k, category=None):
    """Full-sort kNN: every searched record ordered by (-sim, id)."""
    shapes = index.manifest["shapes"]
    ids = np.array([
        rid for rid, sid in enumerate(index.shape_ids.tolist())
        if category is None or shapes[str(sid)]["category"] == category
    ], dtype=np.int64)
    emb = index.embeddings[ids].astype(np.float64)
    sims = emb @ np.asarray(query, dtype=np.float64)
    order = np.lexsort((ids, -sims))[:k]
    return ids[order].tolist(), sims[order].tolist()


def knn_lists(index, query, k, category=None):
    """One query's ids and similarities, searched as a one-row block."""
    ids, sims = knn_query(index, query[None], k, category=category)
    return ids[0].tolist(), sims[0].tolist()


class TestKnnPartialTopK:
    def test_k_cuts_through_run_of_ties(self):
        a, b = unit([1, 0, 0, 0]), unit([1, 1, 0, 0])
        # records 1..5 tie at the 2nd..6th place; k=3 keeps the two lowest ids
        idx = micro_index([b, a, b, a, a, a, b], [0, 1, 2, 3, 4, 5, 6])
        for category in WHOLE_AND_CHAIR:
            assert knn_lists(idx, a, 3, category)[0] == [1, 3, 4]
            assert knn_lists(idx, b, 4, category)[0] == [0, 2, 6, 1]

    @pytest.mark.parametrize("k", [3, 4, 50])
    def test_k_at_least_subset_size_returns_whole_subset(self, k):
        idx = micro_index(
            [unit([1, 0, 0, 0]), unit([1, 1, 0, 0]), unit([0, 1, 0, 0]),
             unit([1, 0, 0, 1])],
            [0, 1, 2, 3],
            categories={3: "table"},
        )
        ids, sims = knn_query(idx, unit([[1, 0, 0, 0]]), k, category="chair")
        assert ids.tolist() == [[0, 1, 2]]
        assert ids.shape == sims.shape == (1, 3)
        block = np.stack([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])])
        ids, sims = knn_query(idx, block, k, category="chair")
        assert ids.shape == sims.shape == (2, 3)
        assert ids.tolist() == [[0, 1, 2], [2, 1, 0]]

    def test_matches_full_sort_reference_with_frequent_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 120))
            # small-integer embeddings make exact similarity ties common
            emb = rng.integers(-2, 3, size=(n, 4)).astype(np.float32)
            shape_ids = rng.integers(0, 5, size=n).tolist()
            names = ["chair", "table", "cabinet"]
            categories = {s: names[int(rng.integers(3))] for s in set(shape_ids)}
            idx = micro_index(emb, shape_ids, categories=categories)
            P = int(rng.integers(1, 10))
            block = rng.integers(-2, 3, size=(P, 4)).astype(np.float64)
            k = int(rng.integers(1, n + 3))
            for category in [None, *sorted(set(categories.values()))]:
                # each row is checked on its own: its k-th place often
                # cuts through a run of ties that other rows do not share
                want = [reference_knn(idx, q, k, category) for q in block]
                ids, sims = knn_query(idx, block, k, category=category)
                assert ids.shape == sims.shape == (P, len(want[0][0]))
                assert list(zip(ids.tolist(), sims.tolist())) == want
                assert knn_lists(idx, block[0], k, category) == want[0]

    def test_nan_similarity_sorts_last(self):
        """A record whose similarity is NaN ranks after every number, in
        id order among NaNs, as np.lexsort((ids, -sims)) puts it; a NaN
        query row ranks every record by id and leaves the other rows be."""
        rng = np.random.default_rng(12)
        emb = rng.integers(-2, 3, size=(12, 4)).astype(np.float32)
        emb[[2, 5, 9]] = np.nan
        idx = micro_index(emb, list(range(12)))
        block = rng.integers(-2, 3, size=(4, 4)).astype(np.float64)
        block[2] = np.nan
        for k in range(1, 14):
            ids, sims = knn_query(idx, block, k)
            for p, q in enumerate(block):
                want_ids, want_sims = reference_knn(idx, q, k)
                assert ids[p].tolist() == want_ids
                np.testing.assert_array_equal(sims[p], want_sims)
            assert ids[2].tolist() == list(range(min(k, 12)))

    def test_unknown_category_raises_empty_index(self):
        idx, model, raster, cfg = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        with pytest.raises(EmptyIndexError):
            knn_query(idx, unit([[1, 1, 1, 1]]), 1, category="sofa")
        with pytest.raises(EmptyIndexError):
            retrieve_shape(
                idx, raster, raster.mask, model, 2, 1, seed=0, cfg=cfg,
                category="sofa",
            )


@pytest.fixture
def partition_widths(monkeypatch):
    """The last-axis length of every np.partition input, in call order."""
    widths = []
    partition = np.partition

    def spy(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return partition(a, *args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    return widths


def integer_index(rng, n, d=4, spread=2, shapes=6):
    """n records of small-integer embeddings, so every similarity is exact
    and many tie; shapes spread over the three categories."""
    emb = rng.integers(-spread, spread + 1, size=(n, d)).astype(np.float32)
    shape_ids = np.sort(rng.integers(0, shapes, size=n))
    names = ["chair", "table", "cabinet"]
    categories = {s: names[s % 3] for s in range(shapes)}
    return micro_index(emb, shape_ids.tolist(), d=d, categories=categories)


def assert_knn_matches_reference(idx, block, k, category=None):
    ids, sims = knn_query(idx, block, k, category=category)
    for p, q in enumerate(block):
        want_ids, want_sims = reference_knn(idx, q, k, category)
        assert ids[p].tolist() == want_ids
        np.testing.assert_array_equal(sims[p], want_sims)


class TestKnnGroupCut:
    """Indexes large enough for the top-k cut from strided group maxima
    (n // TOPK_GROUP > k), each row checked against the full sort."""

    @pytest.mark.parametrize("spread", [2, 20])
    def test_ties_at_the_cut_in_every_scope(self, spread, partition_widths):
        rng = np.random.default_rng(40 + spread)
        for _ in range(4):
            n = int(rng.integers(2000, 6000))
            d = 4 if spread == 2 else 8
            idx = integer_index(rng, n, d=d, spread=spread)
            block = rng.integers(-spread, spread + 1, size=(9, d)).astype(np.float64)
            for k in (1, 24, 60):
                for category in (None, "chair", "table", "cabinet"):
                    assert_knn_matches_reference(idx, block, k, category)
            assert n // TOPK_GROUP in partition_widths  # the whole index took the cut

    def test_top_k_inside_one_strided_group(self, partition_widths):
        rng = np.random.default_rng(43)
        g, k = 100, 24
        n = TOPK_GROUP * g + 17
        emb = rng.integers(-2, 3, size=(n, 4)).astype(np.float32)
        members = 37 + g * np.arange(TOPK_GROUP)  # group 37: columns j = 37 mod g
        emb[members, 0] = 10 + np.arange(TOPK_GROUP) % 5
        idx = micro_index(emb, [0] * n)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        assert_knn_matches_reference(idx, np.stack([q, -q, q]), k)
        ids, _ = knn_query(idx, q[None], k)
        assert set(ids[0].tolist()) <= set(members.tolist())
        assert partition_widths[-1] == g

    def test_nan_records_and_nan_query_row(self):
        rng = np.random.default_rng(44)
        n = 3000
        idx = integer_index(rng, n)
        idx.embeddings[rng.choice(n, 60, replace=False)] = np.nan
        block = rng.integers(-2, 3, size=(5, 4)).astype(np.float64)
        block[3] = np.nan
        for k in (1, 24, 100):
            for category in (None, "chair"):
                assert_knn_matches_reference(idx, block, k, category)
            ids, _ = knn_query(idx, block, k)
            assert ids[3].tolist() == list(range(k))

    def test_fewer_groups_free_of_nan_than_k(self, partition_widths):
        """A row whose NaN-free groups number fewer than k gets a NaN cut
        and keeps every entry; the result is still the full sort's."""
        rng = np.random.default_rng(45)
        g, k = 50, 24
        n = TOPK_GROUP * g
        emb = rng.integers(-2, 3, size=(n, 4)).astype(np.float32)
        emb[np.arange(31)] = np.nan  # one NaN in each of groups 0..30
        idx = micro_index(emb, [0] * n)
        block = rng.integers(-2, 3, size=(3, 4)).astype(np.float64)
        assert_knn_matches_reference(idx, block, k)
        assert partition_widths[-1] == g

    @pytest.mark.parametrize(
        "n, width",
        [
            (TOPK_GROUP * 24, TOPK_GROUP * 24),
            (TOPK_GROUP * 25 - 1, TOPK_GROUP * 25 - 1),
            (TOPK_GROUP * 25, 25),
        ],
        ids=["groups-eq-k", "groups-eq-k-last", "groups-eq-k-plus-1"],
    )
    def test_group_count_at_k_boundary(self, n, width, partition_widths):
        """n // TOPK_GROUP == k partitions the whole row; one group more
        partitions the group maxima."""
        rng = np.random.default_rng(n)
        idx = integer_index(rng, n)
        block = rng.integers(-2, 3, size=(4, 4)).astype(np.float64)
        assert_knn_matches_reference(idx, block, 24)
        assert partition_widths == [width]

    def test_one_row_and_block_inputs(self):
        rng = np.random.default_rng(46)
        n = 4100
        ids = np.sort(rng.choice(50_000, n, replace=False))
        block = rng.integers(-3, 4, size=(7, n)).astype(np.float64)
        block[2, ::97] = np.nan
        for k in (1, 24, 64, 65, n - 1):
            got = _top_k(block, ids, k)
            assert got.shape == (7, k)
            for p, row in enumerate(block):
                want = np.lexsort((ids, -row))[:k]
                assert got[p].tolist() == want.tolist()
                assert _top_k(row[None], ids, k)[0].tolist() == want.tolist()


class TestRetrieveConfigFallback:
    def test_manifest_config_used_when_no_cfg_given(self):
        idx, model, raster, cfg = retrieval_fixture(
            [unit([1, 1, 1, 1]), unit([1, 1, 0, 0])], [0, 1]
        )
        idx.manifest["config"] = to_dict(cfg)
        a = retrieve_shape(idx, raster, raster.mask, model, 3, 2, seed=4)
        b = retrieve_shape(idx, raster, raster.mask, model, 3, 2, seed=4, cfg=cfg)
        assert a.ranking == b.ranking

    def test_unknown_manifest_config_key_rejected(self):
        idx, model, raster, _ = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        idx.manifest["config"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            retrieve_shape(idx, raster, raster.mask, model, 1, 1, seed=0)

    def test_missing_manifest_config_is_format_error(self):
        idx, model, raster, _ = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        del idx.manifest["config"]
        with pytest.raises(FormatError, match="index manifest"):
            retrieve_shape(idx, raster, raster.mask, model, 1, 1, seed=0)


class TestModelFitsIndex:
    """A model that does not fit its index is rejected before any patch is read."""

    def test_embedding_dim_differs_from_index(self):
        _, _, raster, cfg = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        idx = micro_index([unit([1, 0, 0, 0, 0, 0, 0, 0])], [0], d=8)
        model = init_params(cfg.pool_size**2, 12, 8, 32, seed=0)
        with pytest.raises(FormatError, match="d=32, but the index holds d=8"):
            retrieve_shape(idx, raster, raster.mask, model, 1, 1, seed=0, cfg=cfg)

    def test_image_tower_input_differs_from_pooled_features(self):
        idx, _, raster, _ = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        idx.manifest["config"] = to_dict(Config(pool_size=16, embed_dim=4))
        model = init_params(100, 12, 8, 4, seed=0)
        with pytest.raises(FormatError, match="100 features, but pool_size 16 pools 256"):
            retrieve_shape(idx, raster, raster.mask, model, 1, 1, seed=0)


def index_blob(manifest_bytes: bytes) -> bytes:
    """An index file of one record, of shape 3, with the given manifest bytes.

    With one record, the four column blocks read as one packed record.
    """
    header = INDEX_MAGIC + struct.pack("<IIII", 2, 1, 4, len(manifest_bytes))
    blocks = struct.pack("<6I4f", 3, 0, 0, 0, 4, 4, 1, 0, 0, 0)
    return header + manifest_bytes + blocks


def load_blob(blob: bytes) -> PatchIndex:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.p2ci")
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_index(path)


def valid_blob() -> bytes:
    idx = micro_index(
        [unit([1, 0, 0, 0]), unit([1, 2, 0, 0]), unit([0, 1, 3, 0])], [0, 1, 1]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.p2ci")
        save_index(idx, path)
        with open(path, "rb") as fh:
            return fh.read()


VALID_BLOB = valid_blob()


def odd_index() -> PatchIndex:
    """Three records, so the view id block starts 4 bytes past an 8-byte boundary."""
    idx = micro_index(
        [unit([1, 0, 0, 0]), unit([1, 2, 0, 0]), unit([0, 1, 3, 0])], [0, 1, 1]
    )
    idx.view_ids[:] = [5, 0, 2**32 - 1]
    idx.rects[1] = [7, 9, 2**31, 3]
    return idx


def loads_or_rejects(blob: bytes) -> None:
    try:
        idx = load_blob(blob)
        categories = idx.category_records
    except PatchVoteError:
        return
    assert isinstance(idx, PatchIndex)
    assert idx.embeddings.shape[0] == len(idx.shape_ids) == len(idx.rects)
    assert all(isinstance(cat, str) for cat in categories)


class TestIndexIOColumnar:
    @pytest.mark.parametrize(
        "manifest",
        [
            b"\xff\xfe{}", b"{not json", b"[1, 2]", b"3", b"",
            b"{}", b'{"shapes": {}}', b'{"shapes": {"3": 5}}',
            b'{"shapes": {"3": {"category": 5}}}', b'{"shapes":' + b"[" * 100_000,
        ],
        ids=[
            "not-utf8", "not-json", "list", "number", "empty",
            "no-shapes", "shape-unlisted", "shape-not-object", "category-not-str",
            "nested-past-the-recursion-limit",
        ],
    )
    def test_bad_manifest_is_format_error(self, manifest):
        """Rejected at load, or when the first conditioned query reads it."""
        with pytest.raises(FormatError, match="manifest"):
            load_blob(index_blob(manifest)).category_records

    def test_record_interleaved_version_1_rejected(self):
        idx = odd_index()
        manifest = json.dumps(idx.manifest, sort_keys=True).encode()
        header = INDEX_MAGIC + struct.pack("<IIII", 1, 3, 4, len(manifest))
        records = b"".join(
            struct.pack("<6I4f", sid, vid, *rect, *emb)
            for sid, vid, rect, emb in zip(
                idx.shape_ids, idx.view_ids, idx.rects, idx.embeddings
            )
        )
        with pytest.raises(FormatError, match="unsupported index version 1"):
            load_blob(header + manifest + records)

    @pytest.mark.parametrize("residue", range(8))
    def test_blocks_aligned_at_every_manifest_length(self, tmp_path, residue):
        idx = odd_index()
        idx.manifest["filler"] = ""
        short = len(json.dumps(idx.manifest, sort_keys=True).encode())
        idx.manifest["filler"] = "x" * ((residue - short) % 8)
        assert len(json.dumps(idx.manifest, sort_keys=True).encode()) % 8 == residue
        p = tmp_path / "a.p2ci"
        save_index(idx, str(p))
        (mlen,) = struct.unpack_from("<I", p.read_bytes(), len(INDEX_MAGIC) + 12)
        assert (len(INDEX_MAGIC) + 16 + mlen) % 8 == 0  # the first block's offset
        back = load_index(str(p))
        for name in ("embeddings", "shape_ids", "view_ids", "rects"):
            assert getattr(back, name).flags["ALIGNED"], name
            np.testing.assert_array_equal(getattr(back, name), getattr(idx, name))
        assert back.manifest == idx.manifest

    def test_unpadded_manifest_loads_the_same_arrays(self):
        idx = odd_index()
        manifest = json.dumps(idx.manifest, sort_keys=True).encode()
        manifest += b"" if len(manifest) % 2 else b" "
        header = INDEX_MAGIC + struct.pack("<IIII", 2, 3, 4, len(manifest))
        blocks = b"".join(
            np.ascontiguousarray(column, dtype=dtype).tobytes()
            for column, dtype in (
                (idx.shape_ids, "<u4"), (idx.view_ids, "<u4"),
                (idx.rects, "<u4"), (idx.embeddings, "<f4"),
            )
        )
        back = load_blob(header + manifest + blocks)
        assert not back.embeddings.flags["ALIGNED"]
        for name in ("embeddings", "shape_ids", "view_ids", "rects"):
            np.testing.assert_array_equal(getattr(back, name), getattr(idx, name))
        assert back.manifest == idx.manifest

    def test_empty_index_round_trips(self, tmp_path):
        idx = micro_index(np.zeros((0, 4)), [])
        p = tmp_path / "e.p2ci"
        save_index(idx, str(p))
        back = load_index(str(p))
        assert back.embeddings.shape == (0, 4)
        assert back.manifest == idx.manifest

    def test_loaded_arrays_are_writable_copies(self):
        back = load_blob(VALID_BLOB)
        for arr in (back.embeddings, back.shape_ids, back.view_ids, back.rects):
            assert arr.flags["C_CONTIGUOUS"] and arr.flags["WRITEABLE"]
        assert back.embeddings.dtype == np.float32
        assert back.shape_ids.dtype == np.int64

    @pytest.mark.parametrize(
        "field, column, value",
        [
            ("shape_id", "shape_ids", -1),
            ("shape_id", "shape_ids", 2**32),
            ("view_id", "view_ids", 2**32),
            ("rect", "rects", -3),
        ],
    )
    def test_save_rejects_values_outside_u32(self, tmp_path, field, column, value):
        idx = micro_index([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])], [0, 1])
        arr = getattr(idx, column)
        arr.flat[-1] = value
        p = tmp_path / "bad.p2ci"
        with pytest.raises(FormatError, match=field):
            save_index(idx, str(p))
        assert not p.exists()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("shape_ids", np.array([0, 1]), "shape ids of shape (2,), expected (3,)"),
            ("view_ids", np.zeros((3, 1)), "view ids of shape (3, 1), expected (3,)"),
            ("rects", np.zeros((3, 3)), "rects of shape (3, 3), expected (3, 4)"),
            ("embeddings", np.zeros(4), "embeddings of shape (4,), expected (n, d)"),
        ],
    )
    def test_save_rejects_columns_load_would_misread(
        self, tmp_path, column, value, message
    ):
        """Such a file used to be written and then refused as truncated."""
        idx = micro_index(
            [unit([1, 0, 0, 0]), unit([0, 1, 0, 0]), unit([0, 0, 1, 0])], [0, 1, 1]
        )
        setattr(idx, column, value)
        p = tmp_path / "bad.p2ci"
        with pytest.raises(FormatError, match=f"^index: {re.escape(message)}$"):
            save_index(idx, str(p))
        assert not p.exists()

    def test_save_rejects_a_manifest_that_is_not_a_dict(self, tmp_path):
        idx = micro_index([unit([1, 0, 0, 0])], [0])
        idx.manifest = [1]
        p = tmp_path / "bad.p2ci"
        with pytest.raises(FormatError, match="^index manifest is not a JSON object$"):
            save_index(idx, str(p))
        assert not p.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_rejected(self, tmp_path, value):
        idx = micro_index([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])], [0, 1])
        p = tmp_path / "nf.p2ci"
        save_index(idx, str(p))
        # save_index refuses the value, so plant it in the file's last
        # block, the (2, 4) f32 embeddings
        with open(p, "r+b") as fh:
            fh.seek(p.stat().st_size - 4 * 8 + 4 * (1 * 4 + 2))
            fh.write(np.array(value, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="index: non-finite value in records"):
            load_index(str(p))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_save_rejects_non_finite_embedding(self, tmp_path, value):
        idx = micro_index([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])], [0, 1])
        idx.embeddings[1, 2] = value
        p = tmp_path / "nf.p2ci"
        with pytest.raises(FormatError, match="^index: non-finite value in records$"):
            save_index(idx, str(p))
        assert not p.exists()

    def test_u32_extremes_round_trip(self, tmp_path):
        idx = micro_index([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])], [0, 1])
        idx.view_ids[1] = 2**32 - 1
        idx.rects[0] = [0, 2**32 - 1, 7, 2**31]
        p = tmp_path / "x.p2ci"
        save_index(idx, str(p))
        back = load_index(str(p))
        np.testing.assert_array_equal(back.view_ids, idx.view_ids)
        np.testing.assert_array_equal(back.rects, idx.rects)

    @settings(max_examples=150, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(VALID_BLOB)))
    def test_fuzz_truncation(self, cut):
        loads_or_rejects(VALID_BLOB[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        flips=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(VALID_BLOB) - 1),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_fuzz_bit_flips(self, flips):
        blob = bytearray(VALID_BLOB)
        for pos, bit in flips:
            blob[pos] ^= 1 << bit
        loads_or_rejects(bytes(blob))

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=256), with_header=st.booleans())
    @example(tail=struct.pack("<IIII", 1, 0, 2**31, 2) + b"{}", with_header=False)
    @example(tail=b"", with_header=True)
    def test_fuzz_random_bytes(self, tail, with_header):
        loads_or_rejects((INDEX_MAGIC if with_header else b"") + tail)


def contract_index(n=2400, d=32, seed=0):
    """Seeded unit rows of nine shapes; shape s is of category s mod 3 and
    every record's shape is drawn at random, so the categories interleave."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    names = ("chair", "table", "cabinet")
    return micro_index(
        emb, rng.integers(0, 9, size=n).tolist(), d=d,
        categories={s: names[s % 3] for s in range(9)},
    )


def unit_rows(rng, P, d):
    Y = rng.normal(size=(P, d))
    return Y / np.linalg.norm(Y, axis=1, keepdims=True)


class TestKnnBlockContract:
    """Every similarity is the f64 value the whole-index search scores,
    whatever the search's scope and however many patches share its block."""

    def test_category_search_scores_records_as_whole_index(self):
        idx = contract_index()
        rng = np.random.default_rng(1)
        for P in range(1, 10):
            Y = unit_rows(rng, P, 32)
            ids, sims = knn_query(idx, Y, len(idx))
            whole = np.empty((P, len(idx)))
            np.put_along_axis(whole, ids, sims, axis=1)
            for category in ("chair", "table", "cabinet"):
                n = len(idx.scope(category)[0])
                cids, csims = knn_query(idx, Y, n, category=category)
                assert cids.shape == (P, n)
                assert csims.tobytes() == np.take_along_axis(whole, cids, axis=1).tobytes()

    def test_row_in_block_scores_as_alone(self):
        idx = contract_index()
        Y = unit_rows(np.random.default_rng(2), 9, 32)
        for category in (None, "chair", "table", "cabinet"):
            n = len(idx.scope(category)[0])
            ids, sims = knn_query(idx, Y, n, category=category)
            for p in range(9):
                alone_ids, alone_sims = knn_query(idx, Y[p : p + 1], n, category=category)
                assert alone_ids[0].tolist() == ids[p].tolist()
                assert alone_sims[0].tobytes() == sims[p].tobytes()
