import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchvote.config import Config, to_dict
from patchvote.embed import Tower, TowerParams, init_params
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
    _elect,
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
        return Config(render_resolution=64, seed=3)

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


class TestKnn:
    def test_exact_match_first(self):
        idx = micro_index([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])], [0, 1])
        out = knn_query(idx, unit([1, 0, 0, 0]), 1)
        assert out[0][0] == 0
        assert out[0][1] == pytest.approx(1.0)

    def test_k_exceeding_size_returns_all_sorted(self):
        idx = micro_index(
            [unit([1, 0, 0, 0]), unit([1, 1, 0, 0]), unit([0, 1, 0, 0])], [0, 1, 2]
        )
        out = knn_query(idx, unit([1, 0, 0, 0]), 10)
        assert [rid for rid, _ in out] == [0, 1, 2]
        sims = [s for _, s in out]
        assert sims == sorted(sims, reverse=True)

    def test_identical_embeddings_tie_to_lower_id(self):
        v = unit([1, 2, 0, 0])
        idx = micro_index([v, v, v], [0, 1, 2])
        out = knn_query(idx, v, 2)
        assert [rid for rid, _ in out] == [0, 1]

    def test_empty_index_rejected(self):
        idx = micro_index(np.zeros((0, 4)), [])
        with pytest.raises(EmptyIndexError):
            knn_query(idx, unit([1, 0, 0, 0]), 1)


class TestElect:
    def test_modal_shape_wins(self):
        shape_ids = np.array([5, 5, 7])
        winner, best = _elect([(0, 0.5), (1, 0.6), (2, 0.9)], shape_ids)
        assert winner == 5
        assert best == 0.6

    def test_tie_higher_summed_similarity(self):
        shape_ids = np.array([1, 2])
        winner, _ = _elect([(0, 0.4), (1, 0.7)], shape_ids)
        assert winner == 2

    def test_full_tie_lower_shape_id(self):
        shape_ids = np.array([3, 9])
        winner, _ = _elect([(0, 0.5), (1, 0.5)], shape_ids)
        assert winner == 3


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
            {0: unit_cube()}, axis_views(), model, 2, Config(render_resolution=64)
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


def reference_knn(index, query, k, subset=None):
    """Full-sort kNN: every searched record ordered by (-sim, id)."""
    ids = np.arange(len(index)) if subset is None else np.asarray(subset)
    emb = index.embeddings[ids].astype(np.float64)
    sims = emb @ np.asarray(query, dtype=np.float64)
    order = np.lexsort((ids, -sims))[:k]
    return [(int(ids[i]), float(sims[i])) for i in order]


class TestKnnPartialTopK:
    def test_k_cuts_through_run_of_ties(self):
        a, b = unit([1, 0, 0, 0]), unit([1, 1, 0, 0])
        # records 1..5 tie at the 2nd..6th place; k=3 keeps the two lowest ids
        idx = micro_index([b, a, b, a, a, a, b], [0, 1, 2, 3, 4, 5, 6])
        out = knn_query(idx, a, 3)
        assert [rid for rid, _ in out] == [1, 3, 4]
        out = knn_query(idx, b, 4)
        assert [rid for rid, _ in out] == [0, 2, 6, 1]

    def test_unsorted_subset(self):
        v = unit([1, 2, 0, 0])
        idx = micro_index(
            [v, unit([0, 1, 0, 0]), v, v, unit([1, 0, 0, 0])], [0, 1, 2, 3, 4]
        )
        out = knn_query(idx, v, 3, subset=np.array([4, 3, 1, 2]))
        assert [rid for rid, _ in out] == [2, 3, 1]
        assert out == reference_knn(idx, v, 3, subset=[4, 3, 1, 2])

    @pytest.mark.parametrize("k", [3, 4, 50])
    def test_k_at_least_subset_size_returns_whole_subset(self, k):
        idx = micro_index(
            [unit([1, 0, 0, 0]), unit([1, 1, 0, 0]), unit([0, 1, 0, 0]),
             unit([1, 0, 0, 1])],
            [0, 1, 2, 3],
        )
        out = knn_query(idx, unit([1, 0, 0, 0]), k, subset=np.array([2, 0, 1]))
        assert [rid for rid, _ in out] == [0, 1, 2]

    def test_matches_full_sort_reference_with_frequent_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(1, 120))
            # small-integer embeddings make exact similarity ties common
            emb = rng.integers(-2, 3, size=(n, 4)).astype(np.float32)
            idx = micro_index(emb, rng.integers(0, 5, size=n).tolist())
            query = rng.integers(-2, 3, size=4).astype(np.float64)
            k = int(rng.integers(1, n + 3))
            subset = None
            if trial % 2:
                subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            assert knn_query(idx, query, k, subset) == reference_knn(
                idx, query, k, subset
            )

    def test_unknown_category_raises_empty_index(self):
        idx, model, raster, cfg = retrieval_fixture([unit([1, 1, 1, 1])], [0])
        with pytest.raises(EmptyIndexError):
            retrieve_shape(
                idx, raster, raster.mask, model, 2, 1, seed=0, cfg=cfg,
                category="sofa",
            )


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


def index_blob(manifest_bytes: bytes) -> bytes:
    """An index file of one record, of shape 3, with the given manifest bytes."""
    header = INDEX_MAGIC + struct.pack("<IIII", 1, 1, 4, len(manifest_bytes))
    record = struct.pack("<6I4f", 3, 0, 0, 0, 4, 4, 1, 0, 0, 0)
    return header + manifest_bytes + record


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
            b'{"shapes": {"3": {"category": 5}}}',
        ],
        ids=[
            "not-utf8", "not-json", "list", "number", "empty",
            "no-shapes", "shape-unlisted", "shape-not-object", "category-not-str",
        ],
    )
    def test_bad_manifest_is_format_error(self, manifest):
        """Rejected at load, or when the first conditioned query reads it."""
        with pytest.raises(FormatError, match="manifest"):
            load_blob(index_blob(manifest)).category_records

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_rejected(self, tmp_path, value):
        idx = micro_index([unit([1, 0, 0, 0]), unit([0, 1, 0, 0])], [0, 1])
        idx.embeddings[1, 2] = value
        p = tmp_path / "nf.p2ci"
        save_index(idx, str(p))
        with pytest.raises(FormatError, match="index: non-finite value in records"):
            load_index(str(p))

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
