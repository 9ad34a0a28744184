"""Pinned byte layouts of the binary artifacts.

Each artifact is built from fixed, RNG-free arrays and its sha256 is
compared with the value recorded when the layout was last changed on
purpose. A round-trip test compares a rewrite with itself, so a layout
change made in both the writer and the reader passes it; this one does
not. Only the public writers and readers are used, so the test holds
for any internal reorganisation that keeps the bytes.
"""

import hashlib

import numpy as np

from patchvote.embed import Tower, TowerParams, load_model, save_model
from patchvote.index import PatchIndex, load_index, save_index
from patchvote.pose import PoseHeadParams, pack_pose_section, unpack_pose_section

INDEX_SHA256 = "f89c53280fc922cf9301fa06ef73489972186b4f0b82d992a6bd14a468fb51e3"
MODEL_SHA256 = "2a70c9b07534d43d778b04ca00325fb548d7866b5f9f3defc86339b47a8638a5"
POSE_SHA256 = "972d677a181ad9de695cf8e8969d682dc163515dbff2a8d8034649844d00e781"


def ramp(shape, start=0.0):
    """Deterministic values that are exact in f32: multiples of 1/8."""
    n = int(np.prod(shape))
    return ((np.arange(n) - n // 2) / 8.0 + start).reshape(shape)


def golden_index() -> PatchIndex:
    emb = ramp((5, 4), 0.25)
    return PatchIndex(
        embeddings=emb.astype(np.float32),
        shape_ids=np.array([0, 0, 1, 1, 7], dtype=np.int64),
        view_ids=np.array([0, 3, 1, 2, 2**32 - 1], dtype=np.int64),
        rects=np.arange(20, dtype=np.int64).reshape(5, 4) * 3,
        manifest={
            "shapes": {
                "0": {"category": "chair", "obj": "shape_0000.obj"},
                "1": {"category": "table", "obj": ""},
                "7": {"category": "cabinet", "obj": "é.obj"},
            },
            "patches_per_view": 2,
        },
    )


def golden_towers() -> TowerParams:
    def tower(d_in, start):
        return Tower(
            W1=ramp((d_in, 3), start),
            b1=ramp((3,), -start),
            W2=ramp((3, 2), start / 2),
            b2=ramp((2,), 1.0),
        )

    return TowerParams(image=tower(4, 0.5), shape=tower(6, -0.5))


def golden_pose_head() -> tuple[PoseHeadParams, np.ndarray]:
    d_in, k = 5, 3
    params = PoseHeadParams(
        Wc=ramp((d_in, k), 0.125),
        bc=ramp((k,)),
        Wq=ramp((d_in, 4), -0.25),
        bq=ramp((4,), 0.5),
        Wt=ramp((d_in, 2)),
        bt=ramp((2,), -1.0),
    )
    medoids = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [0.0, 0.6, 0.0, 0.8]]
    )
    return params, medoids


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenLayouts:
    def test_index_bytes(self, tmp_path):
        idx = golden_index()
        p = tmp_path / "g.p2ci"
        save_index(idx, str(p))
        assert sha256(p.read_bytes()) == INDEX_SHA256
        back = load_index(str(p))
        np.testing.assert_array_equal(back.embeddings, idx.embeddings)
        np.testing.assert_array_equal(back.view_ids, idx.view_ids)
        np.testing.assert_array_equal(back.rects, idx.rects)
        assert back.manifest == idx.manifest

    def test_model_bytes(self, tmp_path):
        towers = golden_towers()
        p = tmp_path / "g.p2cm"
        save_model(towers, str(p))
        assert sha256(p.read_bytes()) == MODEL_SHA256
        back, _ = load_model(str(p))
        np.testing.assert_array_equal(back.shape.W1, towers.shape.W1)
        np.testing.assert_array_equal(back.image.b2, towers.image.b2)

    def test_pose_blob_bytes(self):
        params, medoids = golden_pose_head()
        blob = pack_pose_section(params, medoids)
        assert sha256(blob) == POSE_SHA256
        back, back_medoids = unpack_pose_section(blob)
        np.testing.assert_array_equal(back_medoids, medoids)
        for a, b in zip(back.arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)
