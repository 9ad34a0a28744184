"""Pinned byte layouts of the two binary artifacts, the index and the model.

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

INDEX_SHA256 = "ba0e60bc0c6d0305e224721027a7b2c8d19517196f9a672fc9c435553b52918b"
MODEL_SHA256 = "2a70c9b07534d43d778b04ca00325fb548d7866b5f9f3defc86339b47a8638a5"


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
