"""Micro-benchmarks of the index layer: kNN, retrieval and index file I/O.

Run from the repository root (one BLAS thread, as perfbench pins it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest microbench -q

pytest-benchmark prints one row per benchmark; add `--benchmark-autosave`
to keep the results under `.benchmarks/` and `--benchmark-compare` to
compare against the last saved run. The directory sits outside
`testpaths`, so the tier-1 suite does not collect it.

The index is the size of the perfbench one (8,825 records of d=32 over
six shapes in three categories) with seeded random unit embeddings, and
the query is a shaded render of one synthetic chair. Every benchmark
runs after the index's cached query state is built, as a served index
has it after its first query.
"""

import numpy as np
import pytest

from patchvote.config import Config, to_dict
from patchvote.embed import init_params
from patchvote.experiment import render_query
from patchvote.index import PatchIndex, knn_query, load_index, retrieve_shape, save_index
from patchvote.synth import PARAM_RANGES, SynthSpec, generate_shape
from patchvote.views import axis_angle_quat

RECORDS = 8825
CATEGORIES = {0: "chair", 1: "chair", 2: "table", 3: "table", 4: "cabinet", 5: "cabinet"}
CFG = Config()


@pytest.fixture(scope="module")
def index() -> PatchIndex:
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(RECORDS, CFG.embed_dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    idx = PatchIndex(
        embeddings=emb.astype(np.float32),
        shape_ids=np.sort(rng.integers(0, len(CATEGORIES), size=RECORDS)),
        view_ids=rng.integers(0, CFG.num_views, size=RECORDS),
        rects=rng.integers(0, CFG.render_resolution, size=(RECORDS, 4)),
        manifest={
            "shapes": {str(s): {"category": c} for s, c in CATEGORIES.items()},
            "config": to_dict(CFG),
        },
    )
    _ = (idx.embeddings_f64, idx.category_embeddings)  # build the cached query state
    return idx


@pytest.fixture(scope="module")
def query():
    params = {k: (lo + hi) / 2 for k, (lo, hi) in PARAM_RANGES["chair"].items()}
    mesh = generate_shape(SynthSpec("chair", params))
    shaded, _ = render_query(mesh, axis_angle_quat([0, 1, 0], 0.6), CFG, seed=1)
    model = init_params(
        CFG.pool_size**2, 3 * CFG.pool_size**2, CFG.hidden_dim, CFG.embed_dim, seed=0
    )
    return shaded, model


def unit_query(seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=CFG.embed_dim)
    return v / np.linalg.norm(v)


def test_knn_query_full(benchmark, index):
    benchmark(knn_query, index, unit_query(1), CFG.kr)


def test_knn_query_category_subset(benchmark, index):
    subset = index.category_records["table"]
    benchmark(knn_query, index, unit_query(2), CFG.kr, subset)


@pytest.mark.parametrize("category", [None, "chair"], ids=["all", "chair"])
def test_retrieve_shape(benchmark, index, query, category):
    shaded, model = query
    benchmark(
        retrieve_shape, index, shaded, shaded.mask, model, CFG.kq, CFG.kr,
        seed=3, cfg=CFG, category=category,
    )


def test_save_index(benchmark, index, tmp_path):
    benchmark(save_index, index, str(tmp_path / "bench.p2ci"))


def test_load_index(benchmark, index, tmp_path):
    path = str(tmp_path / "bench.p2ci")
    save_index(index, path)
    benchmark(load_index, path)
