"""Micro-benchmarks of the index layer: kNN, retrieval and index file I/O.

Run from the repository root (one BLAS thread, as perfbench pins it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest microbench -q

pytest-benchmark prints one row per benchmark; add `--benchmark-autosave`
to keep the results under `.benchmarks/` and `--benchmark-compare` to
compare against the last saved run. The directory sits outside
`testpaths`, so the tier-1 suite does not collect it.

The index is the size of the perfbench one (8,825 records of d=32 over
six shapes in three categories) with seeded random unit embeddings, and
the query is a shaded render of one synthetic chair. The kNN
benchmarks score one unit query and one (Kq, d) block of them, as
retrieve_shape sends a query's patches, against the whole index and
against one category; the top-k benchmarks time only the selection of
Kr neighbours from such a block's (Kq, n) similarities. Every kNN and
retrieval benchmark runs after the index's cached query state is built,
as a served index has it after its first query.

The file I/O benchmarks save and load an index of the same kind at two
sizes: the perfbench one and 120,000 records, about the 120,567 of the
pinned north-star run.
"""

import numpy as np
import pytest

from patchvote.config import Config, to_dict
from patchvote.embed import _top_k
from patchvote.experiment import render_query
from patchvote.index import PatchIndex, knn_query, load_index, retrieve_shape, save_index
from patchvote.synth import PARAM_RANGES, SynthSpec, generate_shape
from patchvote.views import axis_angle_quat

RECORDS = 8825
PINNED_RECORDS = 120_000
CATEGORIES = {0: "chair", 1: "chair", 2: "table", 3: "table", 4: "cabinet", 5: "cabinet"}
CFG = Config()


def random_index(records: int) -> PatchIndex:
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(records, CFG.embed_dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return PatchIndex(
        embeddings=emb.astype(np.float32),
        shape_ids=np.sort(rng.integers(0, len(CATEGORIES), size=records)),
        view_ids=rng.integers(0, CFG.num_views, size=records),
        rects=rng.integers(0, CFG.render_resolution, size=(records, 4)),
        manifest={
            "shapes": {str(s): {"category": c} for s, c in CATEGORIES.items()},
            "config": to_dict(CFG),
        },
    )


@pytest.fixture(scope="module")
def index() -> PatchIndex:
    idx = random_index(RECORDS)
    for category in (None, *sorted(set(CATEGORIES.values()))):
        idx.scope(category)  # build the cached query state
    return idx


@pytest.fixture(scope="module", params=[RECORDS, PINNED_RECORDS], ids=lambda n: f"n{n}")
def file_index(request) -> PatchIndex:
    return random_index(request.param)


@pytest.fixture(scope="module")
def query(towers):
    params = {k: (lo + hi) / 2 for k, (lo, hi) in PARAM_RANGES["chair"].items()}
    mesh = generate_shape(SynthSpec("chair", params))
    shaded, _ = render_query(mesh, axis_angle_quat([0, 1, 0], 0.6), CFG, seed=1)
    return shaded, towers


def unit_query(seed: int) -> np.ndarray:
    """One unit embedding as a (1, d) block."""
    v = np.random.default_rng(seed).normal(size=(1, CFG.embed_dim))
    return v / np.linalg.norm(v)


def test_knn_query_full(benchmark, index):
    benchmark(knn_query, index, unit_query(1), CFG.kr)


def test_knn_query_category(benchmark, index):
    benchmark(knn_query, index, unit_query(2), CFG.kr, category="table")


def query_block(seed: int) -> np.ndarray:
    return np.vstack([unit_query(seed * CFG.kq + p) for p in range(CFG.kq)])


def test_knn_query_block_full(benchmark, index):
    benchmark(knn_query, index, query_block(1), CFG.kr)


def test_knn_query_block_category(benchmark, index):
    benchmark(knn_query, index, query_block(2), CFG.kr, category="table")


@pytest.mark.parametrize("category", [None, "table"], ids=["all", "table"])
def test_top_k_block(benchmark, index, category):
    ids, rows = index.scope(category)
    sims = query_block(3) @ rows.T
    benchmark(_top_k, sims, ids, CFG.kr)


@pytest.mark.parametrize("category", [None, "chair"], ids=["all", "chair"])
def test_retrieve_shape(benchmark, index, query, category):
    shaded, model = query
    benchmark(
        retrieve_shape, index, shaded, shaded.mask, model, CFG.kq, CFG.kr,
        seed=3, cfg=CFG, category=category,
    )


def test_save_index(benchmark, file_index, tmp_path):
    benchmark(save_index, file_index, str(tmp_path / "bench.p2ci"))


def test_load_index(benchmark, file_index, tmp_path):
    path = str(tmp_path / "bench.p2ci")
    save_index(file_index, path)
    benchmark(load_index, path)
