"""Micro-benchmarks of training: one epoch (`train` with epochs=1), one
shape-tower forward and backward over a batch, and one anchor's
hard-negative mining.

Run from the repository root, next to the index benchmarks:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest microbench -q

The corpus has the perfbench size under the default Config: 713 anchors
of pool_size**2 = 256 f32 intensities, 4,906 candidates of 3 * 256 = 768
f32 normal components, 1 to 24 positives per anchor (the bench corpus
has 1 to 41, median 12) and 3,900 negatives disjoint from them (the
bench corpus has 3,662 to 4,096), packed into bit rows by
PatchCorpus.from_lists, the layout build_corpus writes. Values are
seeded uniform draws, so mining and the loss do the bench's work on
different numbers. One epoch draws embed._ANCHORS_PER_EPOCH = 512
anchors, mines negatives_keep = 1,024 for each, and takes 8 SGD steps
of batch_size = 64. The shape-tower benchmark times one batch's pass
alone: 4,800 of the corpus's f32 candidate rows, about as many as a
bench batch references, read by the first layer in row blocks, each
widened to f64 by numpy, on the way forward and again in column blocks
for its weight gradient
(the copy of the output gradient, which the backward pass overwrites,
is timed with it). The mining benchmark times one such selection
alone: the negatives_keep = 1,024 best of one anchor's 3,900
similarities.

The pinned-size epoch has the size of the pinned run's corpus (see
ROADMAP.md): 1,431 anchors and 9,775 candidates. Its 2,400 negatives
per anchor make a batch reference about 7,100 candidate rows (7,162 in
the median over this corpus's batches), as the pinned run's batches do.
An f64 copy of a batch's shape-tower input would be 44 MB, above
glibc's 32 MB ceiling for its dynamic mmap threshold, so it would be
mapped and faulted in anew every batch; `train` reads the f32 corpus
in blocks instead.
"""

from dataclasses import replace

import numpy as np
import pytest

from patchvote.config import Config
from patchvote.embed import PatchCorpus, _top_k, tower_backward, tower_forward, train

CFG = replace(Config(), epochs=1)
ANCHORS = 713
CANDIDATES = 4906
NEGATIVES = 3900
PINNED_ANCHORS = 1431
PINNED_CANDIDATES = 9775
PINNED_NEGATIVES = 2400
BATCH_ROWS = 4800


def make_corpus(anchors: int, candidates: int, negatives: int) -> PatchCorpus:
    rng = np.random.default_rng(0)
    p2 = CFG.pool_size**2
    pos_lists, neg_lists = [], []
    for n_pos in rng.integers(1, 25, size=anchors):
        ids = rng.permutation(candidates)
        pos_lists.append(ids[:n_pos])
        neg_lists.append(ids[n_pos : n_pos + negatives])
    return PatchCorpus.from_lists(
        anchor_feats=rng.random((anchors, p2), dtype=np.float32),
        cand_feats=rng.random((candidates, 3 * p2), dtype=np.float32),
        pos_lists=pos_lists,
        neg_lists=neg_lists,
    )


@pytest.fixture(scope="module")
def corpus() -> PatchCorpus:
    return make_corpus(ANCHORS, CANDIDATES, NEGATIVES)


def bench_epoch(benchmark, corpus: PatchCorpus, towers) -> None:
    # train updates the towers it is given: each round starts from a copy
    benchmark(lambda: train(corpus, CFG, towers.copy()))


def test_train_epoch(benchmark, corpus, towers):
    bench_epoch(benchmark, corpus, towers)


def test_train_epoch_pinned_size(benchmark, towers):
    bench_epoch(
        benchmark,
        make_corpus(PINNED_ANCHORS, PINNED_CANDIDATES, PINNED_NEGATIVES),
        towers,
    )


def test_shape_tower_pass(benchmark, corpus, towers):
    tower = towers.shape
    rng = np.random.default_rng(2)
    rows = np.sort(rng.choice(CANDIDATES, BATCH_ROWS, replace=False))
    dY = rng.normal(size=(BATCH_ROWS, CFG.embed_dim))

    def step():
        trace = tower_forward(tower, corpus.cand_feats, rows)
        return tower_backward(tower, trace, dY.copy())

    benchmark(step)


def test_mining_top_k(benchmark):
    rng = np.random.default_rng(1)
    ids = np.sort(rng.choice(CANDIDATES, NEGATIVES, replace=False))
    sims = rng.uniform(-1.0, 1.0, size=(1, NEGATIVES))
    benchmark(_top_k, sims, ids, CFG.negatives_keep)
