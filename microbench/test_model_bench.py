"""Micro-benchmarks of model file I/O: `save_model` and `load_model`.

Run from the repository root, next to the index benchmarks:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest microbench -q

The towers have the perfbench sizes under the default Config: the image
tower maps pool_size**2 = 256 inputs and the shape tower 3 * 256 = 768
through hidden_dim = 64 to embed_dim = 32.
"""

import pytest

from patchvote.config import Config
from patchvote.embed import init_params, load_model, save_model

CFG = Config()


@pytest.fixture(scope="module")
def model():
    p2 = CFG.pool_size**2
    return init_params(p2, 3 * p2, CFG.hidden_dim, CFG.embed_dim, seed=0)


def test_save_model(benchmark, model, tmp_path):
    benchmark(save_model, model, str(tmp_path / "bench.p2cm"))


def test_load_model(benchmark, model, tmp_path):
    path = str(tmp_path / "bench.p2cm")
    save_model(model, path)
    benchmark(load_model, path)
