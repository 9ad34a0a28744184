"""Micro-benchmarks of model file I/O: `save_model` and `load_model`.

Run from the repository root, next to the index benchmarks:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest microbench -q

The towers have the perfbench sizes under the default Config: the image
tower maps pool_size**2 = 256 inputs and the shape tower 3 * 256 = 768
through the hidden units experiment.lit_init builds at that pool (64,
one per 2 x 2 block of cells) to embed_dim = 32: the `towers` fixture
of conftest.py.
"""

from patchvote.embed import load_model, save_model


def test_save_model(benchmark, towers, tmp_path):
    benchmark(save_model, towers, str(tmp_path / "bench.p2cm"))


def test_load_model(benchmark, towers, tmp_path):
    path = str(tmp_path / "bench.p2cm")
    save_model(towers, path)
    benchmark(load_model, path)
