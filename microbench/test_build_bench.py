"""Micro-benchmarks of the per-view passes of the index build.

Run from the repository root, next to the index benchmarks:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest microbench -q

The view is what perfbench's build renders: one synthetic chair of
mid-range parameters at 96 px under the default Config, with the
INDEX_PATCHES_PER_VIEW = 128 rects of side 32 that `enumerate_view_patches`
samples. `content_rect` snaps the view's non-empty rects on the
noiseless shading, and `shape_patch_features` pools the snapped rects'
normals into 16 x 16 cells.
"""

import numpy as np
import pytest

from patchvote.config import Config
from patchvote.descriptor import content_rect, sample_patches
from patchvote.embed import shape_patch_features
from patchvote.render import rasterize, scene_light
from patchvote.synth import PARAM_RANGES, SynthSpec, generate_shape
from patchvote.views import axis_angle_quat

CFG = Config()
PATCHES_PER_VIEW = 128
VIEW = axis_angle_quat([1, 1, 0], 0.7)


@pytest.fixture(scope="module")
def mesh():
    params = {k: (lo + hi) / 2 for k, (lo, hi) in PARAM_RANGES["chair"].items()}
    return generate_shape(SynthSpec("chair", params))


@pytest.fixture(scope="module")
def view(mesh):
    nmap = rasterize(mesh, VIEW, CFG.render_resolution)
    lambert = np.maximum(0.0, nmap.normals @ scene_light())
    lambert[~nmap.mask] = 0.0
    rects = sample_patches(
        nmap, CFG.patch_fraction, PATCHES_PER_VIEW, 7, CFG.min_coverage
    )
    kept = [r for r in rects if not r.empty]
    return nmap, lambert, content_rect(lambert, nmap.mask, kept), kept


def test_rasterize(benchmark, mesh):
    benchmark(rasterize, mesh, VIEW, CFG.render_resolution)


def test_sample_patches(benchmark, view):
    nmap = view[0]
    benchmark(
        sample_patches, nmap, CFG.patch_fraction, PATCHES_PER_VIEW, 7, CFG.min_coverage
    )


def test_content_rect_view(benchmark, view):
    nmap, lambert, _, kept = view
    benchmark(content_rect, lambert, nmap.mask, kept)


def test_pool_view(benchmark, view):
    nmap, _, snapped, _ = view
    benchmark(shape_patch_features, nmap.normals, snapped, CFG.pool_size)
