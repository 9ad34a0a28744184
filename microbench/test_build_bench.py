"""Micro-benchmarks of the per-view passes of the index build.

Run from the repository root, next to the index benchmarks:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest microbench -q

The view is what perfbench's build renders: one synthetic chair of
mid-range parameters at 96 px under the default Config, with the
INDEX_PATCHES_PER_VIEW = 128 rects of side 32 that `enumerate_view_patches`
samples. `normal_map` is the rebuild of that render from its held
triangle ids, which each pass over a shared canonical view pays in
place of a second `rasterize` (see `index.render_views`): one gather
from the mesh's face-normal table, which the mesh builds on its first
render and holds (`TriMesh.normal_table`).
`content_rect` snaps the view's rects that meet the coverage
floor on the noiseless shading (`render.lambert`), and
`shape_patch_features` pools the snapped rects' normals into 16 x 16
cells of 2 px bins. Two more pooling cases run the kernel's sequential
bin sum over longer runs on the same rects: 4 x 4 cells of 8 px bins
(the longest run whose order matches `np.add.reduceat`) and one 32 px
bin per rect.
`tower_forward` runs those pooled normals, an f64 (125, 768) block, through
the shape tower at the pipeline's hidden width, as `build_index` embeds
each view's records: the first layer multiplies the block where it lies.

The anchor-view pass is what `build_corpus` runs per anchor view: one
`shade` call draws a noise variant per covered rect of the
ANCHOR_PATCHES = 8 it samples, one `content_rect` call snaps each rect
on its own variant, and one `image_patch_features` call pools them.
"""

import pytest

from patchvote.config import Config
from patchvote.descriptor import content_rect, coverage, sample_patches
from patchvote.embed import image_patch_features, shape_patch_features, tower_forward
from patchvote.render import lambert, normal_map, rasterize, shade
from patchvote.synth import PARAM_RANGES, SynthSpec, generate_shape
from patchvote.views import axis_angle_quat

CFG = Config()
PATCHES_PER_VIEW = 128
ANCHOR_PATCHES = 8
VIEW = axis_angle_quat([1, 1, 0], 0.7)


@pytest.fixture(scope="module")
def mesh():
    params = {k: (lo + hi) / 2 for k, (lo, hi) in PARAM_RANGES["chair"].items()}
    return generate_shape(SynthSpec("chair", params))


@pytest.fixture(scope="module")
def view(mesh):
    nmap = rasterize(mesh, VIEW, CFG.render_resolution)
    weight = lambert(nmap)
    rects = sample_patches(nmap, CFG.patch_fraction, PATCHES_PER_VIEW, 7)
    kept = rects[coverage(nmap.mask, rects) >= CFG.min_coverage]
    return nmap, weight, content_rect(weight, nmap.mask, kept), kept


def test_rasterize(benchmark, mesh):
    benchmark(rasterize, mesh, VIEW, CFG.render_resolution)


def test_normal_map(benchmark, mesh):
    tri_ids = rasterize(mesh, VIEW, CFG.render_resolution).tri_ids
    benchmark(normal_map, mesh, tri_ids)


def test_sample_patches(benchmark, view):
    nmap = view[0]
    benchmark(sample_patches, nmap, CFG.patch_fraction, PATCHES_PER_VIEW, 7)


def test_content_rect_view(benchmark, view):
    nmap, weight, _, kept = view
    benchmark(content_rect, weight, nmap.mask, kept)


def test_pool_view(benchmark, view):
    nmap, _, snapped, _ = view
    benchmark(shape_patch_features, nmap.normals, snapped, CFG.pool_size)


@pytest.mark.parametrize("pool", [1, 4], ids=["wide-bins", "8px-bins"])
def test_pool_view_other_bins(benchmark, view, pool):
    nmap, _, snapped, _ = view
    benchmark(shape_patch_features, nmap.normals, snapped, pool)


def test_shape_tower_view(benchmark, view, towers):
    nmap, _, snapped, _ = view
    feats = shape_patch_features(nmap.normals, snapped, CFG.pool_size)
    benchmark(tower_forward, towers.shape, feats)


def anchor_view_pass(nmap, rects, seeds):
    variants = shade(nmap, CFG.shade_noise, seeds).intensity
    snapped = content_rect(variants, nmap.mask, rects)
    return image_patch_features(variants, snapped, CFG.pool_size)


def test_anchor_view_pass(benchmark, view):
    nmap = view[0]
    rects = sample_patches(nmap, CFG.patch_fraction, ANCHOR_PATCHES, 3)
    rects = rects[coverage(nmap.mask, rects) >= CFG.min_coverage]
    seeds = list(range(100, 100 + len(rects)))
    benchmark(anchor_view_pass, nmap, rects, seeds)
