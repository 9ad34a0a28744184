"""The per-view batched passes against the per-rect and meshgrid loops they replaced.

Each oracle below is the earlier implementation, kept verbatim apart
from names: a rasterizer that evaluates edge functions on a meshgrid of
each triangle's box, a snap of one rect at a time, a per-block pooler
and a per-rect coverage loop. The batched code must reproduce them bit
for bit, on seeded random box meshes and views and on the edge cases
that steer their control flow.
"""

import numpy as np
import pytest

from patchvote.descriptor import PatchRect, content_rect, rect_windows, sample_patches
from patchvote.embed import image_patch_features, shape_patch_features
from patchvote.errors import DescriptorError
from patchvote.mesh import TriMesh, face_normals
from patchvote.render import MARGIN, NormalMap, rasterize, scene_light, shade
from patchvote.views import quat_to_matrix, random_rotations

# ---------------------------------------------------------------------------
# oracles


def oracle_rasterize(mesh, view, resolution):
    """Per-triangle loop with edge functions evaluated on a 2D meshgrid."""
    rotated = mesh.vertices @ quat_to_matrix(np.asarray(view, dtype=np.float64)).T
    xy = rotated[:, :2]
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    extent = float((hi - lo).max())
    scale = (1.0 - 2.0 * MARGIN) * resolution / extent
    center = (lo + hi) / 2.0
    px = (xy[:, 0] - center[0]) * scale + resolution / 2.0
    py = resolution / 2.0 - (xy[:, 1] - center[1]) * scale
    pz = rotated[:, 2]
    zbuf = np.full((resolution, resolution), -np.inf)
    tbuf = np.full((resolution, resolution), -1, dtype=np.int64)
    for ti, (a, b, c) in enumerate(mesh.triangles):
        x0, y0 = px[a], py[a]
        x1, y1 = px[b], py[b]
        x2, y2 = px[c], py[c]
        area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if area == 0.0:
            continue
        cmin = max(int(np.floor(min(x0, x1, x2) - 0.5)), 0)
        cmax = min(int(np.ceil(max(x0, x1, x2) - 0.5)), resolution - 1)
        rmin = max(int(np.floor(min(y0, y1, y2) - 0.5)), 0)
        rmax = min(int(np.ceil(max(y0, y1, y2) - 0.5)), resolution - 1)
        if cmin > cmax or rmin > rmax:
            continue
        cols = np.arange(cmin, cmax + 1) + 0.5
        rows = np.arange(rmin, rmax + 1) + 0.5
        cgrid, rgrid = np.meshgrid(cols, rows)
        w0 = (x1 - cgrid) * (y2 - rgrid) - (x2 - cgrid) * (y1 - rgrid)
        w1 = (x2 - cgrid) * (y0 - rgrid) - (x0 - cgrid) * (y2 - rgrid)
        w2 = (x0 - cgrid) * (y1 - rgrid) - (x1 - cgrid) * (y0 - rgrid)
        if area > 0:
            inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        else:
            inside = (w0 <= 0) & (w1 <= 0) & (w2 <= 0)
        if not inside.any():
            continue
        z = (w0 * pz[a] + w1 * pz[b] + w2 * pz[c]) / area
        sub = (slice(rmin, rmax + 1), slice(cmin, cmax + 1))
        better = inside & (z > zbuf[sub])
        zbuf[sub][better] = z[better]
        tbuf[sub][better] = ti
    mask = tbuf >= 0
    normals = np.zeros((resolution, resolution, 3), dtype=np.float32)
    normals[mask] = face_normals(mesh)[tbuf[mask]].astype(np.float32)
    return normals, mask, tbuf


def oracle_content_rect(weight, mask, rect, iters=3):
    """One rect at a time, sums over strided slices of the weight."""
    hgt, wid = weight.shape
    w_all = weight * mask + 0.1 * mask
    x, y = rect.x, rect.y
    ys, xs = np.mgrid[0 : rect.h, 0 : rect.w]
    for _ in range(iters):
        sub = w_all[y : y + rect.h, x : x + rect.w]
        total = sub.sum()
        if total <= 0:
            break
        cy = float((ys * sub).sum() / total)
        cx = float((xs * sub).sum() / total)
        nx = int(round(x + cx - (rect.w - 1) / 2.0))
        ny = int(round(y + cy - (rect.h - 1) / 2.0))
        nx = min(max(nx, 0), wid - rect.w)
        ny = min(max(ny, 0), hgt - rect.h)
        if nx == x and ny == y:
            break
        x, y = nx, ny
    return PatchRect(x, y, rect.w, rect.h, empty=rect.empty)


def oracle_pool(block, pool):
    """Two reduceat calls over one block."""
    h, w = block.shape[:2]
    ye = (np.arange(pool + 1) * h) // pool
    xe = (np.arange(pool + 1) * w) // pool
    rows = np.add.reduceat(block.astype(np.float64), ye[:-1], axis=0)
    cells = np.add.reduceat(rows, xe[:-1], axis=1)
    counts = np.outer(np.diff(ye), np.diff(xe)).astype(np.float64)
    if block.ndim == 3:
        counts = counts[:, :, None]
    return (cells / counts).reshape(-1)


def oracle_features(raster, rect, pool):
    return oracle_pool(raster[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w], pool)


def oracle_coverage(mask, rect):
    return mask[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].mean()


# ---------------------------------------------------------------------------
# fixtures


def box(lo, hi):
    """Axis-aligned box from corner lo to corner hi, 12 triangles."""
    verts = np.array(
        [[(lo, hi)[i][0], (lo, hi)[j][1], (lo, hi)[k][2]]
         for i in (0, 1) for j in (0, 1) for k in (0, 1)],
        dtype=np.float64,
    )
    quads = [(1, 3, 2, 0), (6, 7, 5, 4), (4, 5, 1, 0),
             (3, 7, 6, 2), (2, 6, 4, 0), (5, 7, 3, 1)]
    tris = [t for a, b, c, d in quads for t in ((a, b, c), (a, c, d))]
    return verts, np.array(tris)


def random_box_mesh(rng, boxes):
    """Boxes on a 1/4 grid, so neighbours share faces and depths tie."""
    verts, tris = [], []
    for _ in range(boxes):
        lo = rng.integers(-4, 3, size=3) / 4.0
        hi = lo + rng.integers(1, 4, size=3) / 4.0
        v, t = box(lo, hi)
        tris.append(t + sum(len(x) for x in verts))
        verts.append(v)
    return TriMesh(np.vstack(verts), np.vstack(tris))


def assert_same_render(mesh, view, resolution):
    nmap = rasterize(mesh, view, resolution)
    normals, mask, tbuf = oracle_rasterize(mesh, view, resolution)
    np.testing.assert_array_equal(nmap.tri_ids, tbuf)
    np.testing.assert_array_equal(nmap.mask, mask)
    assert nmap.normals.tobytes() == normals.tobytes()
    return nmap


def snap_weight(nmap):
    """The shape-side snap weight: noiseless Lambert shading, zero off the mask."""
    lam = np.maximum(0.0, nmap.normals @ scene_light())
    lam[~nmap.mask] = 0.0
    return lam


def same_rects(a, b):
    return [(r.x, r.y, r.w, r.h, bool(r.empty)) for r in a] == [
        (r.x, r.y, r.w, r.h, bool(r.empty)) for r in b
    ]


# ---------------------------------------------------------------------------
# rasterize


class TestRasterizeMatchesMeshgridLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_box_meshes_and_views(self, seed):
        rng = np.random.default_rng(seed)
        mesh = random_box_mesh(rng, int(rng.integers(1, 7)))
        for view in random_rotations(4, seed + 100):
            assert_same_render(mesh, view, int(rng.choice([24, 48, 96])))

    def test_coplanar_duplicates_at_equal_depth_keep_lower_index(self):
        v, t = box(np.array([-0.5, -0.5, -0.5]), np.array([0.5, 0.5, 0.5]))
        # every triangle twice: the copy ties in depth on every pixel
        mesh = TriMesh(v, np.vstack([t, t]))
        nmap = assert_same_render(mesh, np.array([1.0, 0.0, 0.0, 0.0]), 48)
        assert nmap.mask.any()
        assert nmap.tri_ids[nmap.mask].max() < len(t)

    def test_zero_area_triangles_are_skipped(self):
        v, t = box(np.array([-0.5, -0.5, -0.5]), np.array([0.5, 0.5, 0.5]))
        # degenerate first: a repeated vertex and three collinear vertices
        extra = np.array([[-1.0, -1.0, 0.9], [1.0, 1.0, 0.9], [0.0, 0.0, 0.9]])
        verts = np.vstack([v, extra])
        degenerate = np.array([[0, 0, 1], [8, 9, 10]])
        mesh = TriMesh(verts, np.vstack([degenerate, t]))
        for view in random_rotations(3, 7):
            nmap = assert_same_render(mesh, view, 32)
            assert not np.isin(nmap.tri_ids, [0, 1]).any()

    @pytest.mark.parametrize("resolution", [8, 9])
    def test_boxes_clipped_at_the_raster_edge(self, resolution):
        # at 8-9 px the 5% margin is under half a pixel, so triangle
        # boxes reach past the raster on both sides and get clipped
        rng = np.random.default_rng(3)
        mesh = random_box_mesh(rng, 3)
        for view in random_rotations(5, 11):
            assert_same_render(mesh, view, resolution)


# ---------------------------------------------------------------------------
# sample_patches and content_rect


@pytest.fixture(scope="module")
def renders():
    rng = np.random.default_rng(21)
    out = []
    for seed in range(4):
        mesh = random_box_mesh(rng, int(rng.integers(2, 6)))
        for vi, view in enumerate(random_rotations(3, seed)):
            nmap = rasterize(mesh, view, 96)
            out.append((nmap, shade(nmap, scene_light(), 0.02, seed * 10 + vi)))
    return out


class TestSamplePatchesMatchesPerRectCoverage:
    @pytest.mark.parametrize("fraction", [1.0 / 3.0, 0.2, 1.0])
    def test_coverage_flags(self, renders, fraction):
        for i, (nmap, _) in enumerate(renders):
            rects = sample_patches(nmap, fraction, 64, seed=i, min_coverage=0.3)
            side = rects[0].w
            rng = np.random.default_rng(i)
            xs = rng.integers(0, 96 - side + 1, size=64)
            ys = rng.integers(0, 96 - side + 1, size=64)
            assert [(r.x, r.y) for r in rects] == list(zip(xs.tolist(), ys.tolist()))
            assert [r.empty for r in rects] == [
                bool(oracle_coverage(nmap.mask, r) < 0.3) for r in rects
            ]

    def test_coverage_exactly_at_the_threshold(self):
        # the left 8 columns covered: a 32 px rect at x = 0 covers 0.25
        mask = np.zeros((96, 96), dtype=bool)
        mask[:, :8] = True
        raster = NormalMap(normals=np.zeros((96, 96, 3), np.float32), mask=mask)
        rects = sample_patches(raster, 1.0 / 3.0, 400, seed=1, min_coverage=0.25)
        assert any(oracle_coverage(mask, r) == 0.25 for r in rects)
        assert [r.empty for r in rects] == [
            bool(oracle_coverage(mask, r) < 0.25) for r in rects
        ]


class TestContentRectMatchesPerRectSnap:
    def test_shape_and_image_weights(self, renders):
        for i, (nmap, shaded) in enumerate(renders):
            rects = sample_patches(nmap, 1.0 / 3.0, 128, seed=i)
            rects = [r for r in rects if not r.empty]
            for weight, mask in ((snap_weight(nmap), nmap.mask),
                                 (shaded.intensity, shaded.mask)):
                got = content_rect(weight, mask, rects)
                want = [oracle_content_rect(weight, mask, r) for r in rects]
                assert same_rects(got, want)

    def test_rects_at_the_border(self, renders):
        nmap, shaded = renders[0]
        side, last = 32, 96 - 32
        rects = [PatchRect(x, y, side, side) for x in (0, 1, last - 1, last)
                 for y in (0, 1, last - 1, last)]
        # a bright strip along each edge pulls the rects into the clamp
        weight = np.zeros((96, 96))
        weight[:, :2] = weight[:, -2:] = weight[:2, :] = weight[-2:, :] = 1.0
        mask = np.ones((96, 96), dtype=bool)
        for w, m in ((weight, mask), (shaded.intensity, shaded.mask)):
            got = content_rect(w, m, rects)
            assert same_rects(got, [oracle_content_rect(w, m, r) for r in rects])
            assert all(0 <= r.x <= last and 0 <= r.y <= last for r in got)

    def test_window_with_zero_weight_stays(self):
        mask = np.zeros((64, 64), dtype=bool)
        mask[40:, 40:] = True
        weight = np.ones((64, 64))
        rects = [PatchRect(0, 0, 16, 16), PatchRect(30, 30, 16, 16),
                 PatchRect(5, 20, 16, 16, empty=True)]
        got = content_rect(weight, mask, rects)
        assert same_rects(got, [oracle_content_rect(weight, mask, r) for r in rects])
        assert (got[0].x, got[0].y) == (0, 0)
        assert (got[1].x, got[1].y) != (30, 30)
        assert got[2].empty

    def test_rects_that_hit_the_iteration_cap(self):
        # a steep ramp keeps pulling every rect right until the border
        weight = np.tile(np.exp(np.arange(96) / 4.0), (96, 1))
        mask = np.ones((96, 96), dtype=bool)
        rects = [PatchRect(x, 10, 24, 24) for x in range(0, 40, 3)]
        for iters in (1, 2, 3, 4):
            got = content_rect(weight, mask, rects, iters=iters)
            want = [oracle_content_rect(weight, mask, r, iters) for r in rects]
            assert same_rects(got, want)
        three = content_rect(weight, mask, rects, iters=3)
        four = content_rect(weight, mask, rects, iters=4)
        assert any(a.x != b.x for a, b in zip(three, four))

    def test_half_pixel_ties_round_to_even(self):
        # all content in column 1 of a 4 px rect puts the snapped corner
        # at x - 0.5 exactly; ties round to the even neighbour
        for x in range(1, 12):
            weight = np.zeros((16, 16))
            weight[:, x + 1] = 1.0
            mask = weight > 0
            rect = PatchRect(x, 6, 4, 4)
            got = content_rect(weight, mask, [rect], iters=1)
            assert same_rects(got, [oracle_content_rect(weight, mask, rect, 1)])
            assert (got[0].x, got[0].y) == (round(x - 0.5), 6)

    def test_one_rect_and_no_rects(self, renders):
        nmap, shaded = renders[1]
        r = next(r for r in sample_patches(nmap, 1.0 / 3.0, 32, seed=5) if not r.empty)
        (got,) = content_rect(shaded.intensity, shaded.mask, [r])
        want = oracle_content_rect(shaded.intensity, shaded.mask, r)
        assert same_rects([got], [want])
        assert content_rect(shaded.intensity, shaded.mask, []) == []

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DescriptorError, match="one size"):
            content_rect(np.ones((8, 8)), np.ones((8, 8), bool),
                         [PatchRect(0, 0, 4, 4), PatchRect(0, 0, 3, 4)])


# ---------------------------------------------------------------------------
# pooling


# Window sizes that steer the pooling kernel through each branch of
# numpy's pairwise sum, as (h, w, pool): bins of width 2 (one added term,
# where signed zeros show), 8/9 and 16/17 (the edges of the
# eight-accumulator branch), 129/130 (its last width and the first
# halved one), 200 and 300 (halved), and mixed floor/ceil widths
# (17/18 by 4/5 and, at 300 x 7, 150 by 3/4).
BRANCH_CASES = [(32, 32, 16), (9, 8, 1), (17, 16, 1), (129, 130, 1),
                (200, 200, 1), (300, 7, 2), (70, 19, 4)]


class TestPoolingMatchesPerBlockReduceat:
    @pytest.mark.parametrize(
        "side, pool",
        [(32, 16), (32, 8), (33, 16), (31, 5), (17, 4), (96, 16), (96, 4), (50, 3),
         (16, 16),
         # bins of width 8, 9, 16 and 17 bound the eight-accumulator branch;
         # a 96 px bin fills its accumulators from eleven blocks of eight,
         # and 90 px at pool 7 mixes widths 12 and 13
         (32, 4), (36, 4), (64, 4), (68, 4), (96, 1), (90, 7)],
    )
    def test_stacked_rects(self, renders, side, pool):
        for i, (nmap, shaded) in enumerate(renders[:4]):
            rng = np.random.default_rng(i)
            rects = [PatchRect(int(x), int(y), side, side)
                     for x, y in rng.integers(0, 96 - side + 1, size=(40, 2))]
            for raster, features in ((nmap.normals, shape_patch_features),
                                     (shaded.intensity, image_patch_features)):
                got = features(raster, rects, pool)
                want = np.stack([oracle_features(raster, r, pool) for r in rects])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("h, w, pool", [(96, 96, 16), (29, 23, 4), (12, 40, 3),
                                            *BRANCH_CASES])
    def test_cancellation_prone_values(self, n, h, w, pool):
        # magnitudes 1e-8..1e16 with both signs and signed zeros make any
        # change in summation order show in the bits
        rng = np.random.default_rng(n * 1000 + h)
        for c in (None, 3):
            shape = (n + 2, h + 1, w + 2) + (() if c is None else (c,))
            sign = rng.choice([-1.0, 1.0], size=shape)
            raster = sign * 10.0 ** rng.integers(-8, 17, size=shape)
            raster[rng.random(shape) < 0.1] = -0.0
            features = image_patch_features if c is None else shape_patch_features
            for layer in raster:
                rects = [PatchRect(int(x), int(y), w, h)
                         for x, y in zip(rng.integers(0, 3, n), rng.integers(0, 2, n))]
                got = features(layer, rects, pool)
                want = np.stack([oracle_features(layer, r, pool) for r in rects])
                assert got.tobytes() == want.tobytes()

    def test_single_rect_gives_one_row(self, renders):
        nmap, shaded = renders[2]
        r = PatchRect(0, 0, 96, 96)
        # the pose features: one 96 px rect in bins of width 6
        got = image_patch_features(shaded.intensity, r, 16)
        assert got.shape == (256,)
        assert got.tobytes() == oracle_features(shaded.intensity, r, 16).tobytes()
        got = shape_patch_features(nmap.normals, r, 16)
        assert got.tobytes() == oracle_features(nmap.normals, r, 16).tobytes()
        block = nmap.normals[5:38, 9:40]
        got = shape_patch_features(block, PatchRect(0, 0, 31, 33), 5)
        assert got.tobytes() == oracle_pool(block, 5).tobytes()

    @pytest.mark.parametrize("h, w, pool", BRANCH_CASES)
    def test_float32_rasters(self, h, w, pool):
        # f32 terms are widened before any add; zeros of both signs, and
        # mostly negative ones, give bins whose sum must stay -0.0
        rng = np.random.default_rng(h * w + pool)
        for c in (None, 3):
            shape = (2, h + 1, w + 2) + (() if c is None else (c,))
            sign = rng.choice([-1.0, 1.0], size=shape)
            stack = (sign * 10.0 ** rng.integers(-8, 17, size=shape)).astype(np.float32)
            stack[rng.random(shape) < 0.4] = -0.0
            stack[rng.random(shape) < 0.05] = 0.0
            features = image_patch_features if c is None else shape_patch_features
            for layer in stack:
                rects = [PatchRect(0, 0, w, h), PatchRect(2, 1, w, h), PatchRect(1, 0, w, h)]
                got = features(layer, rects, pool)
                want = np.stack([oracle_features(layer, r, pool) for r in rects])
                assert got.tobytes() == want.tobytes()

    def test_windows_are_copies_in_raster_layout(self):
        raster = np.arange(5 * 6 * 3, dtype=np.float32).reshape(5, 6, 3)
        rects = [PatchRect(1, 2, 4, 3), PatchRect(0, 0, 4, 3)]
        win = rect_windows(raster, rects)
        assert win.shape == (2, 3, 4, 3) and win.flags.c_contiguous
        np.testing.assert_array_equal(win[0], raster[2:5, 1:5])
        np.testing.assert_array_equal(win[1], raster[0:3, 0:4])
        win[0] = -1
        assert raster.min() == 0


def test_index_view_pass_matches_per_rect_loops(renders):
    """The index's per-view pass, end to end: snap then pool each view."""
    for i, (nmap, _) in enumerate(renders):
        weight = snap_weight(nmap)
        rects = [r for r in sample_patches(nmap, 1.0 / 3.0, 128, seed=i) if not r.empty]
        snapped = content_rect(weight, nmap.mask, rects)
        want_rects = [oracle_content_rect(weight, nmap.mask, r) for r in rects]
        assert same_rects(snapped, want_rects)
        got = shape_patch_features(nmap.normals, snapped, 16)
        want = np.stack([oracle_features(nmap.normals, r, 16) for r in want_rects])
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# stacks: one raster per rect, as the corpus's anchor views pass them


class TestStackedRastersMatchPerRectCalls:
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_anchor_view_pass(self, renders, noise):
        """Snap and pool of one stack equal one call per rect on its layer."""
        for i, (nmap, _) in enumerate(renders):
            rects = [r for r in sample_patches(nmap, 1.0 / 3.0, 12, seed=i) if not r.empty]
            seeds = [1000 * i + j for j in range(len(rects))]
            stack = shade(nmap, scene_light(), noise, seeds).intensity
            snapped = content_rect(stack, nmap.mask, rects)
            per_rect = [content_rect(layer, nmap.mask, [r])[0]
                        for layer, r in zip(stack, rects)]
            want = [oracle_content_rect(layer, nmap.mask, r)
                    for layer, r in zip(stack, rects)]
            assert same_rects(snapped, per_rect) and same_rects(snapped, want)
            got = image_patch_features(stack, snapped, 16)
            one = np.stack([image_patch_features(layer, r, 16)
                            for layer, r in zip(stack, snapped)])
            assert got.tobytes() == one.tobytes()
            assert got.tobytes() == np.stack(
                [oracle_features(layer, r, 16) for layer, r in zip(stack, snapped)]
            ).tobytes()

    def test_layers_steer_their_own_rect(self):
        # the same rect on three layers: content at its left edge, at
        # its right edge, nowhere (the mask floor alone keeps it still)
        mask = np.ones((32, 32), dtype=bool)
        stack = np.zeros((3, 32, 32), dtype=np.float32)
        stack[0, :, 10:13] = 1.0
        stack[1, :, 19:22] = 1.0
        rects = [PatchRect(10, 8, 12, 12)] * 3
        got = content_rect(stack, mask, rects)
        assert same_rects(got, [oracle_content_rect(s, mask, r)
                                for s, r in zip(stack, rects)])
        assert got[0].x < 10 < got[1].x and got[2].x == 10

    @pytest.mark.parametrize("iters", [1, 2, 4])
    def test_iteration_cap_and_zero_weight(self, iters):
        rng = np.random.default_rng(iters)
        mask = np.zeros((48, 48), dtype=bool)
        mask[20:, 20:] = True
        stack = np.exp(rng.normal(size=(6, 48, 48)) * 3.0)
        stack[2] = 0.0
        rects = [PatchRect(int(x), int(y), 14, 14)
                 for x, y in rng.integers(0, 48 - 14 + 1, size=(6, 2))]
        rects[0] = PatchRect(0, 0, 14, 14)  # off the mask: zero weight
        got = content_rect(stack, mask, rects, iters=iters)
        want = [oracle_content_rect(s, mask, r, iters) for s, r in zip(stack, rects)]
        assert same_rects(got, want)

    def test_three_dim_intensity_is_a_stack(self):
        # an intensity has one channel, so 20 layers are 20 rasters, one
        # per rect, not one 20-channel raster
        stack = np.random.default_rng(5).random((20, 48, 48)).astype(np.float32)
        rects = [PatchRect(i, 2 * i, 8, 8) for i in range(20)]
        got = image_patch_features(stack, rects, 4)
        assert got.shape == (20, 16)
        assert got.tobytes() == np.stack(
            [oracle_features(layer, r, 4) for layer, r in zip(stack, rects)]
        ).tobytes()
        one = image_patch_features(stack[:1], rects[0], 4)
        assert one.tobytes() == got[0].tobytes()

    def test_stacked_windows_with_channels(self):
        stack = np.arange(2 * 5 * 6 * 3, dtype=np.float32).reshape(2, 5, 6, 3)
        rects = [PatchRect(1, 2, 4, 3), PatchRect(0, 0, 4, 3)]
        win = rect_windows(stack, rects, stacked=True)
        assert win.shape == (2, 3, 4, 3) and win.flags.c_contiguous
        np.testing.assert_array_equal(win[0], stack[0, 2:5, 1:5])
        np.testing.assert_array_equal(win[1], stack[1, 0:3, 0:4])

    def test_stack_must_hold_one_layer_per_rect(self):
        rects = [PatchRect(0, 0, 4, 4)] * 3
        stack = np.ones((2, 8, 8))
        with pytest.raises(DescriptorError, match="stack of 2 rasters for 3 rects"):
            content_rect(stack, np.ones((8, 8), bool), rects)
        with pytest.raises(DescriptorError, match="stack of 2 rasters for 3 rects"):
            image_patch_features(stack, rects, 2)
