"""The per-view batched passes against the per-rect and meshgrid loops they replaced.

Each oracle below is the earlier implementation, kept verbatim apart
from names and from reading a rect as one (x, y, w, h) row of an int64
array: a rasterizer that evaluates edge functions on a meshgrid of each
triangle's box, a snap of one rect at a time, a per-block pooler, a
per-rect coverage loop and the index's dedup by a set of the corners
seen so far. The batched code must reproduce them bit for bit, on
seeded random box meshes and views and on the edge cases that steer
their control flow. The per-block pooler is numpy's reduceat, which
adds the terms of a bin in sequence only up to REDUCEAT_WIDTH; wider
bins are checked against a per-bin loop of the kernel's own order.
"""

import numpy as np
import pytest

from patchvote.config import Config
from patchvote.descriptor import content_rect, coverage, rect_windows, sample_patches
from patchvote.embed import image_patch_features, shape_patch_features
from patchvote.index import derive_seed, enumerate_view_patches
from patchvote.errors import DescriptorError
from patchvote.mesh import TriMesh, face_normals
from patchvote.render import MARGIN, SCENE_LIGHT, NormalMap, rasterize, shade
from patchvote.views import ViewSet, quat_to_matrix, random_rotations

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
    x, y, w, h = rect.tolist()
    ys, xs = np.mgrid[0:h, 0:w]
    for _ in range(iters):
        sub = w_all[y : y + h, x : x + w]
        total = sub.sum()
        if total <= 0:
            break
        cy = float((ys * sub).sum() / total)
        cx = float((xs * sub).sum() / total)
        nx = int(round(x + cx - (w - 1) / 2.0))
        ny = int(round(y + cy - (h - 1) / 2.0))
        nx = min(max(nx, 0), wid - w)
        ny = min(max(ny, 0), hgt - h)
        if nx == x and ny == y:
            break
        x, y = nx, ny
    return np.array([x, y, w, h])


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


def first_plus_rest(terms):
    """terms[0] + (terms[1] + terms[2] + ...), each term widened to f64 first."""
    first, *rest = (t.astype(np.float64) for t in terms)
    if not rest:
        return first
    total = rest[0]
    for t in rest[1:]:
        total = total + t
    return first + total


def oracle_sequential_pool(block, pool):
    """The pooling kernel's own order, one bin at a time: rows, then columns."""
    bh, bw = block.shape[0] // pool, block.shape[1] // pool
    rows = np.stack([first_plus_rest(block[i * bh : (i + 1) * bh]) for i in range(pool)])
    cols = np.moveaxis(rows, 1, 0)
    cells = np.stack([first_plus_rest(cols[j * bw : (j + 1) * bw]) for j in range(pool)])
    return (np.moveaxis(cells, 0, 1) / (bh * bw)).reshape(-1)


# The widest bin whose terms np.add.reduceat adds in sequence: its first
# term, then at most 7 more one by one. numpy sums a longer rest pairwise.
REDUCEAT_WIDTH = 8


def oracle_features(raster, rect, pool):
    """reduceat for bins of up to 8 terms per axis, where the kernel's order
    is numpy's; the kernel's sequential order for wider bins."""
    x, y, w, h = rect.tolist()
    block = raster[y : y + h, x : x + w]
    if max(h, w) // pool <= REDUCEAT_WIDTH:
        return oracle_pool(block, pool)
    return oracle_sequential_pool(block, pool)


def oracle_coverage(mask, rect):
    x, y, w, h = rect.tolist()
    return mask[y : y + h, x : x + w].mean()


def oracle_dedup(rects):
    """The first rect at each corner, by a set of the corners seen so far."""
    kept, seen = [], set()
    for r in rects:
        if (r[0], r[1]) not in seen:
            seen.add((r[0], r[1]))
            kept.append(r)
    return kept


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
    lam = np.maximum(0.0, nmap.normals @ SCENE_LIGHT)
    lam[~nmap.mask] = 0.0
    return lam


def same_rects(got, want):
    """An (N, 4) int64 block equal to a list of oracle rows."""
    want = np.array(want, dtype=np.int64).reshape(-1, 4)
    return got.dtype == np.int64 and np.array_equal(got, want)


def rects_at(corners, w, h):
    """(N, 4) rects of one size at (N, 2) corners."""
    corners = np.asarray(corners, dtype=np.int64).reshape(-1, 2)
    return np.column_stack([corners, np.full((len(corners), 2), (w, h))])


def covered(mask, rects, floor=Config().min_coverage):
    return rects[coverage(mask, rects) >= floor]


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
            out.append((nmap, shade(nmap, 0.02, seed * 10 + vi)))
    return out


class TestSamplePatchesMatchesPerRectCoverage:
    @pytest.mark.parametrize("fraction", [1.0 / 3.0, 0.2, 1.0])
    def test_coverage_flags(self, renders, fraction):
        for i, (nmap, _) in enumerate(renders):
            rects = sample_patches(nmap, fraction, 64, seed=i)
            side = int(rects[0, 2])
            rng = np.random.default_rng(i)
            xs = rng.integers(0, 96 - side + 1, size=64)
            ys = rng.integers(0, 96 - side + 1, size=64)
            assert same_rects(rects, rects_at(np.column_stack([xs, ys]), side, side))
            cov = coverage(nmap.mask, rects)
            want = [oracle_coverage(nmap.mask, r) for r in rects]
            assert cov.tobytes() == np.array(want).tobytes()
            assert ((cov < 0.3) == (np.array(want) < 0.3)).all()

    def test_coverage_exactly_at_the_threshold(self):
        # the left 8 columns covered: a 32 px rect at x = 0 covers 0.25
        mask = np.zeros((96, 96), dtype=bool)
        mask[:, :8] = True
        raster = NormalMap(normals=np.zeros((96, 96, 3), np.float32), mask=mask)
        rects = sample_patches(raster, 1.0 / 3.0, 400, seed=1)
        assert any(oracle_coverage(mask, r) == 0.25 for r in rects)
        assert list(coverage(mask, rects) < 0.25) == [
            bool(oracle_coverage(mask, r) < 0.25) for r in rects
        ]


class TestContentRectMatchesPerRectSnap:
    def test_shape_and_image_weights(self, renders):
        for i, (nmap, shaded) in enumerate(renders):
            rects = covered(nmap.mask, sample_patches(nmap, 1.0 / 3.0, 128, seed=i))
            for weight, mask in ((snap_weight(nmap), nmap.mask),
                                 (shaded.intensity, shaded.mask)):
                got = content_rect(weight, mask, rects)
                want = [oracle_content_rect(weight, mask, r) for r in rects]
                assert same_rects(got, want)

    def test_rects_at_the_border(self, renders):
        nmap, shaded = renders[0]
        side, last = 32, 96 - 32
        rects = rects_at([(x, y) for x in (0, 1, last - 1, last)
                          for y in (0, 1, last - 1, last)], side, side)
        # a bright strip along each edge pulls the rects into the clamp
        weight = np.zeros((96, 96))
        weight[:, :2] = weight[:, -2:] = weight[:2, :] = weight[-2:, :] = 1.0
        mask = np.ones((96, 96), dtype=bool)
        for w, m in ((weight, mask), (shaded.intensity, shaded.mask)):
            got = content_rect(w, m, rects)
            assert same_rects(got, [oracle_content_rect(w, m, r) for r in rects])
            assert ((0 <= got[:, :2]) & (got[:, :2] <= last)).all()

    def test_window_with_zero_weight_stays(self):
        mask = np.zeros((64, 64), dtype=bool)
        mask[40:, 40:] = True
        weight = np.ones((64, 64))
        rects = rects_at([(0, 0), (30, 30), (5, 20)], 16, 16)
        got = content_rect(weight, mask, rects)
        assert same_rects(got, [oracle_content_rect(weight, mask, r) for r in rects])
        assert tuple(got[0, :2]) == (0, 0)
        assert tuple(got[1, :2]) != (30, 30)
        # the snap writes a new block and leaves its input as it was
        assert same_rects(rects, rects_at([(0, 0), (30, 30), (5, 20)], 16, 16))

    def test_rects_that_hit_the_iteration_cap(self):
        # a steep ramp keeps pulling every rect right until the border
        weight = np.tile(np.exp(np.arange(96) / 4.0), (96, 1))
        mask = np.ones((96, 96), dtype=bool)
        rects = rects_at([(x, 10) for x in range(0, 40, 3)], 24, 24)
        for iters in (1, 2, 3, 4):
            got = content_rect(weight, mask, rects, iters=iters)
            want = [oracle_content_rect(weight, mask, r, iters) for r in rects]
            assert same_rects(got, want)
        three = content_rect(weight, mask, rects, iters=3)
        four = content_rect(weight, mask, rects, iters=4)
        assert (three[:, 0] != four[:, 0]).any()

    def test_half_pixel_ties_round_to_even(self):
        # all content in column 1 of a 4 px rect puts the snapped corner
        # at x - 0.5 exactly; ties round to the even neighbour
        for x in range(1, 12):
            weight = np.zeros((16, 16))
            weight[:, x + 1] = 1.0
            mask = weight > 0
            rect = rects_at([(x, 6)], 4, 4)
            got = content_rect(weight, mask, rect, iters=1)
            assert same_rects(got, [oracle_content_rect(weight, mask, rect[0], 1)])
            assert tuple(got[0, :2]) == (round(x - 0.5), 6)

    def test_one_rect_and_no_rects(self, renders):
        nmap, shaded = renders[1]
        r = covered(nmap.mask, sample_patches(nmap, 1.0 / 3.0, 32, seed=5))[:1]
        got = content_rect(shaded.intensity, shaded.mask, r)
        want = oracle_content_rect(shaded.intensity, shaded.mask, r[0])
        assert same_rects(got, [want])
        none = content_rect(shaded.intensity, shaded.mask, np.empty((0, 4), np.int64))
        assert none.shape == (0, 4) and none.dtype == np.int64

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DescriptorError, match="one size"):
            content_rect(np.ones((8, 8)), np.ones((8, 8), bool),
                         np.array([[0, 0, 4, 4], [0, 0, 3, 4]]))


# ---------------------------------------------------------------------------
# pooling


# Window sizes as (h, w, pool): bins of width 2 (one added term, where
# signed zeros show), 9 by 8 (the narrowest bin reduceat does not sum in
# sequence beside the widest it does), and 16/17, 129/130 and 200, where
# numpy's pairwise order and the kernel's sequential one part.
POOL_CASES = [(32, 32, 16), (9, 8, 1), (17, 16, 1), (129, 130, 1), (200, 200, 1)]


class TestPoolingMatchesPerBlockReduceat:
    @pytest.mark.parametrize(
        "side, pool",
        [(32, 16), (32, 8), (96, 16), (16, 16), (32, 4),
         # bins of width 9, 16, 17, 24 and 96 take the sequential oracle;
         # rendered values summed alike in both orders when tried, so these
         # check the bin layout and the cancellation cases check the order
         (36, 4), (64, 4), (68, 4), (96, 4), (96, 1)],
    )
    def test_stacked_rects(self, renders, side, pool):
        for i, (nmap, shaded) in enumerate(renders[:4]):
            rng = np.random.default_rng(i)
            rects = rects_at(rng.integers(0, 96 - side + 1, size=(40, 2)), side, side)
            for raster, features in ((nmap.normals, shape_patch_features),
                                     (shaded.intensity, image_patch_features)):
                got = features(raster, rects, pool)
                want = np.stack([oracle_features(raster, r, pool) for r in rects])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("h, w, pool", [(96, 96, 16), *POOL_CASES])
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
                corners = zip(rng.integers(0, 3, n), rng.integers(0, 2, n))
                rects = rects_at(list(corners), w, h)
                got = features(layer, rects, pool)
                want = np.stack([oracle_features(layer, r, pool) for r in rects])
                assert got.tobytes() == want.tobytes()

    def test_single_rect_gives_one_row(self, renders):
        nmap, shaded = renders[2]
        r = rects_at([(0, 0)], 96, 96)
        # the pose features: one 96 px rect in bins of width 6
        got = image_patch_features(shaded.intensity, r, 16)
        assert got.shape == (1, 256)
        assert got[0].tobytes() == oracle_features(shaded.intensity, r[0], 16).tobytes()
        got = shape_patch_features(nmap.normals, r, 16)
        assert got[0].tobytes() == oracle_features(nmap.normals, r[0], 16).tobytes()

    @pytest.mark.parametrize("h, w, pool", POOL_CASES)
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
                rects = rects_at([(0, 0), (2, 1), (1, 0)], w, h)
                got = features(layer, rects, pool)
                want = np.stack([oracle_features(layer, r, pool) for r in rects])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", range(1, REDUCEAT_WIDTH + 1))
    def test_reduceat_order_up_to_eight_terms(self, width):
        # every bin width the contract ties to reduceat, on each axis,
        # square and beside the other widths up to eight
        rng = np.random.default_rng(width)
        for bh, bw in ((width, width), (width, REDUCEAT_WIDTH + 1 - width)):
            for c in (None, 3):
                shape = (3 * bh, 2 * bw) + (() if c is None else (c,))
                sign = rng.choice([-1.0, 1.0], size=shape)
                block = sign * 10.0 ** rng.integers(-8, 17, size=shape)
                block[rng.random(shape) < 0.1] = -0.0
                features = image_patch_features if c is None else shape_patch_features
                for pool in (1, 2):
                    side = rects_at([(0, 0)], bw * pool, bh * pool)
                    got = features(block, side, pool)
                    want = oracle_pool(block[: bh * pool, : bw * pool], pool)
                    assert got[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", range(REDUCEAT_WIDTH + 1, 2 * REDUCEAT_WIDTH + 1))
    def test_sequential_order_from_nine_terms(self, width):
        # the first widths where numpy's sum turns pairwise: the kernel
        # keeps its own order, first term plus the rest in sequence
        rng = np.random.default_rng(width)
        for bh, bw in ((width, width), (width, 3), (2, width)):
            for c in (None, 3):
                shape = (2 * bh, 2 * bw) + (() if c is None else (c,))
                sign = rng.choice([-1.0, 1.0], size=shape)
                block = sign * 10.0 ** rng.integers(-8, 17, size=shape)
                block[rng.random(shape) < 0.1] = -0.0
                features = image_patch_features if c is None else shape_patch_features
                got = features(block, rects_at([(0, 0)], 2 * bw, 2 * bh), 2)
                want = oracle_sequential_pool(block, 2)
                assert got[0].tobytes() == want.tobytes()

    # Windows whose bins would be uneven, as (h, w, pool): the geometries
    # that were once pooled into floor/ceil bins, one side uneven or both,
    # and sides below the pool.
    @pytest.mark.parametrize(
        "h, w, pool",
        [(33, 33, 16), (31, 31, 5), (17, 17, 4), (50, 50, 3), (90, 90, 7),
         (29, 23, 4), (12, 40, 3), (300, 7, 2), (70, 19, 4), (33, 31, 5),
         (33, 32, 16), (12, 12, 16)],
    )
    def test_uneven_windows_rejected(self, h, w, pool):
        rects = rects_at([(0, 0), (1, 2)], w, h)
        message = f"patch {h}x{w} does not split into {pool} x {pool} equal bins"
        for c, features in ((None, image_patch_features), (3, shape_patch_features)):
            raster = np.ones((h + 2, w + 1) + (() if c is None else (c,)))
            with pytest.raises(ValueError, match=message):
                features(raster, rects, pool)

    def test_windows_are_copies_in_raster_layout(self):
        raster = np.arange(5 * 6 * 3, dtype=np.float32).reshape(5, 6, 3)
        rects = rects_at([(1, 2), (0, 0)], 4, 3)
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
        rects = covered(nmap.mask, sample_patches(nmap, 1.0 / 3.0, 128, seed=i))
        snapped = content_rect(weight, nmap.mask, rects)
        want_rects = [oracle_content_rect(weight, nmap.mask, r) for r in rects]
        assert same_rects(snapped, want_rects)
        got = shape_patch_features(nmap.normals, snapped, 16)
        want = np.stack([oracle_features(nmap.normals, r, 16) for r in want_rects])
        assert got.tobytes() == want.tobytes()


def test_enumerate_view_patches_matches_per_rect_loops():
    """The index's records against coverage, snap and dedup one rect at a time.

    Many of a view's 128 snapped rects collapse onto a corner another
    rect reached first; the records keep the first of each, in sample
    order, which is not the order of their corners.
    """
    cfg = Config()
    mesh = random_box_mesh(np.random.default_rng(5), 4)
    views = ViewSet(medoids=random_rotations(2, 9), source_size=2)
    blocks = list(enumerate_view_patches({3: mesh}, views, 128, cfg))
    assert [(sid, vid) for sid, vid, _, _ in blocks] == [(3, 0), (3, 1)]
    for _, vid, feats, rects in blocks:
        nmap = rasterize(mesh, views.medoids[vid], cfg.render_resolution)
        drawn = sample_patches(
            nmap, cfg.patch_fraction, 128, derive_seed(cfg.seed, 3, vid)
        )
        live = [r for r in drawn if oracle_coverage(nmap.mask, r) >= cfg.min_coverage]
        snapped = [oracle_content_rect(snap_weight(nmap), nmap.mask, r) for r in live]
        want = oracle_dedup(snapped)
        assert len(want) < len(snapped)
        assert same_rects(rects, want)
        assert not same_rects(rects, sorted(want, key=lambda r: (r[0], r[1])))
        assert feats.tobytes() == np.stack(
            [oracle_features(nmap.normals, r, cfg.pool_size) for r in want]
        ).tobytes()


# ---------------------------------------------------------------------------
# stacks: one raster per rect, as the corpus's anchor views pass them


class TestStackedRastersMatchPerRectCalls:
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_anchor_view_pass(self, renders, noise):
        """Snap and pool of one stack equal one call per rect on its layer."""
        for i, (nmap, _) in enumerate(renders):
            rects = covered(nmap.mask, sample_patches(nmap, 1.0 / 3.0, 12, seed=i))
            seeds = [1000 * i + j for j in range(len(rects))]
            stack = shade(nmap, noise, seeds).intensity
            snapped = content_rect(stack, nmap.mask, rects)
            per_rect = [content_rect(layer, nmap.mask, r[None])[0]
                        for layer, r in zip(stack, rects)]
            want = [oracle_content_rect(layer, nmap.mask, r)
                    for layer, r in zip(stack, rects)]
            assert same_rects(snapped, per_rect) and same_rects(snapped, want)
            got = image_patch_features(stack, snapped, 16)
            one = np.stack([image_patch_features(layer, r[None], 16)[0]
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
        rects = rects_at([(10, 8)] * 3, 12, 12)
        got = content_rect(stack, mask, rects)
        assert same_rects(got, [oracle_content_rect(s, mask, r)
                                for s, r in zip(stack, rects)])
        assert got[0, 0] < 10 < got[1, 0] and got[2, 0] == 10

    @pytest.mark.parametrize("iters", [1, 2, 4])
    def test_iteration_cap_and_zero_weight(self, iters):
        rng = np.random.default_rng(iters)
        mask = np.zeros((48, 48), dtype=bool)
        mask[20:, 20:] = True
        stack = np.exp(rng.normal(size=(6, 48, 48)) * 3.0)
        stack[2] = 0.0
        rects = rects_at(rng.integers(0, 48 - 14 + 1, size=(6, 2)), 14, 14)
        rects[0] = (0, 0, 14, 14)  # off the mask: zero weight
        got = content_rect(stack, mask, rects, iters=iters)
        want = [oracle_content_rect(s, mask, r, iters) for s, r in zip(stack, rects)]
        assert same_rects(got, want)

    def test_three_dim_intensity_is_a_stack(self):
        # an intensity has one channel, so 20 layers are 20 rasters, one
        # per rect, not one 20-channel raster
        stack = np.random.default_rng(5).random((20, 48, 48)).astype(np.float32)
        rects = rects_at([(i, 2 * i) for i in range(20)], 8, 8)
        got = image_patch_features(stack, rects, 4)
        assert got.shape == (20, 16)
        assert got.tobytes() == np.stack(
            [oracle_features(layer, r, 4) for layer, r in zip(stack, rects)]
        ).tobytes()
        one = image_patch_features(stack[:1], rects[:1], 4)
        assert one.tobytes() == got[:1].tobytes()

    def test_stacked_windows_with_channels(self):
        stack = np.arange(2 * 5 * 6 * 3, dtype=np.float32).reshape(2, 5, 6, 3)
        rects = rects_at([(1, 2), (0, 0)], 4, 3)
        win = rect_windows(stack, rects, stacked=True)
        assert win.shape == (2, 3, 4, 3) and win.flags.c_contiguous
        np.testing.assert_array_equal(win[0], stack[0, 2:5, 1:5])
        np.testing.assert_array_equal(win[1], stack[1, 0:3, 0:4])

    def test_stack_must_hold_one_layer_per_rect(self):
        rects = rects_at([(0, 0)] * 3, 4, 4)
        stack = np.ones((2, 8, 8))
        with pytest.raises(DescriptorError, match="stack of 2 rasters for 3 rects"):
            content_rect(stack, np.ones((8, 8), bool), rects)
        with pytest.raises(DescriptorError, match="stack of 2 rasters for 3 rects"):
            image_patch_features(stack, rects, 2)
