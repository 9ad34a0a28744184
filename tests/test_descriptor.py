import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from patchvote.descriptor import (
    _window_view,
    content_rect,
    coverage,
    patch_side,
    rect_windows,
    sample_patches,
)
from patchvote.errors import DescriptorError
from patchvote.render import NormalMap


def nmap_from_normals(grid: np.ndarray, mask: np.ndarray | None = None) -> NormalMap:
    grid = np.asarray(grid, dtype=np.float32)
    if mask is None:
        mask = np.ones(grid.shape[:2], dtype=bool)
    return NormalMap(normals=grid, mask=mask)


class TestSamplePatches:
    def raster(self, res=96):
        normals = np.zeros((res, res, 3), dtype=np.float32)
        normals[:, :, 2] = 1.0
        return nmap_from_normals(normals)

    def test_third_fraction_gives_32px_patches(self):
        rects = sample_patches(self.raster(96), 1.0 / 3.0, 20, seed=0)
        assert rects.shape == (20, 4) and rects.dtype == np.int64
        assert (rects[:, 2:] == 32).all()

    def test_full_fraction_single_position(self):
        rects = sample_patches(self.raster(96), 1.0, 5, seed=1)
        assert rects.tolist() == [[0, 0, 96, 96]] * 5

    def test_unmasked_region_flagged_empty(self):
        raster = self.raster(96)
        raster.mask[:, :] = False
        rects = sample_patches(raster, 1.0 / 3.0, 10, seed=2)
        assert len(rects) == 10
        assert (coverage(raster.mask, rects) == 0.0).all()

    def test_rects_inside_raster(self):
        rects = sample_patches(self.raster(96), 1.0 / 3.0, 200, seed=3)
        assert ((0 <= rects[:, :2]) & (rects[:, :2] <= 64)).all()

    def test_deterministic(self):
        a = sample_patches(self.raster(), 1.0 / 3.0, 50, seed=7)
        b = sample_patches(self.raster(), 1.0 / 3.0, 50, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_tiny_patch_rejected(self):
        with pytest.raises(DescriptorError):
            sample_patches(self.raster(96), 0.01, 1, seed=0)

    def test_patch_side_rounding(self):
        assert patch_side(1.0 / 3.0, 96) == 32
        assert patch_side(1.0, 96) == 96
        assert patch_side(1.0 / 3.0, 100) == 33


def sliding_windows(stack, src, xs, ys, h, w):
    """The windows gathered through numpy's sliding_window_view."""
    tail = stack.shape[3:]
    view = sliding_window_view(stack, (1, h, w) + tail)
    return view[src, ys, xs].reshape((len(xs), h, w) + tail)


def corner_rects(rng, hgt, wid, h, w, n=40):
    """n rects of one (h, w) size, the four extreme corners among them."""
    rects = np.empty((n, 4), dtype=np.int64)
    rects[:, 0] = rng.integers(0, wid - w + 1, size=n)
    rects[:, 1] = rng.integers(0, hgt - h + 1, size=n)
    rects[:4, 0] = [0, wid - w, 0, wid - w]
    rects[:4, 1] = [0, 0, hgt - h, hgt - h]
    rects[:, 2:] = w, h
    return rects


class TestWindowView:
    """rect_windows gathers through a strided view of every window; the
    gather equals sliding_window_view's bit for bit."""

    def assert_same_gather(self, raster, rects, stacked=False):
        h, w = int(rects[0, 3]), int(rects[0, 2])
        stack = raster if stacked else raster[None]
        src = np.arange(len(rects)) if stacked else np.zeros(len(rects), np.int64)
        want = sliding_windows(stack, src, rects[:, 0], rects[:, 1], h, w)
        got = rect_windows(raster, rects, stacked=stacked)
        assert got.dtype == raster.dtype and got.shape == want.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "channels, dtype",
        [((), np.float64), ((3,), np.float32), ((), bool)],
        ids=["2d", "rgb", "bool-mask"],
    )
    def test_one_raster(self, channels, dtype):
        rng = np.random.default_rng(0)
        raster = (rng.random((23, 31) + channels) * 4).astype(dtype)
        for h, w in [(5, 7), (1, 1), (23, 31)]:
            self.assert_same_gather(raster, corner_rects(rng, 23, 31, h, w))

    @pytest.mark.parametrize("channels", [(), (3,)], ids=["2d", "rgb"])
    def test_stacked_layers(self, channels):
        rng = np.random.default_rng(1)
        stack = rng.random((40, 19, 26) + channels)
        self.assert_same_gather(stack, corner_rects(rng, 19, 26, 6, 4), stacked=True)

    def test_non_contiguous_rasters(self):
        rng = np.random.default_rng(2)
        big = rng.random((60, 80, 3))
        for raster in (big[3:50:2, 1:70:3], big[5:40, 7:60, 0], big[:, :, 0].T,
                       big[10:30, ::-2]):
            assert not raster.flags["C_CONTIGUOUS"]
            hgt, wid = raster.shape[:2]
            self.assert_same_gather(raster, corner_rects(rng, hgt, wid, 5, 6))
        stack = rng.random((40, 30, 50))[:, 2:28, ::2]
        self.assert_same_gather(stack, corner_rects(rng, 26, 25, 4, 4), stacked=True)

    def test_snap_reads_a_slice_as_its_copy(self):
        rng = np.random.default_rng(3)
        weight = rng.random((70, 90))[5:65:2, ::3]
        mask = rng.random(weight.shape) > 0.3
        rects = corner_rects(rng, *weight.shape, 8, 8)
        got = content_rect(weight, mask, rects)
        assert got.tobytes() == content_rect(weight.copy(), mask, rects).tobytes()

    def test_view_is_read_only(self):
        stack = np.zeros((2, 9, 9))
        view = _window_view(stack, 3, 4)
        assert view.shape == (2, 7, 6, 3, 4)
        with pytest.raises(ValueError):
            view[0, 1, 2, 0, 0] = 1.0
        assert not stack.any()
