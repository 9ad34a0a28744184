import numpy as np
import pytest

from patchvote.descriptor import coverage, patch_side, sample_patches
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
