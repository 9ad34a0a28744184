import numpy as np
import pytest

from patchvote.descriptor import patch_side, sample_patches
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
        assert all(r.w == 32 and r.h == 32 for r in rects)

    def test_full_fraction_single_position(self):
        rects = sample_patches(self.raster(96), 1.0, 5, seed=1)
        assert all((r.x, r.y, r.w, r.h) == (0, 0, 96, 96) for r in rects)

    def test_unmasked_region_flagged_empty(self):
        raster = self.raster(96)
        raster.mask[:, :] = False
        rects = sample_patches(raster, 1.0 / 3.0, 10, seed=2)
        assert all(r.empty for r in rects)

    def test_rects_inside_raster(self):
        rects = sample_patches(self.raster(96), 1.0 / 3.0, 200, seed=3)
        for r in rects:
            assert 0 <= r.x <= 64 and 0 <= r.y <= 64

    def test_deterministic(self):
        a = sample_patches(self.raster(), 1.0 / 3.0, 50, seed=7)
        b = sample_patches(self.raster(), 1.0 / 3.0, 50, seed=7)
        assert [(r.x, r.y) for r in a] == [(r.x, r.y) for r in b]

    def test_tiny_patch_rejected(self):
        with pytest.raises(DescriptorError):
            sample_patches(self.raster(96), 0.01, 1, seed=0)

    def test_patch_side_rounding(self):
        assert patch_side(1.0 / 3.0, 96) == 32
        assert patch_side(1.0, 96) == 96
        assert patch_side(1.0 / 3.0, 100) == 33
