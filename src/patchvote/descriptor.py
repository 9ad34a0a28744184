"""Patch geometry: sampling square patch rects and snapping them to content.

Both domains place patches the same way: rects are drawn uniformly over
a raster, flagged empty where the mask barely covers them, and anchored
to the centroid of the content they cover. Training pairs are labeled
elsewhere (see experiment.build_corpus) by the footprint IoU of these
rects, not by a descriptor of the normals inside them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DescriptorError
from .render import NormalMap, ShadedRender


@dataclass
class PatchRect:
    x: int
    y: int
    w: int
    h: int
    empty: bool = False
    shape_id: int = -1
    view_id: int = -1
    domain: str = ""


def patch_side(fraction: float, resolution: int) -> int:
    return int(round(fraction * resolution))


def sample_patches(
    raster: NormalMap | ShadedRender,
    fraction: float,
    count: int,
    seed: int,
    min_coverage: float = 0.10,
) -> list[PatchRect]:
    """Draw square patch rects uniformly over valid top-left positions.

    Rects whose mask coverage falls below min_coverage are flagged empty
    rather than dropped, so callers can account for exclusions.
    """
    h, w = raster.mask.shape
    side = patch_side(fraction, min(h, w))
    if side < 2:
        raise DescriptorError(f"patch side {side} too small (fraction {fraction})")
    if side > min(h, w):
        raise DescriptorError("patch larger than raster")
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, w - side + 1, size=count)
    ys = rng.integers(0, h - side + 1, size=count)
    rects = []
    for x, y in zip(xs, ys):
        cov = raster.mask[y : y + side, x : x + side].mean()
        rects.append(PatchRect(int(x), int(y), side, side, empty=cov < min_coverage))
    return rects


def content_rect(
    weight: np.ndarray,
    mask: np.ndarray,
    rect: PatchRect,
    iters: int = 3,
) -> PatchRect:
    """Snap a rect to the centroid of the content it covers.

    Pooled-cell features only match when the pooling grids of the two
    patches sit on the same piece of surface; a few pixels of offset is
    enough to decorrelate them. Anchoring every rect to its content
    centroid gives both domains the same canonical placement, so a
    query patch and the record showing the same region land on nearly
    identical grids without any search. The weight is the raster the
    caller matches with (intensity on the image side, noiseless
    shading on the shape side) plus a small mask floor so silhouette
    alone attracts the rect even where the surface faces away from the
    light. Iteration stops at a fixed point or the image border.
    """
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
    return PatchRect(
        x,
        y,
        rect.w,
        rect.h,
        empty=rect.empty,
        shape_id=rect.shape_id,
        view_id=rect.view_id,
        domain=rect.domain,
    )
