"""Patch geometry: sampling square patch rects and snapping them to content.

A block of rects is one (N, 4) int64 array of (x, y, w, h) rows, from
sampling to the index record (PatchIndex.rects). Both domains place
patches the same way: rects are drawn uniformly over a raster, measured
for mask `coverage`, and anchored to the centroid of the content they
cover. Training pairs are labeled elsewhere (see
experiment.build_corpus) by the footprint IoU of these rects, not by a
descriptor of the normals inside them.

Every step works on all of a view's rects at once: `rect_windows`
gathers the same-size windows of a raster into one (N, h, w[, C]) stack
with a single fancy index into a read-only view of every window, made
by one `as_strided` call that copies no pixel, and coverage, snapping
and pooling (see embed) are reductions over that stack. Pooling splits
each window into pool_size x pool_size equal bins, so a patch side that
pool_size does not divide is refused when the Config is built. A rect may
also read its own layer of a stack of rasters, one per rect (the noise
draws of one anchor view), through the same gather. Each window's sum is
the same sequence of float operations as the sum of the raster slice it
copies, so the batched results equal a per-rect loop bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DescriptorError
from .render import NormalMap, ShadedRender


def patch_side(fraction: float, resolution: int) -> int:
    return int(round(fraction * resolution))


def rect_windows(
    raster: np.ndarray, rects: np.ndarray, stacked: bool = False
) -> np.ndarray:
    """Copies of the windows of (N, 4) rects in a (H, W) or (H, W, C) raster.

    The rects must share one size (w, h); the result is (N, h, w) or
    (N, h, w, C) in the raster's dtype, C-contiguous unless the raster
    stores its axes out of order (a transpose, say). With `stacked`,
    the raster is an (N, H, W[, C]) stack holding one raster per rect,
    and window i is cut from raster i.
    """
    h, w = _size(rects)
    stack, src = _stack(raster, len(rects), stacked)
    return _window_view(stack, h, w)[src, rects[:, 1], rects[:, 0]]


def coverage(mask: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """The fraction of each rect's pixels on the (H, W) mask, (N,) f64."""
    return rect_windows(mask, rects).mean(axis=(1, 2))


def _size(rects: np.ndarray) -> tuple[int, int]:
    """The one (h, w) the rects of a block share."""
    if not len(rects):
        raise DescriptorError("no rects to gather")
    w, h = rects[0, 2:].tolist()
    if (rects[:, 2] != w).any() or (rects[:, 3] != h).any():
        raise DescriptorError("rects of one pass must share one size")
    return h, w


def _stack(raster: np.ndarray, n: int, stacked: bool):
    """A raster as a stack of layers, plus the layer each of n rects reads.

    One raster becomes a one-layer stack that every rect reads; a
    stacked raster must hold one layer per rect.
    """
    if not stacked:
        return raster[None], np.zeros(n, dtype=np.int64)
    if len(raster) != n:
        raise DescriptorError(f"stack of {len(raster)} rasters for {n} rects")
    return raster, np.arange(n)


def _window_view(stack: np.ndarray, h: int, w: int) -> np.ndarray:
    """Every (h, w) window of an (L, H, W[, C]) stack, as a read-only view.

    View[l, y, x] is the window of layer l with top-left corner (x, y):
    shape (L, H - h + 1, W - w + 1, h, w[, C]), no pixel copied. The
    window axes reuse the row and column strides, so the view reads any
    strided stack, a slice included.
    """
    L, H, W = stack.shape[:3]
    s_l, s_h, s_w = stack.strides[:3]
    return as_strided(
        stack,
        shape=(L, H - h + 1, W - w + 1, h, w) + stack.shape[3:],
        strides=(s_l, s_h, s_w, s_h, s_w) + stack.strides[3:],
        writeable=False,
    )


def sample_patches(
    raster: NormalMap | ShadedRender, fraction: float, count: int, seed: int
) -> np.ndarray:
    """Draw `count` square rects uniformly over valid top-left positions.

    Returns every rect drawn, (count, 4) int64 rows of (x, y, w, h), in
    draw order; callers choose which to keep (see `coverage`).
    """
    h, w = raster.mask.shape
    side = patch_side(fraction, min(h, w))
    if side < 2:
        raise DescriptorError(f"patch side {side} too small (fraction {fraction})")
    if side > min(h, w):
        raise DescriptorError("patch larger than raster")
    rng = np.random.default_rng(seed)
    rects = np.full((count, 4), side, dtype=np.int64)
    rects[:, 0] = rng.integers(0, w - side + 1, size=count)
    rects[:, 1] = rng.integers(0, h - side + 1, size=count)
    return rects


def content_rect(
    weight: np.ndarray, mask: np.ndarray, rects: np.ndarray, iters: int = 3
) -> np.ndarray:
    """Snap each rect to the centroid of the content it covers.

    Pooled-cell features only match when the pooling grids of the two
    patches sit on the same piece of surface; a few pixels of offset is
    enough to decorrelate them. Anchoring every rect to its content
    centroid gives both domains the same canonical placement, so a
    query patch and the record showing the same region land on nearly
    identical grids without any search. The weight is the raster the
    caller matches with (intensity on the image side, noiseless
    shading on the shape side) plus a small mask floor so silhouette
    alone attracts the rect even where the surface faces away from the
    light. A rect stops at a fixed point, on a window of zero weight or
    after `iters` moves, and the image border clamps every move.

    The weight is one (H, W) raster, or an (N, H, W) stack holding one
    raster per rect (the noise draws of one view, say) over the one
    mask. The (N, 4) rects must share one size; each iteration gathers
    the windows of the rects still moving and reduces them together.
    Returns the snapped rects as a new (N, 4) int64 array in input
    order; no rects give an empty one.
    """
    out = np.array(rects, dtype=np.int64)
    if not len(out):
        return out
    h, w = _size(out)
    xs, ys = out[:, 0], out[:, 1]
    hgt, wid = mask.shape
    stacked = weight.ndim > mask.ndim
    w_all, src = _stack(weight * mask + 0.1 * mask, len(out), stacked)
    view = _window_view(w_all, h, w)
    gy, gx = np.arange(h)[:, None], np.arange(w)
    moving = np.arange(len(out))
    for _ in range(iters):
        sub = view[src[moving], ys[moving], xs[moving]]
        total = sub.sum(axis=(1, 2))
        live = total > 0
        if not live.all():
            moving, sub, total = moving[live], sub[live], total[live]
        cy = (gy * sub).sum(axis=(1, 2)) / total
        cx = (gx * sub).sum(axis=(1, 2)) / total
        nx = np.rint(xs[moving] + cx - (w - 1) / 2.0).astype(np.int64)
        ny = np.rint(ys[moving] + cy - (h - 1) / 2.0).astype(np.int64)
        nx = np.minimum(np.maximum(nx, 0), wid - w)
        ny = np.minimum(np.maximum(ny, 0), hgt - h)
        moved = (nx != xs[moving]) | (ny != ys[moving])
        moving = moving[moved]
        if not len(moving):
            break
        xs[moving] = nx[moved]
        ys[moving] = ny[moved]
    return out
