"""Software rasterizer: canonical-space normal maps and shaded renders.

Lighting: one directional light, SCENE_LIGHT. `lambert` is the one
evaluation of its Lambert term, so the image domain (`shade`) and the
shape domain (index.enumerate_view_patches) see one rendering model.

Camera convention: orthographic camera on the +z axis looking toward -z.
The view quaternion rotates the mesh itself; larger rotated z means
closer to the camera, so the z-buffer keeps the maximum. Normals stored
per pixel are the face normals of the UNROTATED mesh, which makes the
map a lookup of canonical geometry no matter the view: `normal_map`
rebuilds the normals and the mask from the winning-triangle ids alone.

Rasterization loops over triangles, each against its clipped bounding
box. Edge functions are separable in x and y (Pineda, SIGGRAPH 1988):
each is built from 1D differences vertex - column center and vertex -
row center, broadcast over the box, which gives every pixel the same
float operations as evaluating it on a full 2D grid. The per-triangle
areas and boxes are computed for all triangles in one pass first.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import RenderError
from .mesh import TriMesh
from .views import off_unit, quat_to_matrix

MARGIN = 0.05

# The scene light, a unit vector fixed in the canonical frame. Because
# the light never moves with the camera, a surface point keeps its
# intensity from view to view, the way albedo does in a photograph. The
# three components are deliberately distinct so each axis-aligned face
# orientation lands on its own gray level.
SCENE_LIGHT = np.array([0.5, 0.8, 0.33]) / np.linalg.norm([0.5, 0.8, 0.33])
SCENE_LIGHT.flags.writeable = False


@dataclass
class NormalMap:
    normals: np.ndarray  # (h, w, 3) float32, canonical-frame unit vectors
    mask: np.ndarray     # (h, w) bool
    # (h, w) id of the triangle that won each pixel, -1 off the mask, in
    # the smallest signed dtype that holds the mesh's ids; the normals and
    # the mask follow from it (normal_map), so a render held for reuse
    # keeps this map alone (index.render_views)
    tri_ids: np.ndarray | None = None


@dataclass
class ShadedRender:
    intensity: np.ndarray  # (h, w) float32 in [0, 1], or (n, h, w) for n noise draws
    mask: np.ndarray       # (h, w) bool, shared by every draw


def rasterize(mesh: TriMesh, view: np.ndarray, resolution: int) -> NormalMap:
    """Render the mesh under the view rotation to a normal map.

    Orthographic projection fitted with a 5% margin on the long axis,
    visibility by z-buffer sampled at pixel centers, depth ties broken
    toward the lower triangle index. Back faces render like front faces.
    """
    if resolution < 8:
        raise RenderError(f"resolution must be >= 8, got {resolution}")
    view = np.asarray(view, dtype=np.float64)
    if off_unit(view):
        raise RenderError("view quaternion is not unit length")

    rotated = mesh.vertices @ quat_to_matrix(view).T

    xy = rotated[:, :2]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0:
        raise RenderError("empty projection: mesh has no planar extent in view")
    scale = (1.0 - 2.0 * MARGIN) * resolution / extent
    center = (lo + hi) / 2.0

    # pixel-center coordinates: px = col + 0.5, py = row + 0.5 (top-left origin)
    px = (xy[:, 0] - center[0]) * scale + resolution / 2.0
    py = resolution / 2.0 - (xy[:, 1] - center[1]) * scale
    pz = rotated[:, 2]

    zbuf = np.full((resolution, resolution), -np.inf)
    tbuf = np.full(
        (resolution, resolution), -1, dtype=np.min_scalar_type(-len(mesh.triangles))
    )

    # per-triangle scalars in one pass; edge-on faces (zero area) cover
    # no pixel centers, and neither does a bbox entirely off the raster
    tx, ty, tz = px[mesh.triangles], py[mesh.triangles], pz[mesh.triangles]
    ex, ey = tx - tx[:, :1], ty - ty[:, :1]  # edges from vertex 0
    area = ex[:, 1] * ey[:, 2] - ex[:, 2] * ey[:, 1]
    cmin = np.maximum(np.floor(tx.min(axis=1) - 0.5).astype(np.int64), 0)
    cmax = np.minimum(np.ceil(tx.max(axis=1) - 0.5).astype(np.int64), resolution - 1)
    rmin = np.maximum(np.floor(ty.min(axis=1) - 0.5).astype(np.int64), 0)
    rmax = np.minimum(np.ceil(ty.max(axis=1) - 0.5).astype(np.int64), resolution - 1)
    drawn = np.flatnonzero((area != 0.0) & (cmin <= cmax) & (rmin <= rmax))
    cols = np.arange(resolution) + 0.5
    rows = cols[:, None]

    for ti, (x0, x1, x2), (y0, y1, y2), (z0, z1, z2), ar, c0, c1, r0, r1 in zip(
        drawn.tolist(),
        tx[drawn].tolist(),
        ty[drawn].tolist(),
        tz[drawn].tolist(),
        area[drawn].tolist(),
        cmin[drawn].tolist(),
        cmax[drawn].tolist(),
        rmin[drawn].tolist(),
        rmax[drawn].tolist(),
    ):
        bc, br = cols[c0 : c1 + 1], rows[r0 : r1 + 1]
        dx0, dx1, dx2 = x0 - bc, x1 - bc, x2 - bc
        dy0, dy1, dy2 = y0 - br, y1 - br, y2 - br
        w0 = dx1 * dy2
        w0 -= dx2 * dy1
        w1 = dx2 * dy0
        w1 -= dx0 * dy2
        w2 = dx0 * dy1
        w2 -= dx1 * dy0
        # inside: all three on the side of the area's sign, zeros included
        if ar > 0:
            bound = np.minimum(w0, w1)
            inside = np.minimum(bound, w2, out=bound) >= 0
        else:
            bound = np.maximum(w0, w1)
            inside = np.maximum(bound, w2, out=bound) <= 0
        if not inside.any():
            continue
        z = w0 * z0
        z += w1 * z1
        z += w2 * z2
        z /= ar
        zsub = zbuf[r0 : r1 + 1, c0 : c1 + 1]
        better = z > zsub  # strict: ties keep the lower index
        better &= inside
        np.copyto(zsub, z, where=better)
        np.copyto(tbuf[r0 : r1 + 1, c0 : c1 + 1], ti, where=better)

    nmap = normal_map(mesh, tbuf)
    if not nmap.mask.any():
        raise RenderError("empty projection: no pixel covered")
    return nmap


def normal_map(mesh: TriMesh, tri_ids: np.ndarray) -> NormalMap:
    """The normal map a z-buffer's winning-triangle ids define.

    A pixel is on the mask where its id is >= 0 and stores that
    triangle's canonical face normal as f32; off the mask it stores 0.
    Given the `tri_ids` of a `rasterize` result, this returns its normals
    and mask bit for bit. The normals are one gather from the mesh's
    normal_table, which the mesh builds once and holds.
    """
    return NormalMap(
        normals=mesh.normal_table.take(tri_ids, axis=0),
        mask=tri_ids >= 0,
        tri_ids=tri_ids,
    )


def lambert(nmap: NormalMap) -> np.ndarray:
    """Noiseless Lambert term of the stored normals, (h, w) f64:
    max(0, n . SCENE_LIGHT) inside the mask, 0 outside it."""
    term = np.maximum(0.0, nmap.normals.astype(np.float64) @ SCENE_LIGHT)
    term[~nmap.mask] = 0.0
    return term


def shade(
    nmap: NormalMap,
    noise_sigma: float,
    seed: int | Sequence[int],
) -> ShadedRender:
    """The Lambert term plus Gaussian pixel noise, clipped to [0, 1].

    With one seed the intensity is (h, w). With a sequence of n seeds it
    is an (n, h, w) stack of noise draws of the one view: the Lambert
    term is computed once and draw i adds the noise of its own stream
    `seed[i]`, so each layer equals a one-seed call with that seed.
    Pixels off the mask read 0 in every draw.
    """
    if not noise_sigma >= 0:
        raise RenderError("noise_sigma must be >= 0")
    one = np.ndim(seed) == 0
    seeds = [seed] if one else list(seed)
    term = lambert(nmap)
    draws = np.empty((len(seeds),) + term.shape)
    draws[:] = term
    if noise_sigma > 0:
        for layer, s in zip(draws, seeds):
            layer += np.random.default_rng(s).normal(0.0, noise_sigma, size=term.shape)
    intensity = np.clip(draws, 0.0, 1.0, out=draws)
    intensity[:, ~nmap.mask] = 0.0
    intensity = intensity.astype(np.float32)
    return ShadedRender(
        intensity=intensity[0] if one else intensity,
        mask=nmap.mask.copy(),
    )
