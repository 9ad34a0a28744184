"""Triangle meshes: canonical normalization and surface sampling.

Meshes are kept as plain numpy arrays. Vertices are float64 (V, 3),
triangles are int64 (F, 3) with 0-based indices. The canonical frame
used everywhere downstream is bbox-centered with longest extent 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshError


@dataclass(frozen=True)
class TriMesh:
    """An immutable mesh: its fields cannot be reassigned, and its arrays
    are read-only copies of the ones it was built from. So a table derived
    from its geometry is computed once and held on the mesh itself
    (normal_table) without ever going stale."""

    vertices: np.ndarray
    triangles: np.ndarray
    category: str = ""

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=np.float64).reshape(-1, 3)
        triangles = np.array(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(triangles) < 1:
            raise MeshError("mesh has no triangles")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise MeshError("triangle index out of range")
        for name, arr in (("vertices", vertices), ("triangles", triangles)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def normal_table(self) -> np.ndarray:
        """Read-only (F + 1, 3) f32: face_normals, then a row of zeros.

        A render's winning-triangle ids index it, the background's id -1
        reading the zeros (render.normal_map). Built on first use.
        """
        table = np.zeros((len(self.triangles) + 1, 3), dtype=np.float32)
        table[:-1] = face_normals(self)
        table.flags.writeable = False
        return table


@dataclass
class SurfaceSamples:
    """Area-weighted surface point set, stored as parallel arrays."""

    positions: np.ndarray     # (n, 3) float64
    triangle_ids: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.positions)


def bounds(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    return mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)


def normalize_mesh(mesh: TriMesh) -> TriMesh:
    """Center the bounding box at the origin and scale longest extent to 1."""
    lo, hi = bounds(mesh)
    extent = hi - lo
    longest = float(extent.max())
    if longest <= 0:
        raise MeshError("degenerate mesh: zero extent on all axes")
    center = (lo + hi) / 2.0
    verts = (mesh.vertices - center) / longest
    return TriMesh(verts, mesh.triangles, category=mesh.category)


def _face_cross(mesh: TriMesh) -> np.ndarray:
    """Per-face (v1 - v0) x (v2 - v0): its length is twice the face's area,
    its direction the face's normal by the winding order."""
    v = mesh.vertices
    t = mesh.triangles
    return np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])


def face_normals(mesh: TriMesh) -> np.ndarray:
    """Unit per-face normals; degenerate faces get the zero vector."""
    cross = _face_cross(mesh)
    norms = np.linalg.norm(cross, axis=1)
    out = np.zeros_like(cross)
    ok = norms > 0
    out[ok] = cross[ok] / norms[ok, None]
    return out


def face_areas(mesh: TriMesh) -> np.ndarray:
    return 0.5 * np.linalg.norm(_face_cross(mesh), axis=1)


def sample_surface_points(mesh: TriMesh, count: int, seed: int) -> SurfaceSamples:
    """Draw `count` points area-weighted over the surface, seeded.

    Uniform within each triangle via the reflected-barycentric trick.
    """
    if count < 1:
        raise MeshError("sample count must be >= 1")
    areas = face_areas(mesh)
    total = areas.sum()
    if total <= 0:
        raise MeshError("all triangles degenerate: total area is zero")
    rng = np.random.default_rng(seed)
    tri_ids = rng.choice(len(areas), size=count, p=areas / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1
    u[flip] = 1 - u[flip]
    v[flip] = 1 - v[flip]
    a = mesh.vertices[mesh.triangles[tri_ids, 0]]
    b = mesh.vertices[mesh.triangles[tri_ids, 1]]
    c = mesh.vertices[mesh.triangles[tri_ids, 2]]
    positions = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    return SurfaceSamples(positions, np.asarray(tri_ids, dtype=np.int64))
