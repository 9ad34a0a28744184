"""Triangle mesh ingestion: OBJ parsing, canonical normalization, sampling.

Meshes are kept as plain numpy arrays. Vertices are float64 (V, 3),
triangles are int64 (F, 3) with 0-based indices. The canonical frame
used everywhere downstream is bbox-centered with longest extent 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, ObjParseError


@dataclass
class TriMesh:
    vertices: np.ndarray
    triangles: np.ndarray
    category: str = ""

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles) < 1:
            raise MeshError("mesh has no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle index out of range")


@dataclass
class SurfaceSamples:
    """Area-weighted surface point set, stored as parallel arrays."""

    positions: np.ndarray  # (n, 3) float64
    normals: np.ndarray    # (n, 3) float64, unit rows
    triangle_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __len__(self) -> int:
        return len(self.positions)


def parse_obj(data: bytes | str, category: str = "") -> TriMesh:
    """Parse the {v, f, vn, comment} subset of Wavefront OBJ.

    Polygonal faces are fan-triangulated from their first vertex.
    Negative face indices are resolved relative to the vertices defined
    so far, per the OBJ convention. vt/vn components of face tokens are
    ignored. Input must be UTF-8 and coordinates finite. Errors carry
    the 1-based line number.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ObjParseError(f"not UTF-8: {exc.reason}", line) from None
    vertices: list[tuple[float, float, float]] = []
    triangles: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "v":
            if len(tokens) < 4:
                raise ObjParseError("vertex needs 3 coordinates", lineno)
            try:
                xyz = tuple(float(t) for t in tokens[1:4])
            except ValueError:
                raise ObjParseError(f"bad vertex coordinate in {line!r}", lineno)
            if not all(math.isfinite(c) for c in xyz):
                raise ObjParseError(f"non-finite vertex coordinate in {line!r}", lineno)
            vertices.append(xyz)
        elif tag == "f":
            if len(tokens) < 4:
                raise ObjParseError("face needs at least 3 vertices", lineno)
            idx = []
            for tok in tokens[1:]:
                head = tok.split("/")[0]
                try:
                    ref = int(head)
                except ValueError:
                    raise ObjParseError(f"bad face index {tok!r}", lineno)
                if ref < 0:
                    ref = len(vertices) + ref  # relative to vertices so far
                else:
                    ref = ref - 1
                if not 0 <= ref < len(vertices):
                    raise ObjParseError(f"face index {tok!r} out of range", lineno)
                idx.append(ref)
            for i in range(1, len(idx) - 1):
                triangles.append((idx[0], idx[i], idx[i + 1]))
        # vn, vt, and any other directives carry no geometry we use
    if not triangles:
        raise ObjParseError("no faces found")
    return TriMesh(np.array(vertices), np.array(triangles), category=category)


def load_obj(path: str, category: str = "") -> TriMesh:
    with open(path, "rb") as fh:
        return parse_obj(fh.read(), category=category)


def save_obj(mesh: TriMesh, path: str) -> None:
    """Emit geometry-only OBJ (1-based indices) for inspection."""
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    return TriMesh(verts, mesh.triangles.copy(), category=mesh.category)


def face_normals(mesh: TriMesh) -> np.ndarray:
    """Unit per-face normals; degenerate faces get the zero vector."""
    v = mesh.vertices
    t = mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    norms = np.linalg.norm(cross, axis=1)
    out = np.zeros_like(cross)
    ok = norms > 0
    out[ok] = cross[ok] / norms[ok, None]
    return out


def face_areas(mesh: TriMesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1)


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
    normals = face_normals(mesh)[tri_ids]
    return SurfaceSamples(positions, normals, np.asarray(tri_ids, dtype=np.int64))
