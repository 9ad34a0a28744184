import numpy as np
import pytest

from patchvote.errors import MeshError
from patchvote.mesh import (
    TriMesh,
    face_areas,
    face_normals,
    normalize_mesh,
    sample_surface_points,
)


def cube_mesh(lo=0.0, hi=2.0):
    """Axis-aligned cube between lo and hi on every axis, 12 triangles."""
    g = [lo, hi]
    verts = np.array([[x, y, z] for x in g for y in g for z in g], dtype=float)
    # index layout: bit2=x, bit1=y, bit0=z
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5),  # x faces
        (0, 4, 5, 1), (2, 3, 7, 6),  # y faces
        (0, 2, 6, 4), (1, 5, 7, 3),  # z faces
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriMesh(verts, np.array(tris))


class TestNormalize:
    def test_cube_span_two_becomes_unit(self):
        mesh = normalize_mesh(cube_mesh(0.0, 2.0))
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        np.testing.assert_allclose(lo, [-0.5, -0.5, -0.5], atol=1e-12)
        np.testing.assert_allclose(hi, [0.5, 0.5, 0.5], atol=1e-12)

    def test_anisotropic_box_uniform_scale(self):
        verts = np.array(
            [[0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, 1]], dtype=float
        )
        tris = np.array([[0, 1, 2], [0, 2, 3], [1, 2, 4]])
        mesh = normalize_mesh(TriMesh(verts, tris))
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        np.testing.assert_allclose(hi - lo, [1.0, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose((hi + lo) / 2, 0, atol=1e-12)

    def test_idempotent(self):
        once = normalize_mesh(cube_mesh(0.0, 2.0))
        twice = normalize_mesh(once)
        np.testing.assert_allclose(once.vertices, twice.vertices, atol=1e-6)

    def test_degenerate_rejected(self):
        verts = np.zeros((3, 3))
        with pytest.raises(MeshError, match="degenerate"):
            normalize_mesh(TriMesh(verts, np.array([[0, 1, 2]])))

    def test_category_preserved(self):
        cube = cube_mesh()
        mesh = TriMesh(cube.vertices, cube.triangles, category="chair")
        assert normalize_mesh(mesh).category == "chair"


class TestNormalsAndAreas:
    def test_unit_normals(self):
        n = face_normals(cube_mesh())
        np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)

    def test_degenerate_face_zero_normal(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
        tris = np.array([[0, 1, 2], [0, 1, 3]])
        n = face_normals(TriMesh(verts, tris))
        np.testing.assert_array_equal(n[0], [0, 0, 0])
        np.testing.assert_allclose(n[1], [0, 0, 1], atol=1e-12)

    def test_cube_total_area(self):
        assert face_areas(cube_mesh(0, 2)).sum() == pytest.approx(24.0)


class TestSampling:
    def test_single_triangle_all_ids_zero(self):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        s = sample_surface_points(mesh, 50, seed=0)
        assert np.all(s.triangle_ids == 0)
        assert len(s) == 50

    def test_zero_area_triangle_never_sampled(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
        tris = np.array([[0, 1, 2], [0, 1, 3]])
        s = sample_surface_points(TriMesh(verts, tris), 200, seed=1)
        assert np.all(s.triangle_ids == 1)

    def test_deterministic(self):
        mesh = cube_mesh()
        a = sample_surface_points(mesh, 100, seed=7)
        b = sample_surface_points(mesh, 100, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.triangle_ids, b.triangle_ids)

    def test_points_on_triangle_plane(self):
        mesh = cube_mesh(0, 1)
        s = sample_surface_points(mesh, 500, seed=3)
        normals = face_normals(mesh)[s.triangle_ids]
        anchor = mesh.vertices[mesh.triangles[s.triangle_ids, 0]]
        dist = np.abs(np.sum((s.positions - anchor) * normals, axis=1))
        assert dist.max() < 1e-6

    def test_area_ratio_statistics(self):
        # triangles with area ratio 3:1 get samples in ratio 3:1 within 5%
        verts = np.array(
            [[0, 0, 0], [3, 0, 0], [0, 2, 0], [10, 0, 0], [11, 0, 0], [10, 2, 0]],
            dtype=float,
        )
        tris = np.array([[0, 1, 2], [3, 4, 5]])
        s = sample_surface_points(TriMesh(verts, tris), 10000, seed=11)
        big = np.sum(s.triangle_ids == 0)
        small = np.sum(s.triangle_ids == 1)
        assert big / small == pytest.approx(3.0, rel=0.05)

    def test_all_degenerate_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        with pytest.raises(MeshError, match="area"):
            sample_surface_points(TriMesh(verts, np.array([[0, 1, 2]])), 10, seed=0)
