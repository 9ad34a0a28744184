from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from patchvote import mesh as mesh_module
from patchvote.errors import RenderError
from patchvote.mesh import TriMesh, face_normals, normalize_mesh
from patchvote.render import (
    SCENE_LIGHT,
    NormalMap,
    lambert,
    normal_map,
    rasterize,
    shade,
)
from patchvote.views import axis_angle_quat, quat_to_matrix, random_rotations

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def unit_cube():
    g = [-0.5, 0.5]
    verts = np.array([[x, y, z] for x in g for y in g for z in g], dtype=float)
    # outward-facing windings (index bits: 4=x, 2=y, 1=z)
    quads = [
        (1, 3, 2, 0), (6, 7, 5, 4),
        (4, 5, 1, 0), (3, 7, 6, 2),
        (2, 6, 4, 0), (5, 7, 3, 1),
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriMesh(verts, np.array(tris))


class TestRasterize:
    def test_cube_identity_view_shows_plus_z_face(self):
        nmap = rasterize(unit_cube(), IDENTITY, 64)
        assert nmap.mask.any()
        vals = nmap.normals[nmap.mask]
        np.testing.assert_array_equal(vals, np.tile([0, 0, 1], (len(vals), 1)))

    def test_cube_rotated_about_y_shows_plus_x_face(self):
        # rotating the cube -90 deg about y brings the +x face toward the
        # camera; stored values stay in the canonical frame
        view = axis_angle_quat([0, 1, 0], -np.pi / 2)
        nmap = rasterize(unit_cube(), view, 64)
        vals = nmap.normals[nmap.mask]
        np.testing.assert_array_equal(vals, np.tile([1, 0, 0], (len(vals), 1)))

    def test_zbuffer_keeps_nearer_triangle(self):
        # two z-parallel triangles; the one at z=0.8 is closer to the +z camera
        verts = np.array(
            [
                [-0.5, -0.5, 0.2], [0.5, -0.5, 0.2], [0.0, 0.5, 0.2],
                [-0.5, -0.5, 0.8], [0.0, 0.5, 0.8], [0.5, -0.5, 0.8],
            ]
        )
        tris = np.array([[0, 1, 2], [3, 4, 5]])  # opposite windings
        mesh = TriMesh(verts, tris)
        near_normal = face_normals(mesh)[1].astype(np.float32)
        nmap = rasterize(mesh, IDENTITY, 96)
        center = nmap.normals[48, 48]
        assert nmap.mask[48, 48]
        np.testing.assert_array_equal(center, near_normal)

    def test_depth_tie_takes_lower_triangle_index(self):
        # identical geometry twice: bitwise-equal depths, index 0 must win
        verts = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.5, 0.0]])
        tris = np.array([[0, 1, 2], [0, 1, 2]])
        nmap = rasterize(TriMesh(verts, tris), IDENTITY, 48)
        assert np.all(nmap.tri_ids[nmap.mask] == 0)

    def test_canonical_value_subset_property(self):
        mesh = unit_cube()
        canon = {tuple(n) for n in face_normals(mesh).astype(np.float32)}
        for view in random_rotations(12, seed=3):
            nmap = rasterize(mesh, view, 48)
            seen = {tuple(v) for v in nmap.normals[nmap.mask]}
            assert seen <= canon

    def test_five_percent_margin(self):
        nmap = rasterize(unit_cube(), IDENTITY, 96)
        cols = np.flatnonzero(nmap.mask.any(axis=0))
        rows = np.flatnonzero(nmap.mask.any(axis=1))
        for run in (cols, rows):
            frac = (run[-1] - run[0] + 1) / 96
            assert 0.88 <= frac <= 0.92

    def test_masked_normals_unit_unmasked_zero(self):
        view = random_rotations(1, seed=11)[0]
        nmap = rasterize(unit_cube(), view, 64)
        lens = np.linalg.norm(nmap.normals[nmap.mask], axis=1)
        np.testing.assert_allclose(lens, 1.0, atol=1e-5)
        np.testing.assert_array_equal(nmap.normals[~nmap.mask], 0.0)

    def test_non_unit_view_rejected(self):
        with pytest.raises(RenderError, match="unit"):
            rasterize(unit_cube(), np.array([1.0, 1.0, 0.0, 0.0]), 64)

    @pytest.mark.parametrize(
        "view", [[0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]], ids=["zero", "nan"]
    )
    def test_zero_and_nan_views_rejected(self, view):
        with pytest.raises(RenderError, match="unit"):
            rasterize(unit_cube(), np.array(view), 64)

    def test_tiny_resolution_rejected(self):
        with pytest.raises(RenderError, match="resolution"):
            rasterize(unit_cube(), IDENTITY, 4)

    def test_edge_on_projection_is_empty(self):
        # single triangle in the xz plane seen edge-on covers nothing
        verts = np.array([[-0.5, 0.0, -0.5], [0.5, 0.0, -0.5], [0.0, 0.0, 0.5]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        with pytest.raises(RenderError, match="empty projection"):
            rasterize(mesh, IDENTITY, 32)

    def test_deterministic(self):
        view = random_rotations(1, seed=2)[0]
        a = rasterize(unit_cube(), view, 64)
        b = rasterize(unit_cube(), view, 64)
        np.testing.assert_array_equal(a.normals, b.normals)
        np.testing.assert_array_equal(a.mask, b.mask)


class TestNormalTable:
    """The f32 face-normal table is built once per mesh and held on it."""

    def test_held_table_keeps_rasterize_bytes(self, monkeypatch):
        calls = []
        normals_of = mesh_module.face_normals

        def spy(mesh):
            calls.append(mesh)
            return normals_of(mesh)

        monkeypatch.setattr(mesh_module, "face_normals", spy)
        cube = normalize_mesh(unit_cube())
        # the table as normal_map built it on every call
        fresh = np.zeros((len(cube.triangles) + 1, 3), dtype=np.float32)
        fresh[:-1] = normals_of(cube)
        for view in random_rotations(4, seed=5):
            nmap = rasterize(cube, view, 48)
            for _ in range(2):
                again = normal_map(cube, nmap.tri_ids)
                assert again.normals.tobytes() == nmap.normals.tobytes()
                assert again.mask.tobytes() == nmap.mask.tobytes()
            want = fresh.take(nmap.tri_ids, axis=0)
            assert nmap.normals.tobytes() == want.tobytes()
            assert nmap.mask.tobytes() == (nmap.tri_ids >= 0).tobytes()
        assert calls == [cube]
        assert cube.normal_table is cube.normal_table
        assert not cube.normal_table.flags.writeable

    def test_mesh_geometry_cannot_change_under_its_table(self):
        verts = unit_cube().vertices.copy()
        mesh = TriMesh(verts, unit_cube().triangles)
        table = mesh.normal_table.copy()
        verts[:] = 0.0  # the array it was built from
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 1.0
        with pytest.raises(ValueError):
            mesh.triangles[0, 0] = 1
        with pytest.raises(FrozenInstanceError):
            mesh.vertices = verts
        assert np.abs(mesh.vertices).min() == 0.5
        assert mesh.normal_table.tobytes() == table.tobytes()


class TestShade:
    def flat_nmap(self, normal=(0, 0, 1)):
        normals = np.zeros((8, 8, 3), dtype=np.float32)
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6] = True
        normals[mask] = np.asarray(normal, dtype=np.float32)
        return NormalMap(normals=normals, mask=mask)

    def test_aligned_light_full_intensity(self):
        img = shade(self.flat_nmap(SCENE_LIGHT), 0.0, seed=0)
        np.testing.assert_allclose(img.intensity[img.mask], 1.0, atol=1e-6)

    def test_opposed_light_clamps_to_zero(self):
        img = shade(self.flat_nmap(-SCENE_LIGHT), 0.0, seed=0)
        np.testing.assert_array_equal(img.intensity[img.mask], 0.0)

    def test_mask_equality_invariant(self):
        nmap = rasterize(unit_cube(), random_rotations(1, seed=5)[0], 48)
        img = shade(nmap, 0.05, seed=9)
        np.testing.assert_array_equal(img.mask, nmap.mask)
        np.testing.assert_array_equal(img.intensity[~img.mask], 0.0)

    def test_noise_deterministic_and_clamped(self):
        nmap = self.flat_nmap()
        a = shade(nmap, 0.3, seed=4)
        b = shade(nmap, 0.3, seed=4)
        np.testing.assert_array_equal(a.intensity, b.intensity)
        assert a.intensity.min() >= 0.0
        assert a.intensity.max() <= 1.0

    def test_nan_noise_sigma_rejected(self):
        with pytest.raises(RenderError, match="noise_sigma"):
            shade(self.flat_nmap(), float("nan"), seed=0)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_seed_list_stacks_one_draw_per_seed(self, sigma):
        nmap = rasterize(unit_cube(), random_rotations(1, seed=5)[0], 48)
        seeds = [11, 4, 11, 2**40]
        stack = shade(nmap, sigma, seeds)
        assert stack.intensity.shape == (4, 48, 48)
        assert stack.intensity.dtype == np.float32
        assert stack.mask.shape == (48, 48)
        np.testing.assert_array_equal(stack.mask, nmap.mask)
        for layer, s in zip(stack.intensity, seeds):
            one = shade(nmap, sigma, s)
            assert layer.tobytes() == one.intensity.tobytes()
        assert shade(nmap, sigma, []).intensity.shape == (0, 48, 48)

    def test_noiseless_shade_is_the_lambert_term(self):
        for seed in range(4):
            nmap = rasterize(unit_cube(), random_rotations(1, seed=seed)[0], 48)
            term = lambert(nmap)
            assert term.dtype == np.float64
            img = shade(nmap, 0.0, seed=0)
            assert img.intensity[nmap.mask].tobytes() == (
                term[nmap.mask].astype(np.float32).tobytes()
            )
            np.testing.assert_array_equal(term[~nmap.mask], 0.0)
            np.testing.assert_array_equal(img.intensity[~nmap.mask], 0.0)

    def test_camera_headlight_lights_facing_face(self):
        """A face whose normal is the scene light, seen from that direction."""
        # turn the cube so its +z face's normal is SCENE_LIGHT, then view it
        # by the inverse turn: the camera (+z in view space) looks along
        # -SCENE_LIGHT, so the scene light is a headlight for this view
        z = np.array([0.0, 0.0, 1.0])
        axis = np.cross(z, SCENE_LIGHT)
        turn = axis_angle_quat(axis, np.arccos(SCENE_LIGHT @ z))
        cube = unit_cube()
        turned = TriMesh(cube.vertices @ quat_to_matrix(turn).T, cube.triangles)
        view = axis_angle_quat(axis, -np.arccos(SCENE_LIGHT @ z))
        img = shade(rasterize(turned, view, 48), 0.0, seed=0)
        np.testing.assert_allclose(img.intensity[img.mask], 1.0, atol=1e-6)

    def test_face_keeps_its_intensity_at_every_view(self):
        """The light is fixed in the canonical frame, not to the camera."""
        cube = unit_cube()
        normals = face_normals(cube)
        want = np.maximum(0.0, normals @ SCENE_LIGHT).astype(np.float32)
        seen = set()
        for view in random_rotations(12, seed=3):
            nmap = rasterize(cube, view, 48)
            img = shade(nmap, 0.0, seed=0)
            tri = nmap.tri_ids[nmap.mask]
            np.testing.assert_array_equal(img.intensity[nmap.mask], want[tri])
            seen.update((tri // 2).tolist())
        assert seen == set(range(6))
