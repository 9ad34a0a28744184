import numpy as np
import pytest

from patchvote.views import (
    axis_angle_quat,
    canonical_quat,
    kmedoids,
    nearest_medoid,
    off_unit,
    pairwise_geodesic,
    quat_conj,
    quat_geodesic,
    quat_mul,
    quat_to_matrix,
    random_rotations,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


class TestQuaternionBasics:
    def test_canonical_flips_negative_w(self):
        q = canonical_quat([-0.5, 0.5, 0.5, 0.5])
        assert q[0] > 0

    def test_canonical_zero_w_first_nonzero_positive(self):
        q = canonical_quat([0.0, -1.0, 0.0, 0.0])
        np.testing.assert_allclose(q, [0, 1, 0, 0], atol=1e-12)

    def test_canonical_normalizes(self):
        q = canonical_quat([2.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(np.linalg.norm(q), 1.0)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            canonical_quat([0.0, 0.0, 0.0, 0.0])

    def test_mul_identity(self):
        q = axis_angle_quat([0, 0, 1], 0.7)
        np.testing.assert_allclose(quat_mul(IDENTITY, q), q, atol=1e-12)

    def test_mul_conj_gives_identity(self):
        q = axis_angle_quat([1, 2, 3], 1.1)
        np.testing.assert_allclose(quat_mul(q, quat_conj(q)), IDENTITY, atol=1e-12)

    def test_matrix_matches_composition(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = canonical_quat(rng.normal(size=4))
            b = canonical_quat(rng.normal(size=4))
            m = quat_to_matrix(quat_mul(a, b))
            np.testing.assert_allclose(
                m, quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-12
            )

    def test_rotate_vectors_90_about_y(self):
        q = axis_angle_quat([0, 1, 0], np.pi / 2)
        out = np.array([[0.0, 0.0, 1.0]]) @ quat_to_matrix(q).T
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_rotation_matrix_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = quat_to_matrix(canonical_quat(rng.normal(size=4)))
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(m) == pytest.approx(1.0)


class TestGeodesic:
    def test_identity_zero(self):
        assert quat_geodesic(IDENTITY, IDENTITY) == 0.0

    def test_90_degrees_about_z(self):
        q = axis_angle_quat([0, 0, 1], np.pi / 2)
        assert quat_geodesic(IDENTITY, q) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_double_cover(self):
        q = axis_angle_quat([1, 1, 0], 2.0)
        assert quat_geodesic(q, -q) == 0.0

    def test_symmetry_and_triangle_inequality(self):
        qs = random_rotations(30, seed=5)
        for i in range(0, 30, 3):
            a, b, c = qs[i], qs[i + 1], qs[i + 2]
            assert quat_geodesic(a, b) == pytest.approx(quat_geodesic(b, a))
            assert quat_geodesic(a, c) <= (
                quat_geodesic(a, b) + quat_geodesic(b, c) + 1e-9
            )

    def test_range(self):
        qs = random_rotations(50, seed=9)
        d = pairwise_geodesic(qs)
        assert d.min() >= 0.0
        assert d.max() <= np.pi + 1e-12


def medoid_columns(pts, medoids):
    """Index in pts of each medoid; kmedoids returns copies of its points."""
    return [int(np.flatnonzero(np.all(pts == m, axis=1))[0]) for m in medoids]


def clustering_cost(pts, medoids):
    """Summed geodesic distance from every point to its nearest medoid."""
    dist = pairwise_geodesic(pts)
    return float(dist[:, medoid_columns(pts, medoids)].min(axis=1).sum())


class TestKMedoids:
    def four_rotations(self):
        degs = [0.0, 1.0, 90.0, 91.0]
        return np.stack(
            [axis_angle_quat([0, 0, 1], np.deg2rad(d)) for d in degs]
        )

    def test_two_clusters_on_z_axis_angles(self):
        pts = self.four_rotations()
        vs = kmedoids(pts, k=2, seed=0)
        # one medoid from {0deg, 1deg}, one from {90deg, 91deg}
        ids = {nearest_medoid(pts[i], vs.medoids) for i in (0, 1)}
        ids_hi = {nearest_medoid(pts[i], vs.medoids) for i in (2, 3)}
        assert ids.isdisjoint(ids_hi)
        cost = clustering_cost(pts, vs.medoids)
        assert cost == pytest.approx(2 * np.deg2rad(1.0), abs=1e-9)

    def test_optimal_cost_matches_exhaustive_search(self):
        pts = self.four_rotations()
        dist = pairwise_geodesic(pts)
        best = min(
            dist[:, [i, j]].min(axis=1).sum()
            for i in range(4)
            for j in range(i + 1, 4)
        )
        vs = kmedoids(pts, k=2, seed=3)
        assert clustering_cost(pts, vs.medoids) == pytest.approx(best, abs=1e-12)

    def test_k_equals_n(self):
        pts = self.four_rotations()
        vs = kmedoids(pts, k=4, seed=1)
        assert clustering_cost(pts, vs.medoids) == 0.0
        got = {tuple(np.round(m, 9)) for m in vs.medoids}
        want = {tuple(np.round(p, 9)) for p in pts}
        assert got == want

    def test_deterministic(self):
        pts = random_rotations(64, seed=2)
        a = kmedoids(pts, k=8, seed=7)
        b = kmedoids(pts, k=8, seed=7)
        np.testing.assert_array_equal(a.medoids, b.medoids)

    def test_each_medoid_minimises_its_cluster_cost(self):
        """Every medoid has the least summed distance within its own
        Voronoi cluster, so no medoid swap inside a cluster lowers the cost."""
        pts = random_rotations(128, seed=4)
        vs = kmedoids(pts, k=10, seed=0)
        dist = pairwise_geodesic(pts)
        cols = medoid_columns(pts, vs.medoids)
        assign = np.argmin(dist[:, cols], axis=1)
        for ci, medoid in enumerate(cols):
            members = np.flatnonzero(assign == ci)
            within = dist[np.ix_(members, members)].sum(axis=0)
            assert medoid in members
            assert within[members.tolist().index(medoid)] <= within.min() + 1e-12

    def test_medoids_are_members(self):
        pts = random_rotations(100, seed=8)
        vs = kmedoids(pts, k=16, seed=1)
        for m in vs.medoids:
            assert np.any(np.all(np.isclose(pts, m, atol=1e-12), axis=1))

    def test_medoids_distinct(self):
        pts = random_rotations(60, seed=10)
        vs = kmedoids(pts, k=12, seed=2)
        d = pairwise_geodesic(vs.medoids)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            kmedoids(self.four_rotations(), k=5, seed=0)


class TestOffUnit:
    """off_unit is the unit-norm rule rasterize and shade apply: a norm
    off 1 by more than 1e-6 is off, and so is a NaN norm."""

    @pytest.mark.parametrize(
        "q, off",
        [
            ([1 + 9e-7, 0, 0, 0], False),
            ([0, 0.6, 0.8, 0], False),
            ([0.5, 0.5, 0.5, 0.5 + 3e-6], True),
            ([2, 0, 0, 0], True),
            ([0, 0, 0, 0], True),
            ([np.nan, 0, 0, 0], True),
            ([np.inf, 0, 0, 0], True),
        ],
        ids=["within-tolerance", "unit", "just-off", "double", "zero", "nan", "infinite"],
    )
    def test_single_quaternion(self, q, off):
        assert bool(off_unit(np.array(q, dtype=np.float64))) is off

    def test_block_flags_each_row(self):
        block = np.array(
            [[1, 0, 0, 0], [2, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], [np.nan, 0, 0, 0]]
        )
        np.testing.assert_array_equal(off_unit(block), [False, True, False, True])


class TestViewSetIO:
    def test_random_rotations_seeded(self):
        np.testing.assert_array_equal(
            random_rotations(10, seed=1), random_rotations(10, seed=1)
        )
