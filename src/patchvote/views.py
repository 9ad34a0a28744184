"""Rotation handling: unit quaternions, the geodesic metric, K-medoids.

Quaternions are stored (w, x, y, z) as float64 arrays and kept in a
canonical sign (w >= 0; if w == 0 the first nonzero component >= 0) so
the double cover never produces two encodings of one rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


UNIT_TOL = 1e-6  # how far a rotation quaternion's norm may sit from 1
# uniform rotations the canonical view grid and the pose bins are chosen
# from, as k-medoids; num_views and pose.POSE_BINS may not exceed it
ROTATION_POOL = 256

# Query views sit a bounded angle away from a canonical view: far enough
# that no query duplicates a database render, close enough that the
# canonical grid still covers what the query sees.
QUERY_GAP_MIN = np.radians(3.0)
QUERY_GAP_MAX = np.radians(10.0)


def off_unit(q: np.ndarray) -> np.ndarray:
    """Whether each quaternion along the last axis has a norm off 1 by
    more than UNIT_TOL; a NaN norm counts as off."""
    return ~(np.abs(np.linalg.norm(q, axis=-1) - 1.0) <= UNIT_TOL)


def canonical_quat(q: np.ndarray) -> np.ndarray:
    """Normalize to unit length and fix the double-cover sign."""
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q)
    if norm < 1e-12:
        raise ValueError("zero quaternion")
    q = q / norm
    for c in q:
        if c > 0:
            break
        if c < 0:
            q = -q
            break
    return q


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b (apply b first, then a, as rotations)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def axis_angle_quat(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = angle / 2.0
    return canonical_quat(np.concatenate([[np.cos(half)], np.sin(half) * axis]))


def quat_geodesic(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic rotation distance: 2*arccos(min(1, |<a,b>|)), in [0, pi]."""
    d = abs(float(np.dot(a, b)))
    return 2.0 * np.arccos(min(1.0, d))


def perturb_quat(base: np.ndarray, rng) -> np.ndarray:
    """Rotate base by a random angle in the query gap band about a random axis.

    The axis is drawn first, uniform on the sphere, then the angle,
    uniform in [QUERY_GAP_MIN, QUERY_GAP_MAX], so the result is never
    the base view itself. Benchmark queries, training anchors and the
    index's jittered views all sit off the canonical grid by this band.
    """
    axis = rng.normal(size=3)
    angle = float(rng.uniform(QUERY_GAP_MIN, QUERY_GAP_MAX))
    delta = axis_angle_quat(axis, angle)
    return canonical_quat(quat_mul(delta, np.asarray(base, dtype=np.float64)))


def pairwise_geodesic(points: np.ndarray) -> np.ndarray:
    dots = np.abs(points @ points.T)
    np.clip(dots, -1.0, 1.0, out=dots)
    d = 2.0 * np.arccos(dots)
    np.fill_diagonal(d, 0.0)
    return d


def random_rotations(count: int, seed: int) -> np.ndarray:
    """Uniform rotations: normalized 4D gaussians are uniform on S^3."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return np.stack([canonical_quat(row) for row in q])


@dataclass
class ViewSet:
    medoids: np.ndarray  # (n, 4) canonical unit quaternions
    source_size: int
    seed: int = 0

    def __len__(self) -> int:
        return len(self.medoids)


_KMEDOIDS_MAX_ITERS = 50


def kmedoids(points: np.ndarray, k: int, seed: int) -> ViewSet:
    """Cluster rotations: greedy farthest-point init, then Voronoi iteration.

    Each iteration reassigns points to their nearest medoid and replaces
    every medoid by the cluster member with the least total intra-cluster
    distance, so total cost never increases. All ties break toward the
    lower point index.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    dist = pairwise_geodesic(points)

    rng = np.random.default_rng(seed)
    medoids = [int(rng.integers(n))]
    min_d = dist[medoids[0]].copy()
    while len(medoids) < k:
        far = int(np.argmax(min_d))  # argmax takes the first (lowest) index
        if min_d[far] == 0.0:
            raise ValueError("fewer than k distinct rotations")
        medoids.append(far)
        np.minimum(min_d, dist[far], out=min_d)

    medoid_idx = np.array(sorted(medoids))
    for _ in range(_KMEDOIDS_MAX_ITERS):
        assign = np.argmin(dist[:, medoid_idx], axis=1)
        new_idx = medoid_idx.copy()
        for ci in range(k):
            members = np.flatnonzero(assign == ci)
            within = dist[np.ix_(members, members)].sum(axis=0)
            new_idx[ci] = members[int(np.argmin(within))]
        new_idx = np.array(sorted(new_idx))
        if np.array_equal(new_idx, medoid_idx):
            break
        medoid_idx = new_idx
    return ViewSet(medoids=points[medoid_idx].copy(), source_size=n, seed=seed)


def rotation_grid(k: int, seed: int) -> ViewSet:
    """k rotations spread over SO(3): k-medoids over ROTATION_POOL uniform
    rotations, the pool and the clustering both drawn from `seed`.

    The canonical view grid (experiment.select_views, cfg.num_views
    rotations) and the pose bins (experiment.run_pose_experiment,
    pose.POSE_BINS rotations) are each such a grid, under seeds of their
    own.
    """
    return kmedoids(random_rotations(ROTATION_POOL, seed), k, seed)


def nearest_medoid(q: np.ndarray, medoids: np.ndarray) -> int:
    dots = np.abs(np.asarray(medoids) @ np.asarray(q))
    np.clip(dots, -1.0, 1.0, out=dots)
    return int(np.argmax(dots))  # max |dot| = min geodesic; ties -> lowest index
