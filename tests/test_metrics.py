import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patchvote.mesh import TriMesh
from patchvote.metrics import build_report, mesh_fscore, rotation_error
from patchvote.views import axis_angle_quat


def box_mesh(center, size=1.0):
    cx, cy, cz = center
    h = size / 2.0
    g = [-h, h]
    verts = np.array([[cx + x, cy + y, cz + z] for x in g for y in g for z in g])
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


def merge(a, b):
    verts = np.vstack([a.vertices, b.vertices])
    tris = np.vstack([a.triangles, b.triangles + len(a.vertices)])
    return TriMesh(verts, tris)


def square_mesh(z=0.0):
    verts = np.array(
        [[0.0, 0.0, z], [1.0, 0.0, z], [1.0, 1.0, z], [0.0, 1.0, z]]
    )
    return TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def recall(results, gts, k):
    return build_report(results, gts).recall[k]


class TestRecall:
    """Recall@k as build_report reads it off the rows' gt_rank."""

    def test_second_place_counts_from_k2(self):
        results = [[7, 3, 5]]
        assert recall(results, [3], 1) == 0.0
        assert recall(results, [3], 2) == 1.0
        assert recall(results, [3], 3) == 1.0

    def test_all_first_is_one_everywhere(self):
        results = [[1, 2], [4, 0], [9]]
        for k in (1, 2, 5):
            assert recall(results, [1, 4, 9], k) == 1.0

    def test_absent_gt_never_counts(self):
        results = [[2, 3, 4]]
        for k in (1, 3, 24):
            assert recall(results, [8], k) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            build_report([[1], [2]], [1])

    def test_no_queries_rejected(self):
        with pytest.raises(ValueError, match="no queries"):
            build_report([], [])

    def test_curve_monotone(self):
        rng = np.random.default_rng(0)
        results = [list(rng.permutation(10)) for _ in range(20)]
        gts = rng.integers(0, 12, size=20)  # some gts absent entirely
        curve = build_report(results, gts).recall
        vals = [curve[k] for k in range(1, 25)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_recall_is_the_share_of_ranks_within_k(self):
        rng = np.random.default_rng(1)
        results = [list(rng.permutation(30)) for _ in range(25)]
        gts = rng.integers(0, 35, size=25)
        rep = build_report(results, gts)
        for k in range(1, 25):
            hits = sum(int(g) in list(r)[:k] for r, g in zip(results, gts))
            assert rep.recall[k] == hits / 25


class TestFScore:
    def test_identical_mesh_scores_one(self):
        m = box_mesh((0, 0, 0))
        assert mesh_fscore(m, m, samples=2000, seed=3) == 1.0

    def test_far_translation_scores_zero(self):
        # planar squares offset perpendicular by 10x the threshold
        a = square_mesh(0.0)
        b = square_mesh(0.5)
        assert mesh_fscore(a, b, threshold=0.05, samples=2000, seed=1) == 0.0

    def test_half_surface_two_thirds(self):
        gt = merge(box_mesh((0, 0, 0)), box_mesh((3, 0, 0)))
        pred = box_mesh((0, 0, 0))
        f = mesh_fscore(pred, gt, samples=10000, seed=2)
        assert f == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_symmetric(self):
        a = box_mesh((0, 0, 0))
        b = merge(box_mesh((0, 0, 0)), box_mesh((0.3, 0, 0)))
        f1 = mesh_fscore(a, b, samples=4000, seed=5)
        f2 = mesh_fscore(b, a, samples=4000, seed=5)
        assert f1 == pytest.approx(f2, abs=0.02)

    def test_bad_threshold_rejected(self):
        m = box_mesh((0, 0, 0))
        for threshold in (0.0, -0.05, np.nan):
            with pytest.raises(ValueError, match="positive"):
                mesh_fscore(m, m, threshold=threshold)


class TestRotationError:
    def test_equal_is_zero(self):
        q = axis_angle_quat([0, 0, 1], 0.7)
        assert rotation_error(q, q) == 0.0

    def test_negated_is_zero(self):
        q = axis_angle_quat([1, 1, 0], 1.2)
        assert rotation_error(q, -q) == pytest.approx(0.0, abs=1e-6)

    def test_quarter_turn_is_ninety(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = axis_angle_quat([0, 1, 0], np.pi / 2)
        assert rotation_error(a, b) == pytest.approx(90.0, abs=1e-9)


class TestReport:
    def sample_report(self):
        results = [[3, 1, 2], [5, 4], [0, 9]]
        gts = [1, 4, 7]
        return build_report(
            results, gts,
            fscores=[0.5, 0.7, None],
            config={"seed": 0},
        )

    def test_rows_and_ranks(self):
        rep = self.sample_report()
        assert [r.gt_rank for r in rep.rows] == [2, 2, -1]
        assert rep.rows[0].ranked == [3, 1, 2]
        assert rep.mean_fscore == pytest.approx(0.6)

    def test_recall_keys_span_one_to_twentyfour(self):
        rep = self.sample_report()
        assert sorted(rep.recall) == list(range(1, 25))
        assert rep.recall[1] == 0.0
        assert rep.recall[2] == pytest.approx(2.0 / 3.0)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_report([[1]], [1, 2])


def test_pipeline_imports_do_not_load_scipy():
    # scipy is for F-scores only: mesh_fscore imports it when called
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import patchvote.experiment, patchvote.index, patchvote.metrics\n"
        "print('scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
