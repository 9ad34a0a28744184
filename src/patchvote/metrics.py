"""Retrieval and reconstruction metrics.

scipy loads only for F-scores: `mesh_fscore` imports its kd-tree when
it is called, so importing this module, or the pipeline modules that
import it, does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import sample_surface_points
from .views import quat_geodesic

MAX_RECALL_K = 24


def _ranked(entry):
    ids = entry.ranked_ids() if hasattr(entry, "ranked_ids") else list(entry)
    return [int(s) for s in ids]


def mesh_fscore(pred, gt, threshold=0.05, samples=10000, seed=0):
    """Symmetric surface F-score between two meshes.

    Both meshes are sampled with an identical seed so comparing a mesh
    against itself yields exactly 1.0.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    from scipy.spatial import cKDTree

    pts_pred = sample_surface_points(pred, samples, seed)
    pts_gt = sample_surface_points(gt, samples, seed)
    d_pred, _ = cKDTree(pts_gt.positions).query(pts_pred.positions, k=1)
    d_gt, _ = cKDTree(pts_pred.positions).query(pts_gt.positions, k=1)
    precision = float(np.mean(d_pred <= threshold))
    recall = float(np.mean(d_gt <= threshold))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rotation_error(pred, gt):
    """Geodesic distance between two unit quaternions, in degrees."""
    return float(np.degrees(quat_geodesic(pred, gt)))


@dataclass
class QueryRow:
    query_id: int
    gt_shape: int
    ranked: list
    gt_rank: int  # 1-based; -1 when the gt shape is absent from the ranking
    fscore: float | None = None


@dataclass
class MetricsReport:
    rows: list
    recall: dict
    mean_fscore: float | None
    config: dict = field(default_factory=dict)
    # the same queries retrieved over every shape, with no category given
    # (experiment.run_retrieval_experiment), as a report of their own rows
    all_shapes: MetricsReport | None = None


def build_report(results, gts, *, fscores=None, config=None):
    """One row per query, and recall@k for k = 1..MAX_RECALL_K.

    Recall@k is the share of rows whose ground-truth rank is 1..k, read
    off each row's gt_rank, so it never falls as k grows.
    """
    if len(results) != len(gts):
        raise ValueError(
            f"results ({len(results)}) and gts ({len(gts)}) length mismatch"
        )
    if not results:
        raise ValueError("no queries to evaluate")
    rows = []
    for i in range(len(results)):
        ranked = _ranked(results[i])
        gt = int(gts[i])
        rank = ranked.index(gt) + 1 if gt in ranked else -1
        rows.append(QueryRow(
            query_id=i,
            gt_shape=gt,
            ranked=ranked[:MAX_RECALL_K],
            gt_rank=rank,
            fscore=None if fscores is None else fscores[i],
        ))
    ranks = [r.gt_rank for r in rows]
    recall = {
        k: sum(1 for rank in ranks if 1 <= rank <= k) / len(rows)
        for k in range(1, MAX_RECALL_K + 1)
    }
    fsc = [r.fscore for r in rows if r.fscore is not None]
    return MetricsReport(
        rows=rows,
        recall=recall,
        mean_fscore=float(np.mean(fsc)) if fsc else None,
        config=dict(config or {}),
    )

