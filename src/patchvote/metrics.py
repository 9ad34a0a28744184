"""Retrieval and reconstruction metrics plus a serializable report."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .mesh import sample_surface_points
from .views import quat_geodesic

MAX_RECALL_K = 24


def _ranked(entry):
    ids = entry.ranked_ids() if hasattr(entry, "ranked_ids") else list(entry)
    return [int(s) for s in ids]


def recall_at_k(results, gts, k):
    """Fraction of queries whose ground-truth shape is in the top k."""
    if len(results) != len(gts):
        raise ValueError(
            f"results ({len(results)}) and gts ({len(gts)}) length mismatch"
        )
    if k < 1:
        raise ValueError("k must be at least 1")
    if not results:
        raise ValueError("no queries to evaluate")
    hits = sum(1 for res, gt in zip(results, gts) if int(gt) in _ranked(res)[:k])
    return hits / len(results)


def recall_curve(results, gts, max_k=MAX_RECALL_K):
    return {k: recall_at_k(results, gts, k) for k in range(1, max_k + 1)}


def mesh_fscore(pred, gt, threshold=0.05, samples=10000, seed=0):
    """Symmetric surface F-score between two meshes.

    Both meshes are sampled with an identical seed so comparing a mesh
    against itself yields exactly 1.0.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
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
    rotation_error_deg: float | None = None
    fscore: float | None = None


@dataclass
class MetricsReport:
    rows: list
    recall: dict
    mean_fscore: float | None
    median_rotation_error: float | None
    config: dict = field(default_factory=dict)


def build_report(results, gts, *, query_ids=None, rotation_errors=None,
                 fscores=None, config=None, max_k=MAX_RECALL_K):
    if len(results) != len(gts):
        raise ValueError(
            f"results ({len(results)}) and gts ({len(gts)}) length mismatch"
        )
    n = len(results)
    if query_ids is None:
        query_ids = list(range(n))
    rows = []
    for i in range(n):
        ranked = _ranked(results[i])
        gt = int(gts[i])
        rank = ranked.index(gt) + 1 if gt in ranked else -1
        rows.append(QueryRow(
            query_id=int(query_ids[i]),
            gt_shape=gt,
            ranked=ranked[:max_k],
            gt_rank=rank,
            rotation_error_deg=None if rotation_errors is None else rotation_errors[i],
            fscore=None if fscores is None else fscores[i],
        ))
    recall = recall_curve(results, gts, max_k)
    vals = sorted(recall.values())
    if vals != [recall[k] for k in sorted(recall)]:
        raise ValueError("recall must be monotone in k")
    rot = [r.rotation_error_deg for r in rows if r.rotation_error_deg is not None]
    fsc = [r.fscore for r in rows if r.fscore is not None]
    return MetricsReport(
        rows=rows,
        recall=recall,
        mean_fscore=float(np.mean(fsc)) if fsc else None,
        median_rotation_error=float(np.median(rot)) if rot else None,
        config=dict(config or {}),
    )


def _cell(value):
    return "" if value is None else value


def write_report_csv(report, path):
    """Per-query rows; ranked shapes are space-joined inside one cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["query_id", "gt_shape", "gt_rank", "rotation_error_deg",
             "fscore", "ranked_shapes"]
        )
        for row in report.rows:
            writer.writerow([
                row.query_id, row.gt_shape, row.gt_rank,
                _cell(row.rotation_error_deg), _cell(row.fscore),
                " ".join(str(s) for s in row.ranked),
            ])


def write_aggregates_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for k in sorted(report.recall):
            writer.writerow([f"recall_at_{k}", report.recall[k]])
        writer.writerow(["mean_fscore", _cell(report.mean_fscore)])
        writer.writerow(
            ["median_rotation_error_deg", _cell(report.median_rotation_error)]
        )


def report_to_dict(report):
    return {
        "rows": [
            {
                "query_id": r.query_id,
                "gt_shape": r.gt_shape,
                "gt_rank": r.gt_rank,
                "rotation_error_deg": r.rotation_error_deg,
                "fscore": r.fscore,
                "ranked": r.ranked,
            }
            for r in report.rows
        ],
        "recall": {str(k): v for k, v in sorted(report.recall.items())},
        "mean_fscore": report.mean_fscore,
        "median_rotation_error_deg": report.median_rotation_error,
        "config": report.config,
    }


def write_report_json(report, path):
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
