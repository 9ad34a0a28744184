"""Parametric box-assembled shapes and retrieval benchmarks.

Shapes are unions of axis-aligned boxes (chairs, tables, cabinets)
driven by a small parameter vector. Benchmark generation draws the
parameters from small per-category pools, so distinct shapes share
exact part dimensions by construction, and held-out query shapes are
mutations of a database parent. That gives leave-out queries a known
best match while guaranteeing the query shape itself is absent from
the database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SynthError
from .mesh import TriMesh, normalize_mesh
from .views import perturb_quat

CATEGORIES = ("chair", "table", "cabinet")

# distinct values drawn per continuous parameter, one per equal sub-interval
_POOL_VALUES = 3

# parameter name -> (low, high); drawer_count is an integer-valued param
PARAM_RANGES: dict[str, dict[str, tuple[float, float]]] = {
    "chair": {
        "leg_height": (0.15, 1.1),
        "leg_thickness": (0.03, 0.2),
        "seat_width": (0.3, 1.1),
        "seat_depth": (0.3, 1.0),
        "seat_thickness": (0.04, 0.22),
        "back_height": (0.15, 1.0),
        "back_thickness": (0.03, 0.18),
    },
    "table": {
        "leg_height": (0.2, 1.1),
        "leg_thickness": (0.03, 0.2),
        "top_width": (0.5, 1.6),
        "top_depth": (0.4, 1.4),
        "top_thickness": (0.04, 0.25),
    },
    "cabinet": {
        "width": (0.35, 1.5),
        "height": (0.3, 1.5),
        "depth": (0.25, 0.9),
        "drawer_count": (2, 6),
        "front_thickness": (0.03, 0.12),
    },
}


@dataclass
class SynthSpec:
    category: str
    params: dict[str, float]


@dataclass
class Query:
    shape_id: int
    view_quat: np.ndarray
    aug_seed: int
    leave_out: bool
    gt_shape_id: int  # the shape recall is scored against


@dataclass
class ShapeEntry:
    spec: SynthSpec
    mesh: TriMesh
    parent_id: int = -1  # database parent for held-out shapes


@dataclass
class Benchmark:
    shapes: dict[int, ShapeEntry]
    database_ids: list[int]
    queries: list[Query]


_BOX_QUADS = (
    (1, 3, 2, 0), (6, 7, 5, 4),
    (4, 5, 1, 0), (3, 7, 6, 2),
    (2, 6, 4, 0), (5, 7, 3, 1),
)


def _box(cx, cy, cz, sx, sy, sz):
    """Axis-aligned box: center (cx,cy,cz), full sizes (sx,sy,sz)."""
    hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
    verts = np.array(
        [
            [cx + (ix * 2 - 1) * hx, cy + (iy * 2 - 1) * hy, cz + (iz * 2 - 1) * hz]
            for ix in (0, 1)
            for iy in (0, 1)
            for iz in (0, 1)
        ]
    )
    tris = []
    for a, b, c, d in _BOX_QUADS:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return verts, np.array(tris)


def _merge(boxes, category: str) -> TriMesh:
    verts = []
    tris = []
    offset = 0
    for v, t in boxes:
        verts.append(v)
        tris.append(t + offset)
        offset += len(v)
    return TriMesh(np.vstack(verts), np.vstack(tris), category=category)


def _check_params(spec: SynthSpec) -> None:
    ranges = PARAM_RANGES.get(spec.category)
    if ranges is None:
        raise SynthError(f"unknown category: {spec.category}")
    missing = sorted(set(ranges) - set(spec.params))
    if missing:
        raise SynthError(f"missing parameter: {missing[0]}")
    for name, value in spec.params.items():
        if name not in ranges:
            raise SynthError(f"unknown parameter: {name}")
        lo, hi = ranges[name]
        if not lo <= value <= hi:
            raise SynthError(f"{name}={value} outside [{lo}, {hi}]")


def _legs(p, width, depth):
    """Four legs at the corners of a width x depth frame, standing on y = 0."""
    lh, lt = p["leg_height"], p["leg_thickness"]
    return [
        _box(dx * (width - lt) / 2, lh / 2, dz * (depth - lt) / 2, lt, lh, lt)
        for dx in (-1, 1)
        for dz in (-1, 1)
    ]


def _chair_boxes(p):
    lh = p["leg_height"]
    sw, sd, st = p["seat_width"], p["seat_depth"], p["seat_thickness"]
    bh, bt = p["back_height"], p["back_thickness"]
    boxes = _legs(p, sw, sd)
    boxes.append(_box(0.0, lh + st / 2, 0.0, sw, st, sd))
    # back: one solid panel, full seat width, flush with the seat's rear edge
    boxes.append(_box(0.0, lh + st + bh / 2, -(sd - bt) / 2, sw, bh, bt))
    return boxes


def _table_boxes(p):
    lh = p["leg_height"]
    tw, td, tt = p["top_width"], p["top_depth"], p["top_thickness"]
    boxes = _legs(p, tw, td)
    # top: one solid slab resting on the legs
    boxes.append(_box(0.0, lh + tt / 2, 0.0, tw, tt, td))
    return boxes


def _cabinet_boxes(p):
    w, h, d = p["width"], p["height"], p["depth"]
    n = int(round(p["drawer_count"]))
    ft = p["front_thickness"]
    boxes = [_box(0.0, h / 2, 0.0, w, h, d)]
    slot = h / n
    for i in range(n):
        cy = slot * (i + 0.5)
        boxes.append(_box(0.0, cy, d / 2 + ft / 2, w * 0.85, slot * 0.7, ft))
    return boxes


_BUILDERS = {"chair": _chair_boxes, "table": _table_boxes, "cabinet": _cabinet_boxes}


def generate_shape(spec: SynthSpec) -> TriMesh:
    """Assemble the category template and normalize; pure in the spec."""
    _check_params(spec)
    boxes = _BUILDERS[spec.category](spec.params)
    return normalize_mesh(_merge(boxes, spec.category))


def _build_pools(seed: int) -> dict:
    """Small per-parameter value pools; sharing falls out of reuse."""
    rng = np.random.default_rng(seed)
    pools: dict[str, dict[str, np.ndarray]] = {}
    for cat, ranges in PARAM_RANGES.items():
        pools[cat] = {}
        for name, (lo, hi) in ranges.items():
            if name == "drawer_count":
                pools[cat][name] = np.arange(int(lo), int(hi) + 1, dtype=float)
            else:
                # One draw per equal sub-interval keeps the pool values far
                # apart, so instances built from them stay visually distinct.
                strata = np.arange(_POOL_VALUES) + rng.random(_POOL_VALUES)
                vals = lo + (hi - lo) * strata / _POOL_VALUES
                pools[cat][name] = np.round(vals, 4)
    return pools


def _draw_spec(category: str, pools: dict, rng) -> SynthSpec:
    params = {
        name: float(rng.choice(pool)) for name, pool in pools[category].items()
    }
    return SynthSpec(category=category, params=params)


def _params_key(spec: SynthSpec):
    return (spec.category, tuple(sorted(spec.params.items())))


def generate_benchmark(
    num_shapes: int,
    leave_out_fraction: float,
    views_per_query: int,
    seed: int,
    base_views: np.ndarray,
) -> Benchmark:
    """Database + queries with controlled part sharing.

    Held-out shapes are mutations (1-2 parameter swaps) of a database
    parent of the same category; the parent is the ground-truth target
    for their queries. Every shape, held out or not, contributes
    views_per_query query views, each drawn uniformly from a band of
    rotations offset from the canonical grid (see views.perturb_quat), so
    no query view coincides with a canonical one. base_views, (n, 4)
    quaternions, is that grid: pass the medoids the retrieval pipeline
    indexes (experiment.select_views), so queries sit just off its views.
    """
    if num_shapes < 4:
        raise SynthError("num_shapes must be >= 4")
    if not 0.0 <= leave_out_fraction < 1.0:
        raise SynthError("leave_out_fraction must be in [0, 1)")
    if views_per_query < 1:
        raise SynthError("views_per_query must be >= 1")
    num_out = int(round(num_shapes * leave_out_fraction))
    num_db = num_shapes - num_out
    if num_db < 1:
        raise SynthError("leave_out_fraction leaves an empty database")

    rng = np.random.default_rng(seed)
    pools = _build_pools(seed)
    shapes: dict[int, ShapeEntry] = {}
    database_ids = []
    seen_keys = set()

    for sid in range(num_db):
        category = CATEGORIES[sid % len(CATEGORIES)]
        for _ in range(100):
            spec = _draw_spec(category, pools, rng)
            if _params_key(spec) not in seen_keys:
                break
        else:
            raise SynthError("parameter pools too small for distinct shapes")
        seen_keys.add(_params_key(spec))
        shapes[sid] = ShapeEntry(spec=spec, mesh=generate_shape(spec))
        database_ids.append(sid)

    for j in range(num_out):
        sid = num_db + j
        parent_id = int(rng.choice(database_ids))
        parent = shapes[parent_id].spec
        for _ in range(100):
            params = dict(parent.params)
            names = list(params)
            n_mut = int(rng.integers(1, min(2, len(names)) + 1))
            for name in rng.choice(names, size=n_mut, replace=False):
                pool = pools[parent.category][name]
                alternatives = pool[pool != params[name]]
                if len(alternatives):
                    params[name] = float(rng.choice(alternatives))
            spec = SynthSpec(category=parent.category, params=params)
            if _params_key(spec) not in seen_keys:
                break
        else:
            raise SynthError("could not mutate a distinct held-out shape")
        seen_keys.add(_params_key(spec))
        shapes[sid] = ShapeEntry(
            spec=spec, mesh=generate_shape(spec), parent_id=parent_id
        )

    base_views = np.asarray(base_views, dtype=np.float64)
    if base_views.ndim != 2 or base_views.shape[1] != 4 or len(base_views) == 0:
        raise SynthError("base_views must be a non-empty (n, 4) array")

    queries = []
    vrng = np.random.default_rng(seed + 7919)
    qi = 0
    for sid in sorted(shapes):
        held_out = sid >= num_db
        for _ in range(views_per_query):
            base = base_views[vrng.integers(len(base_views))]
            qview = perturb_quat(base, vrng)
            queries.append(
                Query(
                    shape_id=sid,
                    view_quat=qview,
                    aug_seed=int(seed * 100003 + qi),
                    leave_out=held_out,
                    gt_shape_id=shapes[sid].parent_id if held_out else sid,
                )
            )
            qi += 1
    return Benchmark(shapes=shapes, database_ids=database_ids, queries=queries)
