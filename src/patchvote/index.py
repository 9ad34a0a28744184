"""Immutable patch database and two-stage majority-vote retrieval.

Build: every database shape is rendered at each canonical view, patch
rects are sampled, empties dropped, and the shape tower embeds each
patch into a unit vector stored as f32. Each view is one batched pass:
its rects are sampled, snapped to content and pooled together (see
descriptor and embed), as are the at most Kq patches of a query.

Shared renders: the training corpus (experiment.build_corpus) and the
index draw their shape-domain records at the same canonical views, so
one pipeline renders each (shape, canonical view) once with
`render_views` and hands the normal maps to both passes of
`enumerate_view_patches`. A render is reused only for the identical
shape and view quaternion; jittered index views render their own. The
corpus's anchor views are likewise one pass each: one `shade` call
draws every noise variant, and one snap and one pool call cover all of
the view's anchors.

Retrieval: Kq query patches vote; each patch elects the modal shape
among its Kr nearest records, and the object-level answer is the
majority over patch winners, with ties resolved by aggregate
similarity then shape id.

Query state: the index is immutable, so what every query needs is
built once per PatchIndex object, on first use, and reused: a
C-contiguous f64 copy of the embeddings (the matrix every kNN scores),
a map from category to the sorted ids of its records (the subset a
category-conditioned query searches) and one C-contiguous f64 block of
each category's rows, so a conditioned query's patches score that
block instead of gathering the category's rows for each patch.

Exact top-k: each query patch is scored with one mat-vec over the
searched records, so every similarity is the same f64 value a full
scan gives. np.partition finds the k-th highest similarity, and only
the records at or above it, every record tied with the k-th included,
are sorted by (similarity descending, record id ascending). The result
is the first k of that order, identical to a full sort of all records.
Hard-negative mining in training shares the rule (embed._top_k).

File format (little-endian, framed by `artifact`): magic, version,
record count n, dimension d, manifest length and UTF-8 JSON manifest,
then n packed records of shape id, view id and rect x, y, w, h as u32
followed by d f32 embedding values, read and written as one block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifact import Reader, decode_json, fields, pack
from .config import Config, from_dict, to_dict
from .descriptor import content_rect, rect_windows, sample_patches
from .embed import (
    TowerParams,
    _top_k,
    image_patch_features,
    shape_patch_features,
    tower_forward,
)
from .errors import EmptyIndexError, FormatError, NoRetrievalError, RenderError
from .mesh import TriMesh
from .render import NormalMap, ShadedRender, rasterize, scene_light
from .views import ViewSet, viewset_doc

INDEX_MAGIC = b"P2CI"
INDEX_VERSION = 1


@dataclass
class PatchIndex:
    embeddings: np.ndarray  # (N, d) float32 unit rows
    shape_ids: np.ndarray   # (N,) int64
    view_ids: np.ndarray    # (N,) int64
    rects: np.ndarray       # (N, 4) int64: x, y, w, h
    manifest: dict          # shapes, views, config, build inputs

    def __len__(self) -> int:
        return len(self.embeddings)

    def category_of(self, shape_id: int) -> str:
        """The shape's category as the manifest records it, a str."""
        with fields("index manifest"):
            category = self.manifest["shapes"][str(shape_id)]["category"]
        if not isinstance(category, str):
            raise FormatError(f"index manifest: shape {shape_id} category is not a str")
        return category

    @cached_property
    def embeddings_f64(self) -> np.ndarray:
        """C-contiguous f64 copy of `embeddings`, the matrix kNN scores."""
        return np.ascontiguousarray(self.embeddings, dtype=np.float64)

    @cached_property
    def category_records(self) -> dict[str, np.ndarray]:
        """Category -> sorted ids of the records of its shapes."""
        shapes: dict[str, list[int]] = {}
        for sid in np.unique(self.shape_ids).tolist():
            shapes.setdefault(self.category_of(sid), []).append(sid)
        return {
            cat: np.flatnonzero(np.isin(self.shape_ids, sids))
            for cat, sids in shapes.items()
        }

    @cached_property
    def category_embeddings(self) -> dict[str, np.ndarray]:
        """Category -> C-contiguous f64 rows of its records, in id order."""
        return {
            cat: self.embeddings_f64[ids] for cat, ids in self.category_records.items()
        }

    def rows_f64(self, ids: np.ndarray) -> np.ndarray:
        """f64 rows of the records `ids`, C-contiguous.

        A category's own id array from `category_records` (what a
        conditioned query searches) is served from its cached block;
        any other subset is gathered on each call.
        """
        for cat, records in self.category_records.items():
            if ids is records:
                return self.category_embeddings[cat]
        return self.embeddings_f64[ids]


def derive_seed(base: int, shape_id: int, view_id: int) -> int:
    """Stable per-(shape, view) stream, independent of build order."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=(shape_id, view_id))
    return int(ss.generate_state(1)[0])


# held renders: (shape id, view quaternion bytes) -> normal map, None if empty
Renders = dict[tuple[int, bytes], NormalMap | None]


def render_views(shapes: dict[int, TriMesh], views: ViewSet, resolution: int) -> Renders:
    """Normal map of every shape at every view, to share between passes.

    Keyed by (shape id, view quaternion as f64 bytes), so a pass reuses a
    render only for the identical shape and view. A view with an empty
    projection maps to None. The held maps keep the normals and the
    mask only, not the diagnostic triangle ids.
    """
    renders: Renders = {}
    for sid in sorted(shapes):
        for view in views.medoids:
            nmap = _render(shapes[sid], view, resolution)
            renders[_render_key(sid, view)] = (
                None if nmap is None else NormalMap(normals=nmap.normals, mask=nmap.mask)
            )
    return renders


def _render_key(sid: int, view: np.ndarray) -> tuple[int, bytes]:
    return sid, np.asarray(view, dtype=np.float64).tobytes()


def _render(mesh: TriMesh, view: np.ndarray, resolution: int) -> NormalMap | None:
    try:
        return rasterize(mesh, view, resolution)
    except RenderError:
        return None  # a fully empty view costs records, not the build


def enumerate_view_patches(
    shapes: dict[int, TriMesh],
    views: ViewSet,
    patches_per_view: int,
    cfg: Config,
    renders: Renders | None = None,
):
    """Yield one block of records per rendered view.

    A block is (shape_id, view_id, feats, rects): feats holds the k
    records' pooled normals, (k, 3 * pool_size**2) f64, and rects their
    (x, y, w, h) rows, (k, 4) int64.

    The single source of record identity: index construction and training
    corpus assembly both consume this, so two passes given the same views
    and patches_per_view yield the same records in the same order.
    train_pipeline gives them different ones: the corpus draws
    patches_per_view (64 by default) per canonical view, the index
    index_patches_per_view (256 by default) per canonical or jittered
    view (experiment.augment_views), so a corpus candidate's position is
    not an index record id.

    Views with an empty projection are skipped, as are empty patches.
    Every rect is anchored to its content centroid before use (see
    content_rect), with the noiseless shading as the weight so the
    placement matches what the image domain computes from a photograph
    of the same surface. Rects that collapse onto the same placement
    are deduplicated, so patches_per_view is an upper bound per view.

    A view found in `renders` (see render_views) is not rendered again;
    any other view is rendered here and not kept.
    """
    light = scene_light()
    renders = renders or {}
    for sid in sorted(shapes):
        mesh = shapes[sid]
        for vid, view in enumerate(views.medoids):
            key = _render_key(sid, view)
            if key in renders:
                nmap = renders[key]
            else:
                nmap = _render(mesh, view, cfg.render_resolution)
            if nmap is None:
                continue
            patch_seed = derive_seed(cfg.seed, sid, vid)
            patches = sample_patches(
                nmap, cfg.patch_fraction, patches_per_view, patch_seed,
                cfg.min_coverage,
            )
            lambert = np.maximum(0.0, nmap.normals @ light)
            lambert[~nmap.mask] = 0.0
            snapped = content_rect(
                lambert, nmap.mask, [r for r in patches if not r.empty]
            )
            kept = []
            seen = set()
            for r in snapped:
                if (r.x, r.y) not in seen:
                    seen.add((r.x, r.y))
                    kept.append(r)
            if kept:
                feats = shape_patch_features(nmap.normals, kept, cfg.pool_size)
                rects = np.array([(r.x, r.y, r.w, r.h) for r in kept], dtype=np.int64)
                yield sid, vid, feats, rects


def build_index(
    shapes: dict[int, TriMesh],
    views: ViewSet,
    model: TowerParams,
    patches_per_view: int,
    cfg: Config,
    renders: Renders | None = None,
) -> PatchIndex:
    """Render, sample, and embed every shape x view into one flat index.

    Each view's block goes through the shape tower in one pass; blocks
    are embedded one at a time, so the f64 features of the whole index
    are never held at once. Views found in `renders` are not rendered
    again (see enumerate_view_patches).
    """
    if not shapes:
        raise EmptyIndexError("no shapes to index")
    embeddings, shape_ids, view_ids, rects = [], [], [], []
    for sid, vid, feats, view_rects in enumerate_view_patches(
        shapes, views, patches_per_view, cfg, renders
    ):
        embeddings.append(tower_forward(model.shape, feats).Y.astype(np.float32))
        shape_ids.append(np.full(len(feats), sid, dtype=np.int64))
        view_ids.append(np.full(len(feats), vid, dtype=np.int64))
        rects.append(view_rects)
    if not embeddings:
        raise EmptyIndexError("index build produced no records")
    manifest = {
        "shapes": {
            str(sid): {"category": shapes[sid].category} for sid in sorted(shapes)
        },
        "views": viewset_doc(views),
        "config": to_dict(cfg),
        "patches_per_view": patches_per_view,
    }
    return PatchIndex(
        embeddings=np.vstack(embeddings),
        shape_ids=np.concatenate(shape_ids),
        view_ids=np.concatenate(view_ids),
        rects=np.vstack(rects),
        manifest=manifest,
    )


def knn_query(
    index: PatchIndex,
    query: np.ndarray,
    k: int,
    subset: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Exact top-k by cosine similarity; ties break to the lower record id.

    `subset` restricts the search to the given record ids (used for
    category-conditioned retrieval).
    """
    if len(index) == 0:
        raise EmptyIndexError("index holds no records")
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.arange(len(index)) if subset is None else np.asarray(subset)
    if len(ids) == 0:
        raise EmptyIndexError("no records in the searched subset")
    emb = index.embeddings_f64 if subset is None else index.rows_f64(ids)
    sims = emb @ np.asarray(query, dtype=np.float64)
    return [(int(ids[i]), float(sims[i])) for i in _top_k(sims, ids, k)]


@dataclass
class RetrievalResult:
    ranking: list[tuple[int, int, float]]  # (shape_id, votes, aggregate)
    excluded_patches: int

    def ranked_ids(self) -> list[int]:
        return [sid for sid, _, _ in self.ranking]


def _elect(neighbors: list[tuple[int, float]], shape_ids: np.ndarray):
    """Modal shape among the neighbors; ties by summed sim then lower id."""
    tally: dict[int, list[float]] = {}
    for rid, sim in neighbors:
        tally.setdefault(int(shape_ids[rid]), []).append(sim)
    best = max(
        tally.items(), key=lambda kv: (len(kv[1]), sum(kv[1]), -kv[0])
    )
    winner = best[0]
    return winner, max(best[1])


def retrieve_shape(
    index: PatchIndex,
    query_raster: ShadedRender,
    instance_mask: np.ndarray,
    model: TowerParams,
    kq: int,
    kr: int,
    seed: int,
    cfg: Config | None = None,
    category: str | None = None,
) -> RetrievalResult:
    """Two-stage majority vote over Kq query patches and Kr neighbors each."""
    if kq < 1 or kr < 1:
        raise ValueError("kq and kr must be >= 1")
    if len(index) == 0:
        raise EmptyIndexError("index holds no records")
    if cfg is None:
        with fields("index manifest"):
            cfg = from_dict(index.manifest["config"])

    subset = None
    if category is not None:
        subset = index.category_records.get(category, np.empty(0, dtype=np.int64))
    patches = sample_patches(
        query_raster, cfg.patch_fraction, kq, seed, cfg.min_coverage
    )
    overlap = rect_windows(instance_mask, patches).any(axis=(1, 2))
    survivors = content_rect(
        query_raster.intensity,
        query_raster.mask,
        [r for r, hit in zip(patches, overlap) if hit],
    )
    if not survivors:
        raise NoRetrievalError("every query patch was excluded")

    feats = image_patch_features(query_raster.intensity, survivors, cfg.pool_size)
    Y = tower_forward(model.image, feats).Y

    counts: dict[int, int] = {}
    aggregates: dict[int, float] = {}
    seen_shapes: set[int] = set()
    for y in Y:
        neighbors = knn_query(index, y, kr, subset=subset)
        winner, best = _elect(neighbors, index.shape_ids)
        counts[winner] = counts.get(winner, 0) + 1
        aggregates[winner] = aggregates.get(winner, 0.0) + best
        seen_shapes.update(int(index.shape_ids[rid]) for rid, _ in neighbors)
    for sid in seen_shapes:
        counts.setdefault(sid, 0)
        aggregates.setdefault(sid, 0.0)
    ranking = sorted(
        ((sid, n, aggregates[sid]) for sid, n in counts.items()),
        key=lambda row: (-row[1], -row[2], row[0]),
    )
    return RetrievalResult(
        ranking=ranking, excluded_patches=len(patches) - len(survivors)
    )


# ---------------------------------------------------------------------------
# index file format


def _record_dtype(d: int) -> np.dtype:
    """One packed on-disk record: 24 bytes of u32 ids and rect, d f32 values."""
    return np.dtype(
        [
            ("shape_id", "<u4"),
            ("view_id", "<u4"),
            ("rect", "<u4", (4,)),
            ("emb", "<f4", (d,)),
        ]
    )


def save_index(index: PatchIndex, path: str) -> None:
    manifest_blob = json.dumps(index.manifest, sort_keys=True).encode("utf-8")
    n, d = index.embeddings.shape
    records = np.empty(n, dtype=_record_dtype(d))
    for name, column in (
        ("shape_id", index.shape_ids),
        ("view_id", index.view_ids),
        ("rect", index.rects),
    ):
        column = np.asarray(column)
        if column.size and (column.min() < 0 or column.max() >= 2**32):
            raise FormatError(f"{name} outside the u32 range [0, 2**32)")
        records[name] = column
    records["emb"] = index.embeddings
    header = (INDEX_VERSION, n, d, len(manifest_blob))
    with open(path, "wb") as fh:
        fh.write(pack(INDEX_MAGIC, header, manifest_blob, records))


def load_index(path: str) -> PatchIndex:
    with open(path, "rb") as fh:
        reader = Reader(fh.read(), "index", INDEX_MAGIC)
    version, n, d, mlen = reader.u32(4, "header")
    if version != INDEX_VERSION:
        raise FormatError(f"unsupported index version {version}")
    manifest = decode_json(reader.take(mlen, "manifest"), "index manifest")
    try:
        dtype = _record_dtype(d)
    except ValueError as exc:  # d too large for a numpy dtype
        raise FormatError(f"unsupported embedding dimension {d}") from exc
    records = reader.array(dtype, n, "records")
    reader.end()
    return PatchIndex(
        embeddings=reader.finite(records["emb"].astype(np.float32), "records"),
        shape_ids=records["shape_id"].astype(np.int64),
        view_ids=records["view_id"].astype(np.int64),
        rects=records["rect"].astype(np.int64),
        manifest=manifest,
    )
