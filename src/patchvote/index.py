"""Immutable patch database and two-stage majority-vote retrieval.

Build: every database shape is rendered at each canonical view, patch
rects are sampled, empties dropped, and the shape tower embeds each
patch into a unit vector stored as f32. Retrieval: Kq query patches
vote; each patch elects the modal shape among its Kr nearest records,
and the object-level answer is the majority over patch winners, with
ties resolved by aggregate similarity then shape id.

Query state: the index is immutable, so what every query needs is
built once per PatchIndex object, on first use, and reused: a
C-contiguous f64 copy of the embeddings (the matrix every kNN scores)
and a map from category to the sorted ids of its records (the subset a
category-conditioned query searches).

Exact top-k: each query patch is scored with one mat-vec over the
searched records, so every similarity is the same f64 value a full
scan gives. np.partition finds the k-th highest similarity, and only
the records at or above it, every record tied with the k-th included,
are sorted by (similarity descending, record id ascending). The result
is the first k of that order, identical to a full sort of all records.

File format (little-endian): magic, version, record count n, dimension
d, manifest length and UTF-8 JSON manifest, then n packed records of
shape id, view id and rect x, y, w, h as u32 followed by d f32
embedding values. Records are read and written as one block.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import Config, from_dict, to_dict
from .descriptor import PatchRect, content_rect, sample_patches
from .embed import TowerParams, image_patch_features, shape_patch_features, tower_forward
from .errors import EmptyIndexError, FormatError, NoRetrievalError, RenderError
from .mesh import TriMesh
from .render import ShadedRender, rasterize, scene_light
from .views import ViewSet

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
        return self.manifest["shapes"][str(shape_id)]["category"]

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


def derive_seed(base: int, shape_id: int, view_id: int) -> int:
    """Stable per-(shape, view) stream, independent of build order."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=(shape_id, view_id))
    return int(ss.generate_state(1)[0])


def enumerate_view_patches(
    shapes: dict[int, TriMesh],
    views: ViewSet,
    patches_per_view: int,
    cfg: Config,
):
    """Yield (shape_id, view_id, normal map, non-empty rects) per rendered view.

    The single source of record identity: index construction and training
    corpus assembly both consume this, so record ids line up by position.
    Views with an empty projection are skipped, as are empty patches.
    Every rect is anchored to its content centroid before use (see
    content_rect), with the noiseless shading as the weight so the
    placement matches what the image domain computes from a photograph
    of the same surface. Rects that collapse onto the same placement
    are deduplicated, so patches_per_view is an upper bound per view.
    """
    light = scene_light()
    for sid in sorted(shapes):
        mesh = shapes[sid]
        for vid, view in enumerate(views.medoids):
            try:
                nmap = rasterize(mesh, view, cfg.render_resolution)
            except RenderError:
                continue  # a fully empty view costs records, not the build
            patch_seed = derive_seed(cfg.seed, sid, vid)
            patches = sample_patches(
                nmap, cfg.patch_fraction, patches_per_view, patch_seed,
                cfg.min_coverage,
            )
            lambert = np.maximum(0.0, nmap.normals @ light)
            lambert[~nmap.mask] = 0.0
            kept = []
            seen = set()
            for r in patches:
                if r.empty:
                    continue
                snapped = content_rect(lambert, nmap.mask, r)
                if (snapped.x, snapped.y) not in seen:
                    seen.add((snapped.x, snapped.y))
                    kept.append(snapped)
            if kept:
                yield sid, vid, nmap, kept


def build_index(
    shapes: dict[int, TriMesh],
    views: ViewSet,
    model: TowerParams,
    patches_per_view: int,
    cfg: Config,
    mesh_paths: dict[int, str] | None = None,
) -> PatchIndex:
    """Render, sample, and embed every shape x view into one flat index."""
    if not shapes:
        raise EmptyIndexError("no shapes to index")
    embeddings = []
    shape_ids = []
    view_ids = []
    rects = []
    for sid, vid, nmap, kept in enumerate_view_patches(
        shapes, views, patches_per_view, cfg
    ):
        feats = [
            shape_patch_features(nmap.normals, r, cfg.pool_size) for r in kept
        ]
        Y = tower_forward(model.shape, np.stack(feats)).Y
        embeddings.append(Y.astype(np.float32))
        for r in kept:
            shape_ids.append(sid)
            view_ids.append(vid)
            rects.append((r.x, r.y, r.w, r.h))
    if not embeddings:
        raise EmptyIndexError("index build produced no records")
    manifest = {
        "shapes": {
            str(sid): {
                "category": shapes[sid].category,
                "obj": (mesh_paths or {}).get(sid, ""),
            }
            for sid in sorted(shapes)
        },
        "views": {
            "n": len(views.medoids),
            "medoids": [[float(c) for c in q] for q in views.medoids],
            "seed": views.seed,
            "source_size": views.source_size,
        },
        "config": to_dict(cfg),
        "patches_per_view": patches_per_view,
    }
    return PatchIndex(
        embeddings=np.vstack(embeddings),
        shape_ids=np.asarray(shape_ids, dtype=np.int64),
        view_ids=np.asarray(view_ids, dtype=np.int64),
        rects=np.asarray(rects, dtype=np.int64),
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
    emb = index.embeddings_f64 if subset is None else index.embeddings_f64[ids]
    sims = emb @ np.asarray(query, dtype=np.float64)
    neg = -sims
    keep = np.arange(len(ids))
    if k < len(ids):
        # candidates: every record at or above the k-th highest similarity,
        # ties with it included, so sorting them gives the exact full order;
        # a NaN compares false and stays too, and sorts last as in a full sort
        kth = np.partition(neg, k - 1)[k - 1]
        keep = np.flatnonzero(~(neg > kth))
    order = keep[np.lexsort((ids[keep], neg[keep]))[:k]]
    return [(int(ids[i]), float(sims[i])) for i in order]


@dataclass
class PatchVote:
    rect: PatchRect
    winner: int
    best_similarity: float
    neighbors: list[tuple[int, float]]


@dataclass
class RetrievalResult:
    ranking: list[tuple[int, int, float]]  # (shape_id, votes, aggregate)
    patch_votes: list[PatchVote] = field(default_factory=list)
    excluded_patches: int = 0

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
    cfg = cfg or from_dict(index.manifest["config"])

    subset = None
    if category is not None:
        subset = index.category_records.get(category, np.empty(0, dtype=np.int64))
    patches = sample_patches(
        query_raster, cfg.patch_fraction, kq, seed, cfg.min_coverage
    )
    survivors = []
    for r in patches:
        overlap = instance_mask[r.y : r.y + r.h, r.x : r.x + r.w].any()
        if overlap:
            survivors.append(
                content_rect(query_raster.intensity, query_raster.mask, r)
            )
    if not survivors:
        raise NoRetrievalError("every query patch was excluded")

    feats = np.stack(
        [
            image_patch_features(query_raster.intensity, r, cfg.pool_size)
            for r in survivors
        ]
    )
    Y = tower_forward(model.image, feats).Y

    votes: list[PatchVote] = []
    seen_shapes: set[int] = set()
    for r, y in zip(survivors, Y):
        neighbors = knn_query(index, y, kr, subset=subset)
        winner, best = _elect(neighbors, index.shape_ids)
        votes.append(
            PatchVote(rect=r, winner=winner, best_similarity=best, neighbors=neighbors)
        )
        seen_shapes.update(int(index.shape_ids[rid]) for rid, _ in neighbors)

    counts: dict[int, int] = {}
    aggregates: dict[int, float] = {}
    for v in votes:
        counts[v.winner] = counts.get(v.winner, 0) + 1
        aggregates[v.winner] = aggregates.get(v.winner, 0.0) + v.best_similarity
    for sid in seen_shapes:
        counts.setdefault(sid, 0)
        aggregates.setdefault(sid, 0.0)
    ranking = sorted(
        ((sid, n, aggregates[sid]) for sid, n in counts.items()),
        key=lambda row: (-row[1], -row[2], row[0]),
    )
    return RetrievalResult(
        ranking=ranking,
        patch_votes=votes,
        excluded_patches=len(patches) - len(survivors),
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
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<III", INDEX_VERSION, n, d))
        fh.write(struct.pack("<I", len(manifest_blob)))
        fh.write(manifest_blob)
        fh.write(records.tobytes())


def load_index(path: str) -> PatchIndex:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != INDEX_MAGIC:
        raise FormatError("not an index file (bad magic)")
    if len(buf) < 20:
        raise FormatError("truncated index header")
    version, n, d = struct.unpack_from("<III", buf, 4)
    if version != INDEX_VERSION:
        raise FormatError(f"unsupported index version {version}")
    (mlen,) = struct.unpack_from("<I", buf, 16)
    offset = 20
    if offset + mlen > len(buf):
        raise FormatError("truncated index manifest")
    try:
        manifest = json.loads(buf[offset : offset + mlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"index manifest is not UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("index manifest is not a JSON object")
    offset += mlen
    try:
        dtype = _record_dtype(d)
    except ValueError as exc:  # d too large for a numpy dtype
        raise FormatError(f"unsupported embedding dimension {d}") from exc
    if len(buf) - offset != n * dtype.itemsize:
        raise FormatError(
            f"index payload size {len(buf) - offset} != expected {n * dtype.itemsize}"
        )
    records = np.frombuffer(buf, dtype=dtype, count=n, offset=offset)
    return PatchIndex(
        embeddings=records["emb"].astype(np.float32),
        shape_ids=records["shape_id"].astype(np.int64),
        view_ids=records["view_id"].astype(np.int64),
        rects=records["rect"].astype(np.int64),
        manifest=manifest,
    )
