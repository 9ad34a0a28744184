"""Immutable patch database and two-stage majority-vote retrieval.

Build: every database shape is rendered at each canonical view, patch
rects are sampled, those under the coverage floor dropped, and the
shape tower embeds each patch into a unit vector stored as f32. Each
view is one batched pass: its rects are sampled, snapped to content
and pooled together (see descriptor and embed), as are the at most Kq
patches of a query.

Shared renders: the training corpus (experiment.build_corpus) and the
index draw their shape-domain records at the same canonical views, so
one pipeline rasterizes each (shape, canonical view) once with
`render_views` and hands both passes of `enumerate_view_patches` the
result. What is held between the passes is each render's triangle-id
map, one byte a pixel for a mesh of at most 128 triangles, not its
f32 normals: a pass rebuilds the normals and the mask from it with
`render.normal_map`, bit for bit, as it reaches the view. A render is
reused only for the identical shape and view quaternion; jittered
index views render their own. The corpus's anchor views are one pass
each as well (see build_corpus).

Retrieval: Kq query patches vote; each patch elects the modal shape
among its Kr nearest records, and the object-level answer is the
majority over patch winners, with ties resolved by aggregate
similarity then shape id. The vote is array code: the patches'
neighbours stack into (P, Kr) shape-id and similarity arrays, every
patch's winner comes from one `bincount` of votes and one of summed
similarity, and the ranking from one `bincount` of winners and one
`lexsort`. A weighted `bincount` adds in input order, so every sum is
the same f64 value a sequential sum in neighbour or patch order gives.

Query state: the index is immutable, so what every query needs is
built once per PatchIndex object, on first use, and reused: one map
from a search scope (a category, or None for the whole index) to its
record ids and a C-contiguous f64 block of their rows. A query's
patches are scored together against its scope's rows, read in place: a
conditioned query reads its category's rows and gathers nothing.

Exact top-k: a query's patches are scored as one (P, d) block with one
matrix product against the searched rows, and a one-row block is
scored as two, so every similarity comes from gemm. Against the
C-contiguous (n, d) rows a scope holds, the OpenBLAS that numpy wheels
ship sums each gemm entry's d products in an order that does not
depend on the product's other rows or columns, so a record scores the
same f64 value in its category's search as in the whole index's, and a
patch the same in a block of any size as alone; tests/test_index.py
holds both. gemv does not: over a category's rows it rounds many
records apart from gemv over the whole index. The top-k then runs once
per block, exact and with ties to the lower record id (embed._top_k).

File format (little-endian, framed by `artifact`): magic, version,
record count n, dimension d, manifest length and UTF-8 JSON manifest,
then four column blocks: shape ids (n u32), view ids (n u32), rects
((n, 4) u32: x, y, w, h) and embeddings ((n, d) f32). The writer pads
the manifest with trailing spaces, which JSON ignores, so the first
block starts at a multiple of 8 bytes; each block's items are 4 bytes
and the two id blocks together 8n, so every block is aligned for its
items, and the rect and embedding blocks start on 8-byte boundaries.
The reader takes the file as one buffer: the embeddings are a view of
it, checked finite in place, and each id or rect block is widened to
int64 in one pass. A file without the padding loads the same arrays,
unaligned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifact import Reader, decode_json, f4, finite, pack, read_file
from .config import Config, to_dict
from .descriptor import content_rect, coverage, rect_windows, sample_patches
from .embed import (
    TowerParams,
    _top_k,
    image_patch_features,
    shape_patch_features,
    tower_forward,
)
from .errors import EmptyIndexError, FormatError, NoRetrievalError, RenderError
from .mesh import TriMesh
from .render import NormalMap, ShadedRender, lambert, normal_map, rasterize
from .views import ViewSet

INDEX_MAGIC = b"P2CI"
INDEX_VERSION = 2
_HEADER_BYTES = len(INDEX_MAGIC) + 4 * 4  # magic and four u32 header fields


@dataclass
class PatchIndex:
    # (N, d) float32 unit rows; from load_index, a writable view of the file's buffer
    embeddings: np.ndarray
    shape_ids: np.ndarray   # (N,) int64
    view_ids: np.ndarray    # (N,) int64
    rects: np.ndarray       # (N, 4) int64: x, y, w, h
    manifest: dict          # shapes, views, config, build inputs

    def __len__(self) -> int:
        return len(self.embeddings)

    @cached_property
    def category_records(self) -> dict[str, np.ndarray]:
        """Category -> sorted ids of the records of its shapes.

        Each shape's category is read from the manifest, which must list
        it as a str; anything else is a FormatError.
        """
        shapes: dict[str, list[int]] = {}
        for sid in np.unique(self.shape_ids).tolist():
            try:
                category = self.manifest["shapes"][str(sid)]["category"]
            # indexing decoded JSON: an absent key, or a value not a dict
            except (KeyError, TypeError) as exc:
                raise FormatError(
                    f"index manifest: missing or malformed field: {exc!r}"
                ) from exc
            if not isinstance(category, str):
                raise FormatError(f"index manifest: shape {sid} category is not a str")
            shapes.setdefault(category, []).append(sid)
        return {
            cat: np.flatnonzero(np.isin(self.shape_ids, sids))
            for cat, sids in shapes.items()
        }

    @cached_property
    def _scopes(self) -> dict[str | None, tuple[np.ndarray, np.ndarray]]:
        return {}

    def scope(self, category: str | None) -> tuple[np.ndarray, np.ndarray]:
        """Record ids a query of `category` searches and their f64 rows.

        None is the whole index. The rows are a C-contiguous f64 block in
        id order, built on first use and cached.
        """
        scope = self._scopes.get(category)
        if scope is None:
            if category is None:
                ids = np.arange(len(self))
            elif category in self.category_records:
                ids = self.category_records[category]
            else:
                raise EmptyIndexError(f"no records of category {category!r}")
            rows = np.ascontiguousarray(self.embeddings[ids], dtype=np.float64)
            scope = self._scopes[category] = (ids, rows)
        return scope


def derive_seed(base: int, shape_id: int, view_id: int) -> int:
    """Stable per-(shape, view) stream, independent of build order."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=(shape_id, view_id))
    return int(ss.generate_state(1)[0])


# held renders: (shape id, view quaternion bytes) -> the render's (res, res)
# triangle-id map (NormalMap.tri_ids), None if the view is empty
Renders = dict[tuple[int, bytes], np.ndarray | None]


def render_views(shapes: dict[int, TriMesh], views: ViewSet, resolution: int) -> Renders:
    """Triangle-id map of every shape at every view, to share between passes.

    Keyed by (shape id, view quaternion as f64 bytes), so a pass reuses a
    render only for the identical shape and view. A view with an empty
    projection maps to None. Each held map is `rasterize`'s tri_ids, in
    the smallest signed dtype that holds -1 and the mesh's triangle ids;
    `render.normal_map` rebuilds the render's normals and mask from it.
    """
    renders: Renders = {}
    for sid in sorted(shapes):
        for view in views.medoids:
            nmap = _render(shapes[sid], view, resolution)
            renders[_render_key(sid, view)] = None if nmap is None else nmap.tri_ids
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
    experiment._CANDIDATE_PATCHES (64) per canonical view, the index
    index_patches_per_view (256 by default) per canonical or jittered
    view (experiment.augment_views), so a corpus candidate's position is
    not an index record id.

    Views with an empty projection are skipped, as are rects whose mask
    coverage is below cfg.min_coverage. Every rect is anchored to its
    content centroid before use (see content_rect), with the noiseless
    shading (render.lambert) as the weight so the placement matches
    what the image domain computes from a photograph of the same
    surface. Rects that collapse onto one snapped corner are
    deduplicated, keeping the first in sample order, so
    patches_per_view is an upper bound per view.

    A view found in `renders` (see render_views) is not rasterized
    again: its normal map is rebuilt from the held triangle ids. Any
    other view is rendered here and not kept.
    """
    renders = renders or {}
    for sid in sorted(shapes):
        mesh = shapes[sid]
        for vid, view in enumerate(views.medoids):
            key = _render_key(sid, view)
            if key in renders:
                tri_ids = renders[key]
                nmap = None if tri_ids is None else normal_map(mesh, tri_ids)
            else:
                nmap = _render(mesh, view, cfg.render_resolution)
            if nmap is None:
                continue
            rects = sample_patches(
                nmap, cfg.patch_fraction, patches_per_view,
                derive_seed(cfg.seed, sid, vid),
            )
            rects = rects[coverage(nmap.mask, rects) >= cfg.min_coverage]
            if not len(rects):
                continue
            rects = content_rect(lambert(nmap), nmap.mask, rects)
            # the first rect at each snapped corner, in sample order
            _, first = np.unique(rects[:, :2], axis=0, return_index=True)
            rects = rects[np.sort(first)]
            feats = shape_patch_features(nmap.normals, rects, cfg.pool_size)
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
        # the one place a view grid is written to disk: the rotations a
        # record's view id indexes, as ViewSet holds them
        "views": {"medoids": [[float(c) for c in q] for q in views.medoids]},
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
    category: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by cosine similarity; ties break to the lower record id.

    `query` is a block of P embeddings (P, d). Returns the record ids
    and their similarities, best first, as (P, k) arrays, fewer than k
    columns when the search holds fewer records. A `category` restricts
    the search to the records of its shapes (category-conditioned
    retrieval); None searches the whole index.
    """
    if len(index) == 0:
        raise EmptyIndexError("index holds no records")
    if k < 1:
        raise ValueError("k must be >= 1")
    block = np.asarray(query, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"query must be a (P, d) block, not shape {block.shape}")
    ids, rows = index.scope(category)
    # numpy scores a one-row product with gemv, whose sums can round
    # apart from gemm's; a doubled row keeps every product on gemm
    scored = np.vstack((block, block)) if len(block) == 1 else block
    sims = (scored @ rows.T)[: len(block)]
    top = _top_k(sims, ids, k)
    return ids[top], np.take_along_axis(sims, top, axis=1)


@dataclass
class RetrievalResult:
    ranking: list[tuple[int, int, float]]  # (shape_id, votes, aggregate)
    excluded_patches: int

    def ranked_ids(self) -> list[int]:
        return [sid for sid, _, _ in self.ranking]


def _tally(neighbor_shapes: np.ndarray, sims: np.ndarray) -> list[tuple[int, int, float]]:
    """Ranking of a vote: (shape id, votes, aggregate) rows, best first.

    Row p of the (P, Kr) arrays holds patch p's neighbours in order.
    Each patch elects the shape with the most neighbours, then the
    largest similarity summed in neighbour order, then the lower id; the
    winner gains one vote and its best neighbour's similarity. Every
    shape among the neighbours is ranked, by votes, then aggregate
    (both descending), then id.
    """
    shapes, col = np.unique(neighbor_shapes, return_inverse=True)
    col = col.reshape(sims.shape)  # column of each neighbour's shape in `shapes`
    P, m = len(sims), len(shapes)
    cell = (np.arange(P)[:, None] * m + col).ravel()
    counts = np.bincount(cell, minlength=P * m).reshape(P, m)
    summed = np.bincount(cell, sims.ravel(), minlength=P * m).reshape(P, m)
    modal = counts == counts.max(axis=1, keepdims=True)
    # argmax takes the first maximum: the lowest id among full ties
    winner = np.argmax(np.where(modal, summed, -np.inf), axis=1)
    best = np.where(col == winner[:, None], sims, -np.inf).max(axis=1)
    votes = np.bincount(winner, minlength=m)
    aggregate = np.bincount(winner, best, minlength=m)
    order = np.lexsort((shapes, -aggregate, -votes))
    return list(zip(
        shapes[order].tolist(), votes[order].tolist(), aggregate[order].tolist()
    ))


def retrieve_shape(
    index: PatchIndex,
    query_raster: ShadedRender,
    instance_mask: np.ndarray,
    model: TowerParams,
    kq: int,
    kr: int,
    seed: int,
    cfg: Config,
    category: str | None = None,
) -> RetrievalResult:
    """Two-stage majority vote over Kq query patches and Kr neighbors each.

    `cfg` sets the patch geometry and pooling; the caller passes the
    Config the index was built with (its manifest records it). A query
    patch votes when any of its pixels lies on the instance mask;
    `excluded_patches` counts only the patches off it. Unlike the index
    build, retrieval applies no coverage floor, so a patch that barely
    touches the instance still votes. A model whose image tower does not
    take the config's pooled features, or does not embed to the index's
    dimension, is a FormatError.
    """
    if kq < 1 or kr < 1:
        raise ValueError("kq and kr must be >= 1")
    if len(index) == 0:
        raise EmptyIndexError("index holds no records")
    d_in, d = model.image.W1.shape[0], model.image.W2.shape[1]
    if d_in != cfg.pool_size**2:
        raise FormatError(
            f"model image tower takes {d_in} features, but pool_size "
            f"{cfg.pool_size} pools {cfg.pool_size**2}"
        )
    if d != index.embeddings.shape[1]:
        raise FormatError(
            f"model embeds to d={d}, but the index holds "
            f"d={index.embeddings.shape[1]}"
        )

    patches = sample_patches(query_raster, cfg.patch_fraction, kq, seed)
    overlap = rect_windows(instance_mask, patches).any(axis=(1, 2))
    survivors = content_rect(
        query_raster.intensity, query_raster.mask, patches[overlap]
    )
    if not len(survivors):
        raise NoRetrievalError("every query patch was excluded")

    feats = image_patch_features(query_raster.intensity, survivors, cfg.pool_size)
    Y = tower_forward(model.image, feats).Y

    # all patches search the same scope as one (P, d) block: one product,
    # one top-k, and each patch's similarities are the bits it gets alone
    ids, sims = knn_query(index, Y, kr, category=category)
    ranking = _tally(index.shape_ids[ids], sims)
    return RetrievalResult(
        ranking=ranking, excluded_patches=len(patches) - len(survivors)
    )


# ---------------------------------------------------------------------------
# index file format


def save_index(index: PatchIndex, path: str) -> None:
    """Write the index as the column blocks the module docstring lays out.

    Refuses, before opening the file, what load_index would refuse: a
    manifest that is not a dict, columns whose shapes disagree with the
    (n, d) embeddings, ids or rects outside u32 and non-finite embeddings.
    """
    if not isinstance(index.manifest, dict):
        raise FormatError("index manifest is not a JSON object")
    shape = np.shape(index.embeddings)
    if len(shape) != 2:
        raise FormatError(f"index: embeddings of shape {shape}, expected (n, d)")
    n, d = shape
    blocks = []
    for name, part, column, want in (
        ("shape_id", "shape ids", index.shape_ids, (n,)),
        ("view_id", "view ids", index.view_ids, (n,)),
        ("rect", "rects", index.rects, (n, 4)),
    ):
        column = np.asarray(column)
        if column.shape != want:
            raise FormatError(f"index: {part} of shape {column.shape}, expected {want}")
        if column.size and (column.min() < 0 or column.max() >= 2**32):
            raise FormatError(f"{name} outside the u32 range [0, 2**32)")
        blocks.append(np.ascontiguousarray(column, dtype="<u4"))
    blocks += f4("index", "records", index.embeddings)
    manifest_blob = json.dumps(index.manifest, sort_keys=True).encode("utf-8")
    # trailing spaces, which JSON ignores, start the blocks on an 8-byte boundary
    manifest_blob += b" " * (-(_HEADER_BYTES + len(manifest_blob)) % 8)
    header = (INDEX_VERSION, n, d, len(manifest_blob))
    with open(path, "wb") as fh:
        fh.write(pack(INDEX_MAGIC, header, manifest_blob, *blocks))


def load_index(path: str) -> PatchIndex:
    reader = Reader(read_file(path), "index", INDEX_MAGIC)
    version, n, d, mlen = reader.u32(4, "header")
    if version != INDEX_VERSION:
        raise FormatError(f"unsupported index version {version}")
    manifest = decode_json(reader.take(mlen, "manifest"), "index manifest")
    shape_ids = reader.array("<u4", (n,), "shape ids").astype(np.int64)
    view_ids = reader.array("<u4", (n,), "view ids").astype(np.int64)
    rects = reader.array("<u4", (n, 4), "rects").astype(np.int64)
    embeddings = reader.array("<f4", (n, d), "embeddings")
    reader.end()
    return PatchIndex(
        embeddings=finite(embeddings, "index", "records"),
        shape_ids=shape_ids,
        view_ids=view_ids,
        rects=rects,
        manifest=manifest,
    )
