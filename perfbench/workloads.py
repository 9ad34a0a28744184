"""Fixed setup, timed operations and output checks of the patchvote benchmark.

Every workload shares one pinned setup: the synthetic benchmark of
seed CORPUS_SEED and `train_pipeline` over it with the default Config
except for EPOCHS, and with INDEX_PATCHES_PER_VIEW and INDEX_VIEW_JITTER
for the index. The workload seed only orders the closed-loop query
stream. Between corpus seeds at this size, recall@1 moved between 0.50
and 0.74 and latency by about a fifth (a corpus seed changes the
shapes, the index size and how alike the shapes of one category are),
which no bound could absorb, so the corpus stays pinned and every run
serves the same queries against the same records.

Every run builds its own index and model, writes them to files and
serves queries from the files it wrote, so the query workloads never
read an artifact of another commit or another run. One client sends
one query at a time (closed loop) from one process.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from patchvote import embed, experiment, index
from patchvote.config import Config, from_dict
from patchvote.errors import NoRetrievalError
from patchvote.metrics import build_report
from patchvote.render import ShadedRender
from patchvote.synth import Benchmark, generate_benchmark
from patchvote.views import ViewSet

from tracer import Tracer

CORPUS_SEED = 0
NUM_SHAPES = 6
VIEWS_PER_QUERY = 34  # 204 queries: a single pass leaves >= 10 samples past p95
EPOCHS = 2
INDEX_VIEW_JITTER = 0
INDEX_PATCHES_PER_VIEW = 128
BUILDS = 2
SETUP_REPS = 10  # timed loads before the stream; more run inside it
SETUP_EVERY = 34  # queries between two setup repetitions in the stream
RECALL_KS = (1, 5, 10)
UNIT_NORM_TOL = 1e-5


@dataclass
class Query:
    qid: int
    shaded: ShadedRender
    category: str
    gt: int
    seed: int


@dataclass
class Fixture:
    cfg: Config
    views: ViewSet
    bench: Benchmark
    queries: list[Query]


def make_fixture() -> Fixture:
    """Pinned corpus plus the query renders, which are never timed."""
    cfg = replace(Config(), epochs=EPOCHS, seed=CORPUS_SEED)
    views = experiment.select_views(cfg)
    bench = generate_benchmark(
        NUM_SHAPES, 0.0, VIEWS_PER_QUERY, CORPUS_SEED, base_views=views.medoids
    )
    queries = []
    for qi, q in enumerate(bench.queries):
        entry = bench.shapes[q.shape_id]
        shaded, _ = experiment.render_query(entry.mesh, q.view_quat, cfg, q.aug_seed)
        queries.append(
            Query(qi, shaded, entry.spec.category, q.gt_shape_id, q.aug_seed + 1)
        )
    return Fixture(cfg=cfg, views=views, bench=bench, queries=queries)


class Checks:
    """Named output checks; a name fails if any of its records failed."""

    def __init__(self):
        self.results: dict[str, bool] = {}

    def record(self, name: str, passed: bool) -> None:
        self.results[name] = self.results.get(name, True) and bool(passed)

    @property
    def ok(self) -> bool:
        return all(self.results.values())


def unit_rows(idx) -> bool:
    norms = np.linalg.norm(idx.embeddings.astype(np.float64), axis=1)
    return bool(np.all(np.abs(norms - 1.0) < UNIT_NORM_TOL))


def ranking_sorted(result) -> bool:
    keys = [(-votes, -agg, sid) for sid, votes, agg in result.ranking]
    return keys == sorted(keys)


def same_index(a, b) -> bool:
    return (
        np.array_equal(a.embeddings, b.embeddings)
        and np.array_equal(a.shape_ids, b.shape_ids)
        and np.array_equal(a.view_ids, b.view_ids)
        and np.array_equal(a.rects, b.rects)
        and a.manifest == b.manifest
    )


def same_model(model, loaded) -> bool:
    """The file keeps f32, so compare against the f32 rounding."""
    for name in ("image", "shape"):
        t, u = getattr(model, name), getattr(loaded, name)
        for arr in ("W1", "b1", "W2", "b2"):
            ref = getattr(t, arr).astype(np.float32).astype(np.float64)
            if not np.array_equal(ref, getattr(u, arr)):
                return False
    return True


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# operations


@dataclass
class Artifacts:
    index_path: Path
    model_path: Path


def build(fx: Fixture, views, art: Artifacts):
    """The offline pipeline: corpus, training, index build and both writes."""
    t0 = time.perf_counter()
    pipe = experiment.train_pipeline(
        fx.bench, fx.cfg, views=views, index_view_jitter=INDEX_VIEW_JITTER,
        index_patches_per_view=INDEX_PATCHES_PER_VIEW,
    )
    index.save_index(pipe.index, str(art.index_path))
    embed.save_model(pipe.model, str(art.model_path))
    return pipe, time.perf_counter() - t0


def load(art: Artifacts):
    idx = index.load_index(str(art.index_path))
    model, _ = embed.load_model(str(art.model_path))
    return idx, model


def verify_build(pipe, art: Artifacts, checks: Checks):
    """Load what the build wrote and compare it with the in-memory result."""
    checks.record("index_rows_unit_norm", unit_rows(pipe.index))
    idx, model = load(art)
    checks.record("index_file_roundtrip", same_index(pipe.index, idx))
    checks.record("model_file_roundtrip", same_model(pipe.model, model))


@dataclass
class Stream:
    latencies: list[float] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # qid -> result of its first serve
    setup_times: list[float] = field(default_factory=list)
    served: int = 0
    failed: int = 0
    wall: float = 0.0  # time serving, less the setup repetitions

    def recall(self, fx: Fixture) -> dict[int, float]:
        qids = sorted(self.first)
        report = build_report(
            [self.first[q] for q in qids], [fx.queries[q].gt for q in qids]
        )
        return {k: report.recall[k] for k in RECALL_KS}


def serve_stream(
    fx: Fixture, idx, model, order, conditioned: bool, seconds: float,
    checks: Checks, st: Stream, setup=None,
) -> Stream:
    """Closed loop with one client: each query is sent when the last returns.

    Continues `order` cyclically from where `st` left off until `seconds`
    have elapsed and at least one full pass is done, so every query is
    served at least once per call. A failed query (NoRetrievalError)
    scores a miss for recall. Every SETUP_EVERY queries, one timed
    repetition of `setup` runs between two queries.
    """
    cfg = from_dict(idx.manifest["config"])
    n = len(order)
    start, setup_s = st.served, 0.0
    t_start = time.perf_counter()
    while st.served - start < n or time.perf_counter() - t_start < seconds:
        if setup is not None and st.served % SETUP_EVERY == 0:
            st.setup_times += timed_reps(setup, 1)
            setup_s += st.setup_times[-1]
        q = fx.queries[order[st.served % n]]
        t0 = time.perf_counter()
        try:
            res = index.retrieve_shape(
                idx, q.shaded, q.shaded.mask, model, cfg.kq, cfg.kr,
                seed=q.seed, cfg=cfg,
                category=q.category if conditioned else None,
            )
        except NoRetrievalError:
            res = None
        st.latencies.append(time.perf_counter() - t0)
        st.served += 1
        if res is None:
            st.failed += 1
            st.first.setdefault(q.qid, [])
            continue
        checks.record("ranking_sorted", ranking_sorted(res))
        prev = st.first.setdefault(q.qid, res)
        if prev is not res:
            checks.record("repeat_query_same_ranking", prev.ranking == res.ranking)
    st.wall += time.perf_counter() - t_start - setup_s
    return st


def timed_reps(fn, reps: int) -> list[float]:
    """Seconds taken by each of `reps` calls of fn."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def seeded_order(n: int, seed: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    info: dict


def provenance(pipe, art: Artifacts) -> dict:
    return {
        "index_sha256": sha256_file(art.index_path),
        "model_sha256": sha256_file(art.model_path),
        "records": len(pipe.index),
    }


def run_untraced(
    workload: str, fx: Fixture, seed: int, seconds: float, art: Artifacts,
    checks: Checks,
) -> Outcome:
    """BUILDS cycles of build, setup and serving; `seconds` of serving in all.

    Setup is loading the index and model the cycle's build wrote:
    SETUP_REPS timed loads, then one more every SETUP_EVERY queries.
    Spreading each kind of sample over the whole run, rather than
    taking all builds first and all queries after, matters on a shared
    host: there the same code ran up to 1.9x slower for seconds at a
    time (one load took 16 ms or 30 ms), so a figure drawn from one
    stretch of the run moved with how slow that stretch happened to be.
    """
    order = seeded_order(len(fx.queries), seed)

    def setup():
        return load(art)

    stream = Stream()
    builds, index_hashes = [], set()
    for _ in range(BUILDS):
        pipe, dt = build(fx, fx.views, art)
        builds.append(dt)
        verify_build(pipe, art, checks)
        index_hashes.add(sha256_file(art.index_path))
        stream.setup_times += timed_reps(setup, SETUP_REPS)
        idx, model = load(art)
        serve_stream(
            fx, idx, model, order, workload == "query", seconds / BUILDS,
            checks, stream, setup=setup,
        )
    checks.record("rebuild_byte_identical", len(index_hashes) == 1)
    recall = stream.recall(fx)
    checks.record("recall_monotone_in_k", list(recall.values()) == sorted(recall.values()))
    # each cycle: one build, the load that verifies it and the load that serves
    attempted = len(builds) * 3 + len(stream.setup_times) + stream.served
    lat = np.asarray(stream.latencies)
    metrics = {
        "setup_s": statistics.median(stream.setup_times),
        "build_s": statistics.median(builds),
        "query_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "query_p95_ms": float(np.percentile(lat, 95)) * 1e3,
        "queries_per_s": stream.served / stream.wall,
        "recall_at_1": recall[1],
        "recall_at_5": recall[5],
        "recall_at_10": recall[10],
        "ok_frac": 1.0 - stream.failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "provenance": provenance(pipe, art),
        "samples": {
            "builds_s": builds,
            "setup_reps": len(stream.setup_times),
            "queries_served": stream.served,
            "distinct_queries": len(stream.first),
            "queries_beyond_p95": int(np.sum(lat > np.percentile(lat, 95))),
            "serving_s": stream.wall,
        },
    }
    return Outcome(metrics, attempted, stream.failed, info)


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def _sampled_in_build(tr, args, kwargs, result):
    if tr.inside("index.build_index"):
        tr.counts["index.sampled_rects"] += len(result)


def _tower_rows(tr, args, kwargs, result):
    tr.counts["embed.tower_forward.rows"] += len(result.Y)


def _knn_scanned(tr, args, kwargs, result):
    idx = args[0]
    subset = kwargs.get("subset", args[3] if len(args) > 3 else None)
    tr.counts["index.knn_query.records_scanned"] += (
        len(idx) if subset is None else len(subset)
    )


def _retrieval(tr, args, kwargs, result):
    tr.counts["index.retrieve.excluded_patches"] += result.excluded_patches
    votes = [v for _, v, _ in result.ranking]
    tr.samples["vote_margin"].append(votes[0] - (votes[1] if len(votes) > 1 else 0))


def _saved_bytes(tr, args, kwargs, result):
    tr.counts["index.save_index.bytes"] += os.path.getsize(args[1])


def _corpus(tr, args, kwargs, result):
    tr.samples["corpus"].append(result)


def _index_built(tr, args, kwargs, result):
    tr.counts["index.records"] += len(result)


PROBES = {
    "descriptor.sample_patches": _sampled_in_build,
    "embed.tower_forward": _tower_rows,
    "index.knn_query": _knn_scanned,
    "index.retrieve_shape": _retrieval,
    "index.save_index": _saved_bytes,
    "experiment.build_corpus": _corpus,
    "index.build_index": _index_built,
}


def pos_beats_neg_frac(corpus, model, cfg: Config) -> float:
    """Share of anchors whose best positive outscores every mined negative."""
    A = embed.tower_forward(model.image, corpus.anchor_feats).Y
    C = embed.tower_forward(model.shape, corpus.cand_feats).Y
    wins = 0
    for i, a in enumerate(A):
        neg = embed.mine_hard_negatives(
            a, corpus.neg_lists[i], C[corpus.neg_lists[i]], cfg.negatives_keep
        )
        if (C[corpus.pos_lists[i]] @ a).max() > (C[neg] @ a).max():
            wins += 1
    return wins / len(A)


def run_traced(
    workload: str, fx: Fixture, seed: int, art: Artifacts, checks: Checks
) -> Outcome:
    """One fixed unit of work, untraced and then traced.

    The unit is view selection, one build, loading the files it wrote
    and one pass of queries, so counts repeat exactly from run to run.
    """
    order = seeded_order(len(fx.queries), seed)

    def unit():
        views = experiment.select_views(fx.cfg)
        pipe, _ = build(fx, views, art)
        idx, model = load(art)
        stream = serve_stream(
            fx, idx, model, order, workload == "query", 0.0, checks, Stream()
        )
        return pipe, stream

    t0 = time.perf_counter()
    pipe, first = unit()
    untraced = time.perf_counter() - t0
    verify_build(pipe, art, checks)

    tracer = Tracer(probes=PROBES)
    with tracer:
        t0 = time.perf_counter()
        pipe, stream = unit()
        traced = time.perf_counter() - t0
    verify_build(pipe, art, checks)
    # each unit: view selection, one build, one load, one pass of queries
    attempted = 2 * 3 + first.served + stream.served
    failed = first.failed + stream.failed
    recall = stream.recall(fx)
    checks.record("recall_monotone_in_k", list(recall.values()) == sorted(recall.values()))

    overhead = traced - untraced
    uncovered = traced - tracer.root_seconds()
    checks.record("trace_spans_nest", tracer.check_nesting())
    # spans must account for the traced wall time, up to the overhead the
    # wrappers themselves add plus 5% for the benchmark's own loop code
    checks.record(
        "trace_spans_cover_wall", uncovered <= abs(overhead) + 0.05 * traced
    )

    totals = tracer.totals()
    calls = tracer.calls

    def s(name, key="s"):
        return totals.get(name, {}).get(key, 0.0)

    corpus = tracer.samples["corpus"][-1]
    margins = tracer.samples["vote_margin"]
    records = tracer.counts["index.records"]
    sampled = tracer.counts["index.sampled_rects"]
    metrics = {
        "render.rasterize.calls": calls["render.rasterize"],
        "render.rasterize.s": s("render.rasterize"),
        "render.rasterize.empty_views": tracer.errors["render.rasterize.RenderError"],
        "render.shade.calls": calls["render.shade"],
        "render.shade.s": s("render.shade"),
        "descriptor.content_rect.calls": calls["descriptor.content_rect"],
        "descriptor.content_rect.s": s("descriptor.content_rect"),
        "descriptor.sample_patches.calls": calls["descriptor.sample_patches"],
        "descriptor.sample_patches.s": s("descriptor.sample_patches"),
        "descriptor.self_similarity_histogram.calls": calls["descriptor.self_similarity_histogram"],
        "descriptor.self_similarity_histogram.s": s("descriptor.self_similarity_histogram"),
        "embed.pool_patch.calls": calls["embed.pool_patch"],
        "embed.pool_patch.s": s("embed.pool_patch"),
        "embed.shape_patch_features.calls": calls["embed.shape_patch_features"],
        "embed.shape_patch_features.s": s("embed.shape_patch_features"),
        "embed.image_patch_features.calls": calls["embed.image_patch_features"],
        "embed.image_patch_features.s": s("embed.image_patch_features"),
        "index.build_index.self_s": s("index.build_index", "self_s"),
        "index.enumerate_view_patches.self_s": s("index.enumerate_view_patches", "self_s"),
        "index.records": records,
        "index.kept_per_sampled": records / sampled if sampled else 0.0,
        "experiment.collect_candidates.s": s("experiment.collect_candidates"),
        "experiment.build_corpus.self_s": s("experiment.build_corpus", "self_s"),
        "experiment.corpus.anchors": len(corpus.anchor_feats),
        "experiment.corpus.skipped": corpus.skipped_anchors,
        "experiment.corpus.candidates": len(corpus.cand_feats),
        "embed.train.s": s("embed.train"),
        "embed.train.epoch_s": s("embed.train") / fx.cfg.epochs,
        "embed.train.final_loss": pipe.history[-1][1],
        "embed.train.pos_beats_neg_frac": pos_beats_neg_frac(corpus, pipe.model, fx.cfg),
        "embed.nce_loss_and_grad.calls": calls["embed.nce_loss_and_grad"],
        "embed.nce_loss_and_grad.s": s("embed.nce_loss_and_grad"),
        "embed.mine_hard_negatives.calls": calls["embed.mine_hard_negatives"],
        "embed.mine_hard_negatives.s": s("embed.mine_hard_negatives"),
        "embed.tower_forward.calls": calls["embed.tower_forward"],
        "embed.tower_forward.rows": tracer.counts["embed.tower_forward.rows"],
        "embed.tower_forward.s": s("embed.tower_forward"),
        "index.retrieve_shape.calls": calls["index.retrieve_shape"],
        "index.retrieve_shape.s": s("index.retrieve_shape"),
        "index.retrieve_shape.self_s": s("index.retrieve_shape", "self_s"),
        "index.knn_query.calls": calls["index.knn_query"],
        "index.knn_query.s": s("index.knn_query"),
        "index.knn_query.records_scanned": tracer.counts["index.knn_query.records_scanned"],
        "index.retrieve.excluded_patches": tracer.counts["index.retrieve.excluded_patches"],
        "index.retrieve.vote_margin_p50": float(np.median(margins)) if margins else 0.0,
        "index.load_index.s": s("index.load_index"),
        "embed.load_model.s": s("embed.load_model"),
        "index.save_index.s": s("index.save_index"),
        "index.save_index.bytes": tracer.counts["index.save_index.bytes"],
        "embed.save_model.s": s("embed.save_model"),
        "experiment.select_views.s": s("experiment.select_views"),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": overhead,
        "trace.spans": len(tracer.spans),
    }
    info = {
        "provenance": provenance(pipe, art),
        "trace": {
            "untraced_s": untraced,
            "traced_s": traced,
            "overhead_s": overhead,
            "uncovered_s": uncovered,
            "spans": len(tracer.spans),
            "errors": dict(tracer.errors),
            "self_s_by_span": {k: v["self_s"] for k, v in sorted(totals.items())},
        },
    }
    return Outcome(metrics, attempted, failed, info)
