"""The benchmark's trace probes run against the package as it is.

perfbench/workloads.py attaches probes to package boundaries; each one
reads the arguments or the result of a call. A change to a signature or
a result type a probe reads breaks the probe only inside a traced
benchmark run, so this runs the probes over an index build and over
retrieval on a micro index, and reads what the traced run reads of
training. The benchmark's own calls into the package are bound to the
package's signatures here too, so a signature change that would break
the benchmark fails this suite.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import patchvote.index
from patchvote.config import Config
from patchvote.embed import init_params, train
from patchvote.mesh import TriMesh
from patchvote.views import ViewSet, axis_angle_quat
from test_embed import he_start, tiny_corpus
from test_index import IDENTITY, retrieval_fixture, unit, unit_cube

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import PROBES, pos_beats_neg_frac  # noqa: E402


def test_probes_run_over_retrieval():
    idx, model, raster, cfg = retrieval_fixture(
        [unit([1, 1, 1, 1]), unit([1, 1, 0, 0]), unit([1, 0, 1, 1])], [0, 1, 1]
    )
    tracer = Tracer(probes=PROBES)
    with tracer:
        for category in ("chair", None):
            patchvote.index.retrieve_shape(
                idx, raster, raster.mask, model, 3, 2, seed=0, cfg=cfg,
                category=category,
            )
    assert dict(tracer.errors) == {}
    assert tracer.calls["index.retrieve_shape"] == 2
    # no kNN call scans more records than the index holds
    scanned = tracer.counts["index.knn_query.records_scanned"]
    assert 0 < scanned <= tracer.calls["index.knn_query"] * len(idx)
    assert tracer.counts["embed.tower_forward.rows"] > 0
    assert len(tracer.samples["vote_margin"]) == 2
    assert np.isfinite(tracer.root_seconds())


def test_probes_run_over_an_index_build():
    # a triangle seen face-on leaves rects below the coverage floor, and
    # seen edge-on renders nothing; a cube fills every view
    verts = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.5, 0.0]])
    shapes = {
        0: TriMesh(verts, np.array([[0, 1, 2]]), category="chair"),
        1: unit_cube(),
    }
    views = ViewSet(medoids=np.stack([IDENTITY, axis_angle_quat([0, 1, 0], np.pi / 2)]))
    model = init_params(64, 192, 8, 6, seed=0)
    tracer = Tracer(probes=PROBES)
    with tracer:
        idx = patchvote.index.build_index(
            shapes, views, model, 16, Config(render_resolution=48, pool_size=8)
        )
    # the edge-on triangle is the one error, and it is not a probe's
    assert dict(tracer.errors) == {"render.rasterize.RenderError": 1}
    rendered = tracer.calls["render.rasterize"] - 1
    assert rendered == 3
    # the probe counts every rect drawn, kept or not
    assert tracer.counts["index.sampled_rects"] == rendered * 16
    assert tracer.counts["index.records"] == len(idx) < rendered * 16


def test_training_readers_run_over_a_trained_corpus():
    # the traced run reads two things of training: the last history row's
    # loss and the share of anchors whose best positive beats every mined
    # negative under the trained model
    corpus = tiny_corpus(np.random.default_rng(0))
    cfg = Config(embed_dim=4, epochs=2, batch_size=4, negatives_keep=3, seed=0)
    tracer = Tracer(probes=PROBES)
    params = he_start(corpus, cfg)
    with tracer:
        history = train(corpus, cfg, params)
    assert dict(tracer.errors) == {}
    # two epochs of two batches of the six anchors
    assert tracer.calls["embed.nce_loss_and_grad"] == 4
    final_loss = history[-1][1]
    assert np.isfinite(final_loss) and final_loss > 0
    wins = pos_beats_neg_frac(corpus, params, cfg) * len(corpus.anchor_feats)
    assert wins == round(wins) and 0 <= wins <= len(corpus.anchor_feats)


def _imported(module: str, name: str):
    """What `from module import name` binds: a submodule or an attribute."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def unbound_package_calls(source: str) -> tuple[int, list[str]]:
    """The number of calls in `source` to a patchvote function or class,
    and one message per call that does not bind to its signature.

    A call is to the package when its callee is a name imported by
    `from patchvote... import name`, or an attribute of a module imported
    that way. Arguments are bound by count and keyword, not by value.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("patchvote"):
            for alias in node.names:
                bound[alias.asname or alias.name] = _imported(node.module, alias.name)
    count, problems = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in bound:
            target = bound[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and inspect.ismodule(bound.get(func.value.id))
        ):
            target = getattr(bound[func.value.id], func.attr, None)
        else:
            continue
        count += 1
        where = f"line {node.lineno}: {ast.unparse(func)}"
        if not callable(target):
            problems.append(f"{where}: no such function or class")
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            problems.append(f"{where}: unpacked arguments cannot be checked")
            continue
        try:
            inspect.signature(target).bind(
                *node.args, **{k.arg: k.value for k in node.keywords}
            )
        except TypeError as exc:
            problems.append(f"{where}: {exc}")
    return count, problems


def test_benchmark_calls_bind_to_the_package():
    count, problems = unbound_package_calls((PERFBENCH / "workloads.py").read_text())
    assert problems == []
    # the calls perfbench/workloads.py makes into the package today; a
    # benchmark change that adds or drops one updates this count
    assert count == 16


def test_a_call_that_does_not_bind_is_reported():
    planted = (
        "from patchvote import index\n"
        "from patchvote.config import Config\n"
        "Config(negatives_keep=8)\n"
        "Config(pose_bins=4)\n"
        "index.retrieve_shape(idx, r, r.mask, model, 9, 24, seed=0, cfg=cfg, categroy=c)\n"
        "index.load_index()\n"
        "index.retrieve(idx)\n"
        "index.save_index(*args)\n"
    )
    count, problems = unbound_package_calls(planted)
    assert count == 6
    assert problems == [
        "line 4: Config: got an unexpected keyword argument 'pose_bins'",
        "line 5: index.retrieve_shape: got an unexpected keyword argument 'categroy'",
        "line 6: index.load_index: missing a required argument: 'path'",
        "line 7: index.retrieve: no such function or class",
        "line 8: index.save_index: unpacked arguments cannot be checked",
    ]


@pytest.fixture
def tiny_fixture(monkeypatch):
    """workloads.make_fixture over 4 shapes, 2 views per query and tiny renders."""
    tiny = Config(num_views=4, render_resolution=48, pool_size=4, embed_dim=4, epochs=1)
    monkeypatch.setattr(workloads, "Config", lambda: tiny)
    monkeypatch.setattr(workloads, "EPOCHS", tiny.epochs)
    monkeypatch.setattr(workloads, "NUM_SHAPES", 4)
    monkeypatch.setattr(workloads, "VIEWS_PER_QUERY", 2)
    fx = workloads.make_fixture()
    assert fx.cfg == tiny and len(fx.queries) == 8
    return fx


def test_benchmark_workloads_run_on_a_tiny_fixture(tiny_fixture, tmp_path):
    """Both run modes of the benchmark, end to end, against the package as it is.

    This reads what the benchmark reads of the package's results (the
    query and model pairs, the training history, the corpus's label
    lists, the index columns), which binding its calls does not.
    """
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    art = workloads.Artifacts(tmp_path / "index.p2ci", tmp_path / "model.p2cm")
    checks = workloads.Checks()
    untraced = workloads.run_untraced("query", tiny_fixture, 1, 0.0, art, checks)
    traced = workloads.run_traced("query-all", tiny_fixture, 1, art, checks)
    # trace_spans_cover_wall compares the untraced and the traced wall time
    # of one unit of work, which host noise moves by more than its margin;
    # the benchmark's own runs keep applying it
    del checks.results["trace_spans_cover_wall"]
    assert checks.results == {
        name: True
        for name in (
            "index_rows_unit_norm",
            "index_file_roundtrip",
            "model_file_roundtrip",
            "ranking_sorted",
            "repeat_query_same_ranking",
            "rebuild_byte_identical",
            "recall_monotone_in_k",
            "trace_spans_nest",
        )
    }
    for outcome, declared in ((untraced, "end_to_end"), (traced, "per_layer")):
        names = [m["name"] for m in spec[declared]]
        assert [n for n in names if n not in outcome.metrics] == []
        assert all(np.isfinite(float(outcome.metrics[n])) for n in names)
        assert outcome.attempted > outcome.failed >= 0
