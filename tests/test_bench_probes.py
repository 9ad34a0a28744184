"""The benchmark's trace probes run against the package as it is.

perfbench/workloads.py attaches probes to package boundaries; each one
reads the arguments or the result of a call. A change to a signature or
a result type a probe reads breaks the probe only inside a traced
benchmark run, so this runs the probes over retrieval on a micro index.
"""

import sys
from pathlib import Path

import numpy as np

import patchvote.index
from test_index import retrieval_fixture, unit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402
from workloads import PROBES  # noqa: E402


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
