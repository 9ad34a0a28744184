"""Which integer seeds two or more call sites share, pinned as they are today.

A seed passed to np.random.default_rng from two call sites gives both
the same stream: at seed 0, `embed.train` draws from the stream of
query 1's pixel noise, and `generate_benchmark` from the one
`init_params` draws the towers from. The groups below are today's
collisions on a tiny retrieval and pose run, so a new one fails here.
Seed streams that cannot collide (ROADMAP item 10) empty the constant.
"""

import sys
from collections import defaultdict

import numpy as np

from patchvote.config import Config
from patchvote.experiment import run_pose_experiment, run_retrieval_experiment

QUERY_STREAMS = {"descriptor:sample_patches", "render:shade"}
SHARED_SEEDS = {
    0: {
        "embed:init_params",
        "pose:init_pose_head",
        "render:shade",
        "synth:_build_pools",
        "synth:generate_benchmark",
    },
    1: QUERY_STREAMS | {"embed:train"},
    2: QUERY_STREAMS | {"pose:train_pose_head"},
    3: QUERY_STREAMS,
    4: QUERY_STREAMS,
    5: QUERY_STREAMS,
    6: QUERY_STREAMS,
    7: QUERY_STREAMS | {"experiment:build_corpus"},
    # rotation_grid: the rotation pool and its k-medoids start
    11: {"views:random_rotations", "views:kmedoids"},
    13: {"views:random_rotations", "views:kmedoids"},
}


def test_seeds_shared_between_call_sites(monkeypatch):
    real = np.random.default_rng
    sites = defaultdict(set)

    def recording(seed=None):
        caller = sys._getframe(1)
        module = caller.f_globals.get("__name__", "")
        if module.startswith("patchvote.") and isinstance(seed, (int, np.integer)):
            sites[int(seed)].add(f"{module[len('patchvote.'):]}:{caller.f_code.co_name}")
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    cfg = Config(
        num_views=4, render_resolution=48, pool_size=4, embed_dim=4, epochs=1, seed=0
    )
    _, _, bench = run_retrieval_experiment(
        cfg, num_shapes=4, leave_out=0.25, views_per_query=2
    )
    run_pose_experiment(bench, cfg)
    shared = {seed: s for seed, s in sites.items() if len(s) > 1}
    assert shared == SHARED_SEEDS
