"""Fixtures shared by the micro-benchmarks."""

import numpy as np
import pytest

from patchvote.config import Config
from patchvote.embed import PatchCorpus, TowerParams, init_params
from patchvote.experiment import lit_init


@pytest.fixture(scope="session")
def towers() -> TowerParams:
    """Seeded towers of the pipeline's sizes under the default Config.

    The hidden width is the one experiment.lit_init builds, read from
    its towers over a one-anchor corpus, so the timed towers follow the
    pipeline's width. The weights are init_params' seeded draws. A
    benchmark that trains them works on a copy.
    """
    cfg = Config()
    p2 = cfg.pool_size**2
    one = PatchCorpus.from_lists(np.zeros((1, p2)), np.zeros((1, 3 * p2)), [[0]], [[0]])
    h = lit_init(cfg, one).image.W1.shape[1]
    return init_params(p2, 3 * p2, h, cfg.embed_dim, seed=0)
