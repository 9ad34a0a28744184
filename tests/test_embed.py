import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp

from patchvote import embed
from patchvote.config import Config, validate
from patchvote.embed import (
    EpochStats,
    PatchCorpus,
    Tower,
    TowerParams,
    TrainingBatch,
    _run_means,
    image_patch_features,
    init_params,
    load_model,
    mine_hard_negatives,
    nce_loss_and_grad,
    save_model,
    shape_patch_features,
    tower_backward,
    tower_forward,
    train,
)
from patchvote.errors import FormatError, TrainingError

mp.dps = 50


def identity_params(d_anchor: int, d_cand: int) -> TowerParams:
    """Towers that pass nonnegative inputs straight to normalization."""

    def ident(n: int) -> Tower:
        return Tower(
            W1=np.eye(n), b1=np.zeros(n), W2=np.eye(n), b2=np.zeros(n)
        )

    return TowerParams(image=ident(d_anchor), shape=ident(d_cand))


def runs_batch(anchor_feats, cand_feats, pos_lists, neg_lists) -> TrainingBatch:
    """A TrainingBatch whose runs are the given per-anchor id lists."""
    return TrainingBatch(
        anchor_feats=anchor_feats,
        cand_feats=cand_feats,
        pos_ids=np.concatenate(pos_lists),
        pos_counts=np.array([len(p) for p in pos_lists]),
        neg_ids=np.concatenate(neg_lists),
        neg_counts=np.array([len(n) for n in neg_lists]),
    )


def unit2(c: float) -> np.ndarray:
    """2D unit vector with first component c (cosine c against e1)."""
    return np.array([c, np.sqrt(1.0 - c * c)])


class TestForward:
    def test_output_unit_norm(self):
        params = init_params(8, 12, 6, 4, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = tower_forward(params.image, rng.normal(size=8)).Y[0]
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-6)
            y = tower_forward(params.shape, rng.normal(size=12)).Y[0]
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-6)

    def test_constant_map_returns_e1(self):
        t = Tower(
            W1=np.zeros((5, 3)),
            b1=np.zeros(3),
            W2=np.zeros((3, 4)),
            b2=np.array([1.0, 0.0, 0.0, 0.0]),
        )
        for x in (np.zeros(5), np.ones(5), np.arange(5.0)):
            np.testing.assert_allclose(
                tower_forward(t, x).Y[0], [1, 0, 0, 0], atol=1e-12
            )

    def test_zero_prenorm_epsilon_rule(self):
        t = Tower(W1=np.zeros((4, 3)), b1=np.zeros(3), W2=np.zeros((3, 2)), b2=np.zeros(2))
        y = tower_forward(t, np.ones(4)).Y[0]
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_purity(self):
        params = init_params(6, 6, 4, 3, seed=2)
        x = np.random.default_rng(3).normal(size=6)
        np.testing.assert_array_equal(
            tower_forward(params.image, x).Y[0], tower_forward(params.image, x).Y[0]
        )

    def test_dimension_mismatch(self):
        params = init_params(6, 9, 4, 3, seed=2)
        with pytest.raises(ValueError, match="d_in"):
            tower_forward(params.image, np.zeros(7))


class TestLossOracle:
    """Expected values re-derived with 50-digit arithmetic."""

    def setup_method(self):
        self.cfg = Config()

    def batch(self, pos_cos, neg_cos):
        cands = [unit2(c) for c in pos_cos] + [unit2(c) for c in neg_cos]
        return runs_batch(
            anchor_feats=np.array([[1.0, 0.0]]),
            cand_feats=np.array(cands),
            pos_lists=[np.arange(len(pos_cos))],
            neg_lists=[np.arange(len(pos_cos), len(pos_cos) + len(neg_cos))],
        )

    def test_single_pos_single_neg(self):
        params = identity_params(2, 2)
        loss, _ = nce_loss_and_grad(params, self.batch([0.9], [0.1]), self.cfg)
        expect = mp.log(1 + 24 * mp.exp(mp.mpf(1) / mp.mpf("0.15") / 10 - 6))
        # exponent: 0.1/0.15 - 0.9/0.15 = -16/3
        expect = mp.log(1 + 24 * mp.exp(-mp.mpf(16) / 3))
        assert loss == pytest.approx(float(expect), abs=1e-6)
        assert loss == pytest.approx(0.1096, abs=5e-5)

    def test_two_positives_averaged(self):
        params = identity_params(2, 2)
        loss, _ = nce_loss_and_grad(params, self.batch([0.9, 0.3], [0.1]), self.cfg)
        dp = (mp.exp(6) + mp.exp(2)) / 2
        dn = mp.exp(mp.mpf(2) / 3)
        expect = -mp.log(dp / (dp + 24 * dn))
        assert loss == pytest.approx(float(expect), abs=1e-6)
        assert loss == pytest.approx(0.2050, abs=5e-5)

    def test_symmetric_case_is_ln2(self):
        params = identity_params(2, 2)
        cfg = replace(self.cfg, weight_c=1.0)
        loss, _ = nce_loss_and_grad(params, self.batch([0.5], [0.5]), cfg)
        assert loss == pytest.approx(float(mp.log(2)), abs=1e-9)

    def test_loss_positive_with_any_negative(self):
        rng = np.random.default_rng(7)
        cfg = self.cfg
        for seed in range(5):
            params = init_params(6, 9, 5, 4, seed=seed)
            batch = runs_batch(
                anchor_feats=rng.normal(size=(4, 6)),
                cand_feats=rng.normal(size=(10, 9)),
                pos_lists=[rng.choice(10, 3, replace=False) for _ in range(4)],
                neg_lists=[rng.choice(10, 4, replace=False) for _ in range(4)],
            )
            loss, _ = nce_loss_and_grad(params, batch, cfg)
            assert loss > 0


def numeric_gradient(params, batch, cfg, step=1e-4):
    out = []
    for t in (params.image, params.shape):
        tower_grads = []
        for arr in (t.W1, t.b1, t.W2, t.b2):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + step
                lp, _ = nce_loss_and_grad(params, batch, cfg)
                arr[idx] = old - step
                lm, _ = nce_loss_and_grad(params, batch, cfg)
                arr[idx] = old
                g[idx] = (lp - lm) / (2 * step)
            tower_grads.append(g)
        out.append(tower_grads)
    return out


def max_rel_error(params, batch, cfg):
    _, grad = nce_loss_and_grad(params, batch, cfg)
    numeric = numeric_gradient(params, batch, cfg)
    worst = 0.0
    analytic = [
        [grad.image.W1, grad.image.b1, grad.image.W2, grad.image.b2],
        [grad.shape.W1, grad.shape.b1, grad.shape.W2, grad.shape.b2],
    ]
    for tg, ng in zip(analytic, numeric):
        for a, n in zip(tg, ng):
            rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float(rel.max()))
    return worst


def random_batch(rng, n_anchors=8, n_cands=12, d_img=6, d_shape=9):
    return runs_batch(
        anchor_feats=rng.normal(size=(n_anchors, d_img)),
        cand_feats=rng.normal(size=(n_cands, d_shape)),
        pos_lists=[rng.choice(n_cands, 2, replace=False) for _ in range(n_anchors)],
        neg_lists=[rng.choice(n_cands, 3, replace=False) for _ in range(n_anchors)],
    )


def randomize_biases(params, rng, scale=0.1):
    """Keep pre-normalization vectors away from the epsilon-rule kink.

    Zero biases plus a dead ReLU row make the pre-normalization vector
    exactly zero, where the true loss is discontinuous and finite
    differences are meaningless.
    """
    for t in (params.image, params.shape):
        t.b1 += rng.normal(0.0, scale, size=t.b1.shape)
        t.b2 += rng.normal(0.0, scale, size=t.b2.shape)
    return params


class TestGradient:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        cfg = Config()
        params = randomize_biases(init_params(6, 9, 5, 4, seed=11), rng)
        batch = random_batch(rng)
        assert max_rel_error(params, batch, cfg) < 1e-3

    def test_epsilon_fixed_row_backward_matches_oracle(self):
        """A zero pre-normalization row goes through the backward pass
        divided by the norm of its epsilon-fixed row, byte for byte."""
        rng = np.random.default_rng(12)
        t = init_params(6, 9, 5, 4, seed=3).shape
        X = rng.random((6, 9))
        X[2] = 0.0  # zero b1 and b2: h1 and pre2 of this row are zero
        dY = rng.normal(size=(6, 4))
        got = tower_backward(t, tower_forward(t, X), dY.copy())

        h1 = np.maximum(X @ t.W1 + t.b1, 0.0)
        pre = h1 @ t.W2 + t.b2
        assert not pre[2].any()
        pre[np.linalg.norm(pre, axis=1) < embed.NORM_EPS, 0] += embed.NORM_EPS
        norms = np.linalg.norm(pre, axis=1, keepdims=True)
        Y = pre / norms
        dpre2 = (dY - (dY * Y).sum(axis=1, keepdims=True) * Y) / norms
        dpre1 = (dpre2 @ t.W2.T) * (h1 > 0)
        want = (X.T @ dpre1, dpre1.sum(axis=0), h1.T @ dpre2, dpre2.sum(axis=0))
        for g, w in zip(got.arrays(), want):
            assert g.tobytes() == w.tobytes()


class TestLossGuards:
    def test_finite_at_the_tau_bound(self):
        cfg = replace(Config(), tau=1 / 706)
        assert validate(cfg) == []
        params = init_params(6, 9, 5, 4, seed=0)
        loss, grad = nce_loss_and_grad(params, random_batch(np.random.default_rng(0)), cfg)
        assert np.isfinite(loss) and loss > 0
        assert all(np.isfinite(arr).all() for arr in grad.arrays())

    @pytest.mark.parametrize("empty", ["positives", "negatives"])
    def test_empty_run_rejected(self, empty):
        rng = np.random.default_rng(3)
        labels = {
            "positives": [rng.choice(12, 2, replace=False) for _ in range(4)],
            "negatives": [rng.choice(12, 3, replace=False) for _ in range(4)],
        }
        labels[empty][1] = np.array([], dtype=np.intp)
        batch = runs_batch(
            rng.normal(size=(4, 6)), rng.normal(size=(12, 9)),
            labels["positives"], labels["negatives"],
        )
        with pytest.raises(TrainingError, match="at least one positive and one negative"):
            nce_loss_and_grad(init_params(6, 9, 5, 4, seed=0), batch, Config())


def per_anchor_loss_and_grad(params, batch, pos_lists, neg_lists, cfg):
    """The per-anchor loop the run layout replaced, kept as the reference
    for the loss and the gradient bytes."""
    atrace = tower_forward(params.image, batch.anchor_feats)
    ctrace = tower_forward(params.shape, batch.cand_feats)
    sims = (atrace.Y @ ctrace.Y.T) / cfg.tau
    exps = np.exp(sims)
    loss = 0.0
    coeff = np.zeros_like(sims)
    for i, (p, n) in enumerate(zip(pos_lists, neg_lists)):
        dp = exps[i, p].mean()
        dn = exps[i, n].mean()
        denom = dp + cfg.weight_c * dn
        loss += float(np.log1p(cfg.weight_c * dn / dp))
        coeff[i, p] += (1.0 / denom - 1.0 / dp) / len(p) * exps[i, p]
        coeff[i, n] += (cfg.weight_c / denom) / len(n) * exps[i, n]
    dYa = (coeff @ ctrace.Y) / cfg.tau
    dYc = (coeff.T @ atrace.Y) / cfg.tau
    return loss, TowerParams(
        image=tower_backward(params.image, atrace, dYa),
        shape=tower_backward(params.shape, ctrace, dYc),
    )


# one run of each length reaches every branch of numpy's pairwise sum:
# a lone term, a sequential add, the eight accumulators with and without
# a tail, and the splits past 128
RUN_LENGTHS = (1, 7, 8, 9, 128, 129, 1024)


class TestRunsMatchPerAnchorLoop:
    def assert_matches(self, params, pos_lists, neg_lists, batch):
        cfg = Config()
        loss, grad = nce_loss_and_grad(params, batch, cfg)
        want_loss, want = per_anchor_loss_and_grad(params, batch, pos_lists, neg_lists, cfg)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for got, ref in zip(grad.arrays(), want.arrays()):
            assert got.tobytes() == ref.tobytes()

    def test_every_pairwise_branch(self):
        rng = np.random.default_rng(11)
        n_cands = 1100
        pos_lists = [rng.choice(n_cands, n, replace=False) for n in RUN_LENGTHS]
        neg_lists = [rng.choice(n_cands, n, replace=False) for n in RUN_LENGTHS[::-1]]
        # anchor 0's one positive is also the first of its 1,024 negatives
        others = rng.permutation(np.setdiff1d(np.arange(n_cands), pos_lists[0]))
        neg_lists[0] = np.r_[pos_lists[0], others[: len(neg_lists[0]) - 1]]
        params = randomize_biases(init_params(6, 9, 5, 4, seed=3), rng)
        batch = runs_batch(
            rng.normal(size=(len(RUN_LENGTHS), 6)), rng.normal(size=(n_cands, 9)),
            pos_lists, neg_lists,
        )
        self.assert_matches(params, pos_lists, neg_lists, batch)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_overlapping_batches(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng)
        pos_lists = np.split(batch.pos_ids, np.cumsum(batch.pos_counts)[:-1])
        neg_lists = np.split(batch.neg_ids, np.cumsum(batch.neg_counts)[:-1])
        assert any(np.isin(p, n).any() for p, n in zip(pos_lists, neg_lists))
        self.assert_matches(init_params(6, 9, 5, 4, seed=seed), pos_lists, neg_lists, batch)

    def test_run_means_match_mean(self):
        rng = np.random.default_rng(4)
        counts = np.array(RUN_LENGTHS + tuple(rng.integers(1, 300, size=40)))
        values = np.exp(rng.normal(0.0, 5.0, size=counts.sum()))
        runs = np.split(values, np.cumsum(counts)[:-1])
        want = np.array([run.mean() for run in runs])
        assert _run_means(values, counts).tobytes() == want.tobytes()


class TestMining:
    def test_top_two_by_similarity(self):
        anchor = np.array([1.0, 0.0])
        ids = np.array([10, 11, 12])
        embs = np.array([unit2(0.9), unit2(0.5), unit2(0.1)])
        np.testing.assert_array_equal(
            mine_hard_negatives(anchor, ids, embs, 2), [10, 11]
        )

    def test_keep_exceeding_pool_returns_all(self):
        anchor = np.array([1.0, 0.0])
        ids = np.array([3, 1])
        embs = np.array([unit2(0.2), unit2(0.8)])
        np.testing.assert_array_equal(
            mine_hard_negatives(anchor, ids, embs, 99), [1, 3]
        )

    def test_tie_breaks_to_lower_id(self):
        anchor = np.array([1.0, 0.0])
        ids = np.array([7, 2])
        v = unit2(0.5)
        np.testing.assert_array_equal(
            mine_hard_negatives(anchor, ids, np.array([v, v]), 1), [2]
        )


def tiny_lists(rng, n_anchors=6, n_cands=10, empty_pos=(), empty_neg=()):
    """Features and ascending label lists; the anchors named in empty_pos and
    empty_neg get an empty list of that polarity."""
    anchor_feats = rng.normal(size=(n_anchors, 6))
    cand_feats = rng.normal(size=(n_cands, 9))
    pos = [np.sort(rng.choice(n_cands, 2, replace=False)) for _ in range(n_anchors)]
    neg = [np.sort(rng.choice(n_cands, 4, replace=False)) for _ in range(n_anchors)]
    for i in empty_pos:
        pos[i] = pos[i][:0]
    for i in empty_neg:
        neg[i] = neg[i][:0]
    return anchor_feats, cand_feats, pos, neg


def tiny_corpus(rng, n_anchors=6, n_cands=10, **empty):
    return PatchCorpus.from_lists(*tiny_lists(rng, n_anchors, n_cands, **empty))


def he_start(corpus, cfg) -> TowerParams:
    """He-init towers 5 units wide for the corpus and cfg, drawn from cfg.seed."""
    return init_params(
        corpus.anchor_feats.shape[1], corpus.cand_feats.shape[1],
        5, cfg.embed_dim, seed=cfg.seed,
    )


def flat_params(params):
    return np.concatenate(
        [
            arr.ravel()
            for t in (params.image, params.shape)
            for arr in (t.W1, t.b1, t.W2, t.b2)
        ]
    )


class TestTrain:
    def cfg(self, **kw):
        base = dict(
            embed_dim=4, epochs=3, learning_rate=0.1,
            batch_size=4, negatives_keep=3, seed=0,
        )
        base.update(kw)
        return Config(**base)

    def test_zero_lr_leaves_params_unchanged(self):
        corpus = tiny_corpus(np.random.default_rng(0))
        cfg = self.cfg(learning_rate=0.0)
        init = init_params(6, 9, 5, 4, seed=cfg.seed)
        params = init.copy()
        train(corpus, cfg, params)
        np.testing.assert_array_equal(flat_params(params), flat_params(init))

    def test_single_anchor_step_decreases_loss(self):
        rng = np.random.default_rng(1)
        labels = [np.array([0, 1])], [np.array([2, 3, 4])]
        feats = rng.normal(size=(1, 6)), rng.normal(size=(5, 9))
        corpus = PatchCorpus.from_lists(*feats, *labels)
        cfg = self.cfg(epochs=1, learning_rate=0.05)
        params = init_params(6, 9, 5, 4, seed=cfg.seed)
        batch = runs_batch(*feats, *labels)
        before, grad = nce_loss_and_grad(params, batch, cfg)
        gnorm = np.linalg.norm(flat_params(grad))
        trained = params.copy()
        train(corpus, cfg, trained)
        after, _ = nce_loss_and_grad(trained, batch, cfg)
        assert after < before or gnorm < 1e-12

    def test_deterministic_history(self):
        corpus = tiny_corpus(np.random.default_rng(2))
        cfg = self.cfg()
        pa, pb = he_start(corpus, cfg), he_start(corpus, cfg)
        a = train(corpus, cfg, pa)
        b = train(corpus, cfg, pb)
        assert a == b
        np.testing.assert_array_equal(flat_params(pa), flat_params(pb))

    def test_returns_the_history_and_trains_the_towers_given(self):
        corpus = tiny_corpus(np.random.default_rng(12))
        cfg = self.cfg(epochs=2)
        params = he_start(corpus, cfg)
        start, arrays = params.copy(), params.arrays()
        history = train(corpus, cfg, params)
        assert isinstance(history, list)
        assert [type(row) for row in history] == [EpochStats] * cfg.epochs
        # updated in place: the same arrays, now holding the trained values
        assert all(a is b for a, b in zip(params.arrays(), arrays))
        assert flat_params(params).tobytes() != flat_params(start).tobytes()

    def test_history_shape(self):
        corpus = tiny_corpus(np.random.default_rng(3))
        cfg = self.cfg(epochs=4)
        history = train(corpus, cfg, he_start(corpus, cfg))
        assert len(history) == 4
        epochs = [row[0] for row in history]
        assert epochs == [0, 1, 2, 3]

    def test_history_health_from_epoch_start_embeddings(self):
        anchor_feats, cand_feats, pos, _ = tiny_lists(np.random.default_rng(6))
        # disjoint labels, as build_corpus gives them: no positive can tie
        # with a negative, so the last bit decides no win
        neg = [np.setdiff1d(np.arange(10), p) for p in pos]
        corpus = PatchCorpus.from_lists(anchor_feats, cand_feats, pos, neg)
        cfg = self.cfg(epochs=2)
        start = init_params(6, 9, 5, 4, seed=cfg.seed)
        after_one = start.copy()
        train(corpus, replace(cfg, epochs=1), after_one)
        history = train(corpus, cfg, start.copy())
        assert history[0] != history[1]
        for row, params in zip(history, (start, after_one)):
            A = tower_forward(params.image, corpus.anchor_feats).Y
            C = tower_forward(params.shape, corpus.cand_feats).Y
            pos_cos, hard, wins = [], [], 0
            for a, pos, neg in zip(A, corpus.pos_lists, corpus.neg_lists):
                hardest = mine_hard_negatives(a, neg, C[neg], cfg.negatives_keep)[0]
                sims = C[pos] @ a
                pos_cos.extend(sims)
                hard.append(C[hardest] @ a)
                wins += sims.max() > hard[-1]
            assert row.loss == row[1]
            assert row.pos_cos == pytest.approx(np.mean(pos_cos), rel=1e-12)
            assert row.hard_neg_cos == pytest.approx(np.mean(hard), rel=1e-12)
            assert row.pos_beats_neg == wins / len(A)

    def test_shape_tower_reads_the_f32_corpus_itself(self, monkeypatch):
        """No shape-tower pass receives an f64 array shaped like cand_feats:
        every pass is handed the f32 corpus array itself, the epoch-start
        pass with all of its rows and a batch with the rows it uses."""
        corpus = tiny_corpus(np.random.default_rng(7))
        corpus.cand_feats = corpus.cand_feats.astype(np.float32)
        cfg = self.cfg()
        params = init_params(6, 9, 5, 4, seed=cfg.seed)
        forward = embed.tower_forward
        seen = []

        def spy(t, X, rows=None):
            if t is params.shape:
                seen.append((X, rows))
            return forward(t, X, rows)

        monkeypatch.setattr(embed, "tower_forward", spy)
        train(corpus, cfg, params)
        # per epoch: the epoch-start pass, then one per batch of 4 and of 2 anchors
        assert len(seen) == 3 * cfg.epochs
        for k, (X, rows) in enumerate(seen):
            assert X is corpus.cand_feats
            if k % 3 == 0:
                assert rows is None
            else:
                assert rows.ndim == 1 and np.all(np.diff(rows) > 0)

    def test_packed_rows_train_like_ascending_lists(self):
        """train reads the labels through pos_lists/neg_lists and the counts,
        so a corpus holding plain ascending id lists trains too: the packed
        rows must move no bit against it, history included."""
        anchor_feats, cand_feats, pos, neg = tiny_lists(
            np.random.default_rng(8), n_anchors=9, n_cands=40
        )
        neg = [np.setdiff1d(np.arange(40), p)[::3] for p in pos]  # 13 or 14 each
        packed = PatchCorpus.from_lists(anchor_feats, cand_feats, pos, neg)
        lists = SimpleNamespace(
            anchor_feats=anchor_feats,
            cand_feats=cand_feats,
            pos_lists=pos,
            pos_counts=np.array([len(p) for p in pos]),
            neg_lists=neg,
            neg_counts=np.array([len(n) for n in neg]),
        )
        cfg = self.cfg(negatives_keep=6)
        want_params, got_params = he_start(lists, cfg), he_start(packed, cfg)
        want = train(lists, cfg, want_params)
        got = train(packed, cfg, got_params)
        assert flat_params(got_params).tobytes() == flat_params(want_params).tobytes()
        assert got == want

    def test_epoch_draws_a_subsample_when_anchors_exceed_the_cap(self, monkeypatch):
        corpus = tiny_corpus(np.random.default_rng(11), n_anchors=9)
        cfg = self.cfg(epochs=3)
        monkeypatch.setattr(embed, "_ANCHORS_PER_EPOCH", 5)
        loss_and_grad = embed.nce_loss_and_grad
        batches = []

        def spy(params, batch, cfg):
            batches.append(batch.anchor_feats.copy())
            return loss_and_grad(params, batch, cfg)

        monkeypatch.setattr(embed, "nce_loss_and_grad", spy)
        pa = he_start(corpus, cfg)
        a = train(corpus, cfg, pa)
        # batch_size 4: each epoch is a batch of 4 anchors and one of 1
        assert [len(b) for b in batches] == [4, 1] * cfg.epochs
        for epoch in range(cfg.epochs):
            rows = np.concatenate(batches[2 * epoch : 2 * epoch + 2])
            drawn = [np.flatnonzero((corpus.anchor_feats == r).all(axis=1)) for r in rows]
            assert all(len(d) == 1 for d in drawn)
            assert len(set(np.concatenate(drawn).tolist())) == 5
        pb = he_start(corpus, cfg)
        b = train(corpus, cfg, pb)
        assert flat_params(pa).tobytes() == flat_params(pb).tobytes()
        assert a == b

    def test_label_rows_decode_one_row_on_access(self, monkeypatch):
        corpus = tiny_corpus(np.random.default_rng(10), n_cands=21)
        decoded = []
        unpack = embed._unpack_row

        def spy(row, n):
            decoded.append(row.copy())
            return unpack(row, n)

        monkeypatch.setattr(embed, "_unpack_row", spy)
        rows = corpus.neg_lists
        assert decoded == []
        ids = rows[3]
        assert len(decoded) == 1
        assert decoded[0].tobytes() == corpus.neg_bits[3].tobytes()
        assert ids.dtype == np.int32 and len(ids) == corpus.neg_counts[3]
        assert len(rows) == len(corpus.anchor_feats)
        with pytest.raises(TypeError):
            rows[1:3]

    def test_from_lists_packs_distinct_ids_most_significant_bit_first(self):
        corpus = PatchCorpus.from_lists(
            np.zeros((2, 6)), np.zeros((10, 9)),
            [[9, 0, 3, 3], []], [[1], [8, 2]],
        )
        assert corpus.pos_bits.dtype == np.uint8 and corpus.pos_bits.shape == (2, 2)
        assert corpus.pos_bits.tolist() == [[0b10010000, 0b01000000], [0, 0]]
        assert corpus.neg_bits.tolist() == [[0b01000000, 0], [0b00100000, 0b10000000]]
        assert corpus.pos_counts.tolist() == [3, 0]
        assert corpus.neg_counts.tolist() == [1, 2]
        assert corpus.pos_counts.dtype == corpus.neg_counts.dtype == np.int32
        assert corpus.pos_lists[0].tolist() == [0, 3, 9]
        assert corpus.neg_lists[1].tolist() == [2, 8]

    def test_peak_memory_stays_below_half_an_f64_block(self):
        """No f64 copy of the candidates, nor an f32 gather of a batch's rows.

        Each anchor's negatives are every candidate but its positives, and
        mining keeps them all, so every batch's rows are the whole corpus.
        Narrow towers keep train's other temporaries small, so its traced
        peak is the first layer's scratch blocks plus little: an f64 copy
        of the candidates is a whole block, and a whole-batch f32 gather
        half of one.
        """
        n_cands, d_in, n_anchors = 4096, 768, 16
        rng = np.random.default_rng(9)
        ids = np.arange(n_cands, dtype=np.int32)
        corpus = PatchCorpus.from_lists(
            anchor_feats=rng.random((n_anchors, 6), dtype=np.float32),
            cand_feats=rng.random((n_cands, d_in), dtype=np.float32),
            pos_lists=[ids[k : k + 1] for k in range(n_anchors)],
            neg_lists=[np.delete(ids, k) for k in range(n_anchors)],
        )
        cfg = self.cfg(epochs=1, batch_size=8, negatives_keep=n_cands)
        params = init_params(6, d_in, 5, 4, seed=cfg.seed)
        block = n_cands * d_in * 8
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            train(corpus, cfg, params)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 0.5 * block

    def test_missing_positive_rejected(self):
        rng = np.random.default_rng(4)
        corpus = tiny_corpus(rng, n_anchors=4, empty_pos=[2])
        with pytest.raises(TrainingError, match="anchor 2 lacks positives or negatives"):
            train(corpus, self.cfg(epochs=1), he_start(corpus, self.cfg()))

    def test_empty_corpus_rejected(self):
        corpus = PatchCorpus.from_lists(np.zeros((0, 6)), np.zeros((0, 9)), [], [])
        with pytest.raises(TrainingError, match="empty"):
            train(corpus, self.cfg(), he_start(corpus, self.cfg()))

    def test_all_skipped_rejected(self):
        rng = np.random.default_rng(5)
        corpus = tiny_corpus(rng, n_anchors=3, empty_neg=range(3))
        with pytest.raises(TrainingError, match="anchor 0 lacks positives or negatives"):
            train(corpus, self.cfg(), he_start(corpus, self.cfg()))


def dense_first_layer(t: Tower, X: np.ndarray) -> np.ndarray:
    """relu(X @ W1 + b1) from one f64 copy of X and one product."""
    h1 = X.astype(np.float64) @ t.W1
    h1 += t.b1
    return np.maximum(h1, 0.0, out=h1)


class TestFirstLayerBlocks:
    """The blocked first layer against one dense f64 product, byte for byte.

    One row against many rounds apart (numpy takes another BLAS path), so
    a split that leaves a 1-row tail block fails here at block + 1 and
    2 * block + 1 rows. The width is no multiple of the column block. An
    f64 input is multiplied where it lies, an f32 one widened first.
    """

    WIDTH = 3 * embed._COL_BLOCK + 5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n",
        [1, embed._ROW_BLOCK - 1, embed._ROW_BLOCK, embed._ROW_BLOCK + 1,
         2 * embed._ROW_BLOCK + 1],
    )
    def test_forward_and_weight_gradient_match_one_product(self, n, dtype):
        rng = np.random.default_rng(n)
        X = rng.random((n, self.WIDTH), dtype=dtype)
        t = Tower(
            W1=rng.normal(size=(self.WIDTH, 64)), b1=rng.normal(size=64),
            W2=rng.normal(size=(64, 8)), b2=np.zeros(8),
        )
        dpre1 = rng.normal(size=(n, 64))
        assert embed.first_layer(t, X).tobytes() == dense_first_layer(t, X).tobytes()
        want = X.astype(np.float64).T @ dpre1
        assert embed._first_layer_grad(X, None, dpre1).tobytes() == want.tobytes()
        # a batch reads its rows of the corpus
        rows = np.sort(rng.permutation(n + 7)[:n])
        corpus = rng.random((n + 7, self.WIDTH), dtype=dtype)
        corpus[rows] = X
        assert embed.first_layer(t, corpus, rows).tobytes() == dense_first_layer(t, X).tobytes()
        got = embed._first_layer_grad(corpus, rows, dpre1)
        assert got.tobytes() == want.tobytes()

    def test_f64_input_is_not_copied(self):
        """first_layer on an f64 input allocates its (n, h) output, not a
        copy of the (n, 768) input."""
        X = np.random.default_rng(4).random((256, 768))
        t = init_params(6, 768, 64, 8, seed=1).shape
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            embed.first_layer(t, X)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 0.5 * X.nbytes

    def test_tower_gradient_reads_the_input_again(self):
        """tower_backward's dW1 from the f32 rows equals the gradient of the
        same tower over their f64 copy."""
        rng = np.random.default_rng(3)
        t = init_params(6, self.WIDTH, 64, 8, seed=1).shape
        corpus = rng.random((700, self.WIDTH), dtype=np.float32)
        rows = np.sort(rng.choice(700, 600, replace=False))
        dY = rng.normal(size=(600, 8))
        got = tower_backward(t, tower_forward(t, corpus, rows), dY.copy())
        want = tower_backward(t, tower_forward(t, corpus[rows].astype(np.float64)), dY)
        for g, w in zip(got.arrays(), want.arrays()):
            assert g.tobytes() == w.tobytes()


class TestPooling:
    """Pooling of one full-window rect, through the patch-feature functions."""

    def test_exact_block_average(self):
        base = np.arange(256, dtype=float).reshape(16, 16)
        block = np.kron(base, np.ones((2, 2)))
        got = image_patch_features(block, np.array([[0, 0, 32, 32]]), 16)
        np.testing.assert_array_equal(got, base.reshape(1, -1))

    def test_three_channel(self):
        base = np.arange(48, dtype=float).reshape(4, 4, 3)
        block = np.repeat(np.repeat(base, 3, axis=0), 3, axis=1)
        got = shape_patch_features(block, np.array([[0, 0, 12, 12]]), 4)
        np.testing.assert_allclose(got, base.reshape(1, -1))

    def test_uneven_bins_rejected(self):
        block = np.arange(25, dtype=float).reshape(5, 5)
        with pytest.raises(ValueError, match="5x5 does not split into 2 x 2 equal bins"):
            image_patch_features(block, np.array([[0, 0, 5, 5]]), 2)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            image_patch_features(np.zeros((3, 3)), np.array([[0, 0, 3, 3]]), 4)
        with pytest.raises(ValueError):
            shape_patch_features(np.zeros((3, 3, 3)), np.array([[0, 0, 3, 3]]), 4)


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(8, 12, 6, 4, seed=9)
        p1 = tmp_path / "m1.bin"
        p2 = tmp_path / "m2.bin"
        save_model(params, str(p1))
        loaded, _ = load_model(str(p1))
        save_model(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_at_f32(self, tmp_path):
        params = init_params(4, 6, 3, 2, seed=1)
        p = tmp_path / "m.bin"
        save_model(params, str(p))
        loaded, _ = load_model(str(p))
        np.testing.assert_allclose(loaded.image.W1, params.image.W1, atol=1e-6)
        np.testing.assert_allclose(loaded.shape.W2, params.shape.W2, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_model(str(p))

    def test_truncation_detected(self, tmp_path):
        params = init_params(4, 6, 3, 2, seed=1)
        p = tmp_path / "m.bin"
        save_model(params, str(p))
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 6])
        with pytest.raises(FormatError):
            load_model(str(p))


class TestModelRejectsTowersOfOtherShapes:
    def wider_shape_tower(params):
        params.shape = init_params(4, 6, 5, 2, seed=2).shape

    def swapped_b2_lengths(params):
        # the two b2 hold 4 values, as two of length d = 2 would
        params.image.b2, params.shape.b2 = np.zeros(1), np.zeros(3)

    def flat_w1(params):
        params.image.W1 = params.image.W1.ravel()

    @pytest.mark.parametrize("spoil", [wider_shape_tower, swapped_b2_lengths, flat_w1])
    def test_save_refuses_blocks_the_header_does_not_give(self, tmp_path, spoil):
        """Such a file used to be written and then refused for trailing
        bytes, or, with the b2 lengths swapped, read back as other towers."""
        params = init_params(4, 6, 3, 2, seed=1)
        spoil(params)
        p = tmp_path / "m.bin"
        with pytest.raises(FormatError, match="^model: parameters of shapes "):
            save_model(params, str(p))
        assert not p.exists()


class TestModelRejectsNonFinite:
    @pytest.mark.parametrize(
        "tower, name, value",
        [
            ("image", "W1", np.nan),
            ("shape", "b2", np.inf),
            ("image", "b1", -np.inf),
            ("shape", "W2", np.nan),
        ],
    )
    def test_nan_or_inf_weight_is_format_error(self, tmp_path, tower, name, value):
        params = init_params(4, 6, 3, 2, seed=1)
        p = tmp_path / "m.bin"
        save_model(params, str(p))
        # save_model refuses the value, so plant it in the file: the
        # arrays follow the magic and five u32 header fields, in order
        arrays = params.arrays()
        target = getattr(getattr(params, tower), name)
        k = next(i for i, a in enumerate(arrays) if a is target)
        with open(p, "r+b") as fh:
            fh.seek(4 + 4 * 5 + 4 * sum(a.size for a in arrays[:k]))
            fh.write(np.array(value, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="non-finite value in parameters"):
            load_model(str(p))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_save_refuses_what_load_refuses(self, tmp_path, value):
        """1e39 is a finite f64 that the f32 file would hold as infinity."""
        params = init_params(4, 6, 3, 2, seed=1)
        params.shape.W2[1, 1] = value
        p = tmp_path / "m.bin"
        with np.errstate(over="ignore"), pytest.raises(
            FormatError, match="^model: non-finite value in parameters$"
        ):
            save_model(params, str(p))
        assert not p.exists()


def lexsort_mining(anchor, ids, embs, keep):
    """The full-sort miner that the partial top-k replaced."""
    sims = embs @ anchor
    order = np.lexsort((ids, -sims))
    return np.asarray(ids)[order[:keep]]


class TestMiningMatchesFullSort:
    def test_heavy_ties(self):
        # embeddings drawn from three values, so most similarities tie,
        # and a boundary tie straddles every keep
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(1, 80))
            ids = np.sort(rng.choice(10_000, n, replace=False))
            embs = rng.choice([-1.0, 0.0, 1.0], size=(n, 3))
            anchor = rng.choice([-1.0, 0.0, 1.0], size=3)
            for keep in (1, 2, n // 2 + 1, n - 1, n, n + 5):
                if keep < 1:
                    continue
                got = mine_hard_negatives(anchor, ids, embs, keep)
                want = lexsort_mining(anchor, ids, embs, keep)
                assert got.tobytes() == want.tobytes()

    def test_pool_smaller_than_keep_and_unsorted_ids(self):
        rng = np.random.default_rng(8)
        ids = rng.permutation(40)[:12]
        embs = rng.normal(size=(12, 4))
        anchor = rng.normal(size=4)
        got = mine_hard_negatives(anchor, ids, embs, 1024)
        assert got.tobytes() == lexsort_mining(anchor, ids, embs, 1024).tobytes()
        assert sorted(got.tolist()) == sorted(ids.tolist())

    def test_nan_similarity_sorts_last(self):
        # NaN candidates rank after every number, in id order among
        # themselves, as np.lexsort((ids, -sims)) puts them
        rng = np.random.default_rng(9)
        ids = rng.permutation(30)[:14]
        embs = rng.choice([-1.0, 0.0, 1.0], size=(14, 3))
        embs[[1, 4, 11]] = np.nan
        anchor = rng.choice([-1.0, 1.0], size=3)
        for keep in range(1, 16):
            got = mine_hard_negatives(anchor, ids, embs, keep)
            assert got.tobytes() == lexsort_mining(anchor, ids, embs, keep).tobytes()
        assert set(got[-3:].tolist()) == set(ids[[1, 4, 11]].tolist())

    @pytest.mark.parametrize("keep", [24, 1024])
    def test_mining_sized_pool(self, keep):
        """A pool of the bench corpus's size: keep=24 takes the group-max
        cut, keep=1024 (negatives_keep) partitions the whole row."""
        rng = np.random.default_rng(keep)
        n = 3900
        ids = np.sort(rng.choice(10_000, n, replace=False))
        embs = rng.choice([-1.0, 0.0, 1.0], size=(n, 3))
        embs[rng.choice(n, 40, replace=False)] = np.nan
        anchor = rng.choice([-1.0, 0.0, 1.0], size=3)
        got = mine_hard_negatives(anchor, ids, embs, keep)
        assert got.tobytes() == lexsort_mining(anchor, ids, embs, keep).tobytes()

    def test_empty_pool(self):
        got = mine_hard_negatives(np.ones(2), np.empty(0, np.int64), np.empty((0, 2)), 3)
        assert got.shape == (0,) and got.dtype == np.int64
