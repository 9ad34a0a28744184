from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp

from patchvote.config import Config
from patchvote.descriptor import PatchRect
from patchvote.embed import (
    PatchCorpus,
    Tower,
    TowerParams,
    TrainingBatch,
    image_patch_features,
    init_params,
    load_model,
    mine_hard_negatives,
    nce_loss_and_grad,
    save_model,
    shape_patch_features,
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
        return TrainingBatch(
            anchor_feats=np.array([[1.0, 0.0]]),
            cand_feats=np.array(cands),
            pos_ids=[np.arange(len(pos_cos))],
            neg_ids=[np.arange(len(pos_cos), len(pos_cos) + len(neg_cos))],
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
            batch = TrainingBatch(
                anchor_feats=rng.normal(size=(4, 6)),
                cand_feats=rng.normal(size=(10, 9)),
                pos_ids=[rng.choice(10, 3, replace=False) for _ in range(4)],
                neg_ids=[rng.choice(10, 4, replace=False) for _ in range(4)],
            )
            loss, _ = nce_loss_and_grad(params, batch, cfg)
            assert loss > 0

    def test_missing_positive_rejected(self):
        params = identity_params(2, 2)
        bad = TrainingBatch(
            anchor_feats=np.array([[1.0, 0.0]]),
            cand_feats=np.array([unit2(0.5)]),
            pos_ids=[np.array([], dtype=int)],
            neg_ids=[np.array([0])],
        )
        with pytest.raises(TrainingError):
            nce_loss_and_grad(params, bad, self.cfg)


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
    return TrainingBatch(
        anchor_feats=rng.normal(size=(n_anchors, d_img)),
        cand_feats=rng.normal(size=(n_cands, d_shape)),
        pos_ids=[rng.choice(n_cands, 2, replace=False) for _ in range(n_anchors)],
        neg_ids=[rng.choice(n_cands, 3, replace=False) for _ in range(n_anchors)],
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


def tiny_corpus(rng, n_anchors=6, n_cands=10):
    return PatchCorpus(
        anchor_feats=rng.normal(size=(n_anchors, 6)),
        cand_feats=rng.normal(size=(n_cands, 9)),
        pos_lists=[rng.choice(n_cands, 2, replace=False) for _ in range(n_anchors)],
        neg_lists=[rng.choice(n_cands, 4, replace=False) for _ in range(n_anchors)],
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
            hidden_dim=5, embed_dim=4, epochs=3, learning_rate=0.1,
            batch_size=4, negatives_keep=3, negatives_pool=8, seed=0,
        )
        base.update(kw)
        return Config(**base)

    def test_zero_lr_leaves_params_unchanged(self):
        corpus = tiny_corpus(np.random.default_rng(0))
        cfg = self.cfg(learning_rate=0.0)
        init = init_params(6, 9, 5, 4, seed=cfg.seed)
        result = train(corpus, cfg)
        np.testing.assert_array_equal(flat_params(result.params), flat_params(init))

    def test_single_anchor_step_decreases_loss(self):
        rng = np.random.default_rng(1)
        corpus = PatchCorpus(
            anchor_feats=rng.normal(size=(1, 6)),
            cand_feats=rng.normal(size=(5, 9)),
            pos_lists=[np.array([0, 1])],
            neg_lists=[np.array([2, 3, 4])],
        )
        cfg = self.cfg(epochs=1, learning_rate=0.05)
        params = init_params(6, 9, 5, 4, seed=cfg.seed)
        batch = TrainingBatch(
            corpus.anchor_feats, corpus.cand_feats,
            corpus.pos_lists, corpus.neg_lists,
        )
        before, grad = nce_loss_and_grad(params, batch, cfg)
        gnorm = np.linalg.norm(flat_params(grad))
        result = train(corpus, cfg)
        after, _ = nce_loss_and_grad(result.params, batch, cfg)
        assert after < before or gnorm < 1e-12

    def test_deterministic_history(self):
        corpus = tiny_corpus(np.random.default_rng(2))
        a = train(corpus, self.cfg())
        b = train(corpus, self.cfg())
        assert a.history == b.history
        np.testing.assert_array_equal(flat_params(a.params), flat_params(b.params))

    def test_history_shape(self):
        corpus = tiny_corpus(np.random.default_rng(3))
        result = train(corpus, self.cfg(epochs=4))
        assert len(result.history) == 4
        epochs = [row[0] for row in result.history]
        assert epochs == [0, 1, 2, 3]

    def test_history_health_from_epoch_start_embeddings(self):
        corpus = tiny_corpus(np.random.default_rng(6))
        # disjoint labels, as build_corpus gives them: no positive can tie
        # with a negative, so the last bit decides no win
        corpus.neg_lists = [np.setdiff1d(np.arange(10), p) for p in corpus.pos_lists]
        cfg = self.cfg(epochs=2)
        start = init_params(6, 9, 5, 4, seed=cfg.seed)
        after_one = train(corpus, replace(cfg, epochs=1), start.copy()).params
        result = train(corpus, cfg, start.copy())
        assert result.history[0] != result.history[1]
        for row, params in zip(result.history, (start, after_one)):
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

    def test_anchors_without_labels_skipped_and_counted(self):
        rng = np.random.default_rng(4)
        corpus = tiny_corpus(rng, n_anchors=4)
        corpus.pos_lists[2] = np.array([], dtype=int)
        result = train(corpus, self.cfg(epochs=1))
        assert result.history[0][2] == 1

    def test_empty_corpus_rejected(self):
        corpus = PatchCorpus(
            anchor_feats=np.zeros((0, 6)),
            cand_feats=np.zeros((0, 9)),
            pos_lists=[],
            neg_lists=[],
        )
        with pytest.raises(TrainingError, match="empty"):
            train(corpus, self.cfg())

    def test_all_skipped_rejected(self):
        rng = np.random.default_rng(5)
        corpus = tiny_corpus(rng, n_anchors=3)
        for i in range(3):
            corpus.neg_lists[i] = np.array([], dtype=int)
        with pytest.raises(TrainingError, match="skipped"):
            train(corpus, self.cfg())


class TestPooling:
    """Pooling of one full-window rect, through the patch-feature functions."""

    def test_exact_block_average(self):
        base = np.arange(256, dtype=float).reshape(16, 16)
        block = np.kron(base, np.ones((2, 2)))
        got = image_patch_features(block, PatchRect(0, 0, 32, 32), 16)
        np.testing.assert_array_equal(got, base.ravel())

    def test_three_channel(self):
        base = np.arange(48, dtype=float).reshape(4, 4, 3)
        block = np.repeat(np.repeat(base, 3, axis=0), 3, axis=1)
        got = shape_patch_features(block, PatchRect(0, 0, 12, 12), 4)
        np.testing.assert_allclose(got, base.ravel())

    def test_uneven_bins(self):
        block = np.arange(25, dtype=float).reshape(5, 5)
        out = image_patch_features(block, PatchRect(0, 0, 5, 5), 2).reshape(2, 2)
        # rows split 2/3, cols split 2/3
        assert out[0, 0] == pytest.approx(block[:2, :2].mean())
        assert out[1, 1] == pytest.approx(block[2:, 2:].mean())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            image_patch_features(np.zeros((3, 3)), PatchRect(0, 0, 3, 3), 4)
        with pytest.raises(ValueError):
            shape_patch_features(np.zeros((3, 3, 3)), PatchRect(0, 0, 3, 3), 4)


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
        getattr(getattr(params, tower), name).flat[0] = value
        p = tmp_path / "m.bin"
        save_model(params, str(p))
        with pytest.raises(FormatError, match="non-finite value in parameters"):
            load_model(str(p))


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

    def test_empty_pool(self):
        got = mine_hard_negatives(np.ones(2), np.empty(0, np.int64), np.empty((0, 2)), 3)
        assert got.shape == (0,) and got.dtype == np.int64
