import numpy as np
import pytest

from patchvote.config import Config
from patchvote.embed import NORM_EPS
from patchvote.errors import TrainingError
from patchvote.pose import (
    HUBER_DELTA,
    POSE_BINS,
    PoseDataset,
    PoseHeadParams,
    assign_rotation_bin,
    compose_rotation,
    huber,
    huber_grad,
    init_pose_head,
    pose_forward,
    pose_loss_and_grad,
    train_pose_head,
)
from patchvote.views import (
    axis_angle_quat,
    canonical_quat,
    quat_geodesic,
    random_rotations,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


class TestHuber:
    def test_delta(self):
        """The branch values below are those of a unit-width quadratic zone."""
        assert HUBER_DELTA == 1.0

    def test_quadratic_branch(self):
        assert huber(0.5) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert huber(2.0) == pytest.approx(1.5)

    def test_continuous_at_delta(self):
        lo = huber(HUBER_DELTA - 1e-6)
        hi = huber(HUBER_DELTA + 1e-6)
        assert abs(hi - lo) < 1e-5

    def test_derivative_continuous_at_delta(self):
        eps = 1e-6
        step = 1e-7
        lo, hi = HUBER_DELTA - eps, HUBER_DELTA + eps
        d_lo = (huber(lo + step) - huber(lo - step)) / (2 * step)
        d_hi = (huber(hi + step) - huber(hi - step)) / (2 * step)
        assert d_lo == pytest.approx(d_hi, abs=1e-4)

    def test_symmetric(self):
        x = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(huber(x), huber(-x))


class TestAssignBin:
    def medoids(self):
        return np.stack([IDENTITY, axis_angle_quat([0, 0, 1], np.pi)])

    def test_near_identity_goes_to_bin_zero(self):
        q = axis_angle_quat([0, 0, 1], np.deg2rad(10))
        idx, residual = assign_rotation_bin(self.medoids(), q)
        assert idx == 0
        np.testing.assert_allclose(residual, q, atol=1e-12)

    def test_exact_medoid_gives_identity_residual(self):
        m = self.medoids()
        idx, residual = assign_rotation_bin(m, m[1])
        assert idx == 1
        np.testing.assert_allclose(residual, IDENTITY, atol=1e-12)

    def test_equidistant_takes_lower_bin(self):
        q = axis_angle_quat([0, 0, 1], np.pi / 2)
        idx, _ = assign_rotation_bin(self.medoids(), q)
        assert idx == 0

    def test_residual_composes_back(self):
        medoids = random_rotations(16, seed=1)
        for q in random_rotations(50, seed=2):
            idx, residual = assign_rotation_bin(medoids, q)
            back = compose_rotation(medoids, idx, residual)
            assert quat_geodesic(back, q) < 1e-6


def fixed_head(logits, offset, d_in=6):
    """A head whose outputs are its biases, whatever the features."""
    k = len(logits)
    return PoseHeadParams(
        Wc=np.zeros((d_in, k)),
        bc=np.asarray(logits, dtype=float),
        Wq=np.zeros((d_in, 4)),
        bq=np.asarray(offset, dtype=float),
    )


def one_sample_loss(logits, offset, gt_bin, gt_offset):
    """The batched pose loss of a fixed head on a one-sample batch."""
    data = PoseDataset(
        features=np.zeros((1, 6)),
        gt_bins=np.array([gt_bin]),
        gt_offsets=np.asarray(gt_offset, dtype=float)[None],
    )
    loss, _ = pose_loss_and_grad(fixed_head(logits, offset), data)
    return loss


def predict(head, medoids):
    """Bin and composed rotation of one sample, as run_pose_experiment reads them."""
    logits, offsets, _ = pose_forward(head, np.zeros(6))
    b = int(logits[0].argmax())
    return b, compose_rotation(medoids, b, canonical_quat(offsets[0]))


class TestPoseLosses:
    # the offset term is zero where the prediction matches, so each
    # check isolates the term it names
    def test_uniform_logits_ce_is_ln_k(self):
        for k in (2, 8, 16):
            loss = one_sample_loss(np.zeros(k), IDENTITY, 0, IDENTITY)
            assert loss == pytest.approx(np.log(k))

    def test_perfect_prediction_zero_regression_loss(self):
        off = axis_angle_quat([1, 0, 0], 0.3)
        loss = one_sample_loss(np.array([9.0, 0.0]), off, 0, off)
        # the Huber term is nonnegative, so it is within the bound
        assert loss - np.logaddexp(0.0, -9.0) == pytest.approx(0.0, abs=1e-15)

    def test_sign_alignment(self):
        off = axis_angle_quat([0, 1, 0], 0.8)
        gt = axis_angle_quat([0, 1, 0], 0.5)
        a = one_sample_loss(np.zeros(4), off, 0, gt)
        b = one_sample_loss(np.zeros(4), -off, 0, gt)
        # the cross entropy matches exactly, so the totals must too
        assert a == b

    def test_huber_values_in_offset_loss(self):
        # offset differing by 0.5 in one component, quadratic branch
        gt = IDENTITY
        pred_q = canonical_quat([np.sqrt(0.75), 0.5, 0.0, 0.0])
        loss = one_sample_loss(np.zeros(2), pred_q, 0, gt)
        expect = huber(pred_q[0] - 1.0) + huber(0.5)
        assert loss - np.log(2.0) == pytest.approx(float(expect))


class TestPredict:
    def test_identity_offset_returns_medoid(self):
        medoids = random_rotations(4, seed=3)
        b, rot = predict(fixed_head([0, 9, 0, 0], [1, 0, 0, 0]), medoids)
        assert b == 1
        assert quat_geodesic(rot, medoids[1]) < 1e-9

    def test_argmax_bin_scale_invariant(self):
        medoids = random_rotations(3, seed=4)
        for scale in (1.0, 10.0, 0.01):
            head = fixed_head(np.array([1.0, 3.0, 2.0]) * scale, [1, 0, 0, 0])
            assert predict(head, medoids)[0] == 1

    def test_offsets_compose_about_shared_axis(self):
        medoids = np.stack([axis_angle_quat([0, 0, 1], np.pi / 2)])
        off = axis_angle_quat([0, 0, 1], np.deg2rad(5))
        _, rot = predict(fixed_head([1.0], off), medoids)
        expect = axis_angle_quat([0, 0, 1], np.deg2rad(95))
        assert quat_geodesic(rot, expect) < 1e-9


def pose_numeric_grad(params, data, step=1e-5):
    grads = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + step
            lp, _ = pose_loss_and_grad(params, data)
            arr[idx] = old - step
            lm, _ = pose_loss_and_grad(params, data)
            arr[idx] = old
            g[idx] = (lp - lm) / (2 * step)
        grads.append(g)
    return grads


def random_pose_dataset(rng, n=12, d_in=5, k=4):
    offsets = random_rotations(n, seed=17)
    return PoseDataset(
        features=rng.normal(size=(n, d_in)),
        gt_bins=rng.integers(0, k, size=n),
        gt_offsets=offsets,
    )


class TestPoseGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        data = random_pose_dataset(rng)
        params = init_pose_head(5, 4, seed=8)
        params.bq += rng.normal(0.0, 0.1, size=4)
        _, grad = pose_loss_and_grad(params, data)
        numeric = pose_numeric_grad(params, data)
        for a, n in zip(grad.arrays(), numeric):
            rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-8)
            assert rel.max() < 1e-3

    def test_epsilon_fixed_row_matches_oracle(self):
        """A zero raw offset goes through the backward pass divided by the
        norm of its epsilon-fixed row, byte for byte."""
        rng = np.random.default_rng(22)
        data = random_pose_dataset(rng)
        data.features[3] = 0.0  # zero bq: this raw offset is zero
        params = init_pose_head(5, 4, seed=8)
        _, grad = pose_loss_and_grad(params, data)

        X = data.features
        raw = X @ params.Wq + params.bq
        assert not raw[3].any()
        raw[np.linalg.norm(raw, axis=1) < NORM_EPS, 0] += NORM_EPS
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        offsets = raw / norms
        signs = np.where(np.sum(offsets * data.gt_offsets, axis=1) < 0, -1.0, 1.0)
        d = huber_grad(offsets * signs[:, None] - data.gt_offsets) * signs[:, None]
        draw = (d - (d * offsets).sum(axis=1, keepdims=True) * offsets) / norms
        scale = 1.0 / len(X)
        assert grad.Wq.tobytes() == (X.T @ draw * scale).tobytes()
        assert grad.bq.tobytes() == (draw.sum(axis=0) * scale).tobytes()


class TestPoseTraining:
    def test_loss_decreases(self):
        rng = np.random.default_rng(5)
        data = random_pose_dataset(rng, n=40, d_in=8, k=3)
        cfg = Config(batch_size=16, seed=0, epochs=30, learning_rate=0.2)
        result = train_pose_head(data, cfg)
        losses = [row[1] for row in result.history]
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = random_pose_dataset(rng, n=20, d_in=6, k=3)
        cfg = Config(batch_size=8, seed=1, epochs=5, learning_rate=0.1)
        a = train_pose_head(data, cfg)
        b = train_pose_head(data, cfg)
        assert a.history == b.history

    @pytest.mark.parametrize("bad_bin", [POSE_BINS, -1], ids=["pose_bins", "negative"])
    def test_gt_bin_outside_the_head_rejected(self, bad_bin):
        """The head has exactly POSE_BINS logits, one per medoid."""
        rng = np.random.default_rng(7)
        data = random_pose_dataset(rng, n=10, d_in=6, k=POSE_BINS)
        data.gt_bins[3] = bad_bin
        cfg = Config(batch_size=8, seed=1, epochs=1)
        with pytest.raises(TrainingError, match=f"POSE_BINS={POSE_BINS}"):
            train_pose_head(data, cfg)
