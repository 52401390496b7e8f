import json

import numpy as np
import pytest

from csdpp.learners import from_snapshot, to_snapshot
from csdpp.regressor import DEFAULT_REFRESH_EVERY, Head, RidgeAccumulator, suggest_engine


def batch_ridge(xs, ys, lam):
    """Direct regularized least squares over all pairs seen so far."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    a = lam * np.eye(xs.shape[1]) + xs.T @ xs
    return np.linalg.solve(a, xs.T @ ys)


def orthonormal_rows(m, k, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, m)))
    return q.T


def round_trip(obj, fresh):
    """fresh, overwritten with obj's state after a pass through JSON."""
    return from_snapshot(fresh, json.loads(json.dumps(to_snapshot(obj))))


class TestAccumulator:
    def test_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            RidgeAccumulator(0)
        with pytest.raises(ValueError, match="ridge strength"):
            RidgeAccumulator(3, lam=0.0)

    def test_inverse_tracks_exact_matrix(self):
        rng = np.random.default_rng(0)
        acc = RidgeAccumulator(4, lam=0.7, refresh_every=0)
        for _ in range(60):
            x = rng.standard_normal(4)
            acc.absorb(x, *acc.peek(x))
        np.testing.assert_allclose(acc.a_inv, np.linalg.inv(acc.a), atol=1e-10)

    def test_periodic_refresh_resets_drift(self):
        rng = np.random.default_rng(1)
        acc = RidgeAccumulator(3, refresh_every=5)
        for i in range(10):
            x = rng.standard_normal(3)
            acc.absorb(x, *acc.peek(x))
            if acc.steps % 5 == 0:
                np.testing.assert_allclose(acc.a_inv @ acc.a, np.eye(3), atol=1e-12)

    def test_snapshot_round_trip(self):
        rng = np.random.default_rng(2)
        acc = RidgeAccumulator(3, lam=2.0)
        for _ in range(4):
            x = rng.standard_normal(3)
            acc.absorb(x, *acc.peek(x))
        back = round_trip(acc, RidgeAccumulator(3, lam=2.0))
        np.testing.assert_array_equal(back.a, acc.a)
        np.testing.assert_array_equal(back.a_inv, acc.a_inv)
        assert back.steps == acc.steps and back.lam == acc.lam


class TestLabelSpaceRidge:
    """Ridge head of width K on label-space targets (o-br, *-pbc)."""

    def test_one_step_hand_example(self):
        # lambda=1, x=[1], y=[1]: gamma=1 so the zero head moves to 0.5 exactly
        head = Head(1, 1, lam=1.0)
        head.update(np.array([1.0]), np.array([1.0]))
        assert head.w[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_exact_prediction_leaves_head_fixed(self):
        head = Head(2, 3, lam=1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(2)
            head.update(x, rng.standard_normal(3))
        frozen = head.w.copy()
        x = rng.standard_normal(2)
        head.update(x, head.predict(x))  # target equals current prediction
        np.testing.assert_array_equal(head.w, frozen)

    def test_matches_batch_solve_every_step(self):
        rng = np.random.default_rng(4)
        d, k, lam = 6, 4, 0.5
        head = Head(d, k, lam=lam)
        xs, ys = [], []
        for _ in range(120):
            x = rng.standard_normal(d)
            y = rng.standard_normal(k)
            head.update(x, y)
            xs.append(x)
            ys.append(y)
            assert np.max(np.abs(head.w - batch_ridge(xs, ys, lam))) <= 1e-8

    def test_projected_prediction_matches_batch(self):
        rng = np.random.default_rng(5)
        d, k, lam = 5, 6, 1.0
        head = Head(d, k, lam=lam)
        xs, ys = [], []
        for _ in range(80):
            x = rng.standard_normal(d)
            y = rng.standard_normal(k)
            head.update(x, y)
            xs.append(x)
            ys.append(y)
        exact = batch_ridge(xs, ys, lam)
        probe = rng.standard_normal(d)
        for _ in range(20):
            p = orthonormal_rows(3, k, int(rng.integers(1 << 30)))
            got = p @ head.predict(probe)
            want = p @ (exact.T @ probe)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_predict_through_identity_rows(self):
        head = Head(2, 4)
        head.w = np.arange(8, dtype=np.float64).reshape(2, 4)
        x = np.array([1.0, -1.0])
        p = np.eye(4)[[1, 3]]  # picks code coordinates 1 and 3
        np.testing.assert_array_equal(p @ head.predict(x), head.predict(x)[[1, 3]])

    def test_predict_through_equals_collapsed_code_head(self):
        # projecting the label-space prediction is the same linear map as the
        # collapsed code-space weights W = H P^T applied directly
        rng = np.random.default_rng(19)
        for _ in range(20):
            head = Head(5, 7)
            head.w = rng.standard_normal((5, 7))
            p = orthonormal_rows(3, 7, int(rng.integers(1 << 30)))
            x = rng.standard_normal(5)
            w = head.w @ p.T
            assert np.max(np.abs(p @ head.predict(x) - w.T @ x)) <= 1e-12

    def test_zero_head_predicts_zero(self):
        head = Head(3, 5)
        np.testing.assert_array_equal(head.predict(np.ones(3)), np.zeros(5))

    def test_snapshot_round_trip(self):
        rng = np.random.default_rng(6)
        head = Head(3, 2, lam=0.3)
        for _ in range(6):
            head.update(rng.standard_normal(3), rng.standard_normal(2))
        back = round_trip(head, Head(3, 2, lam=0.3))
        np.testing.assert_array_equal(back.w, head.w)
        np.testing.assert_array_equal(back.acc.a, head.acc.a)
        np.testing.assert_array_equal(back.acc.a_inv, head.acc.a_inv)
        assert back.acc.steps == head.acc.steps == 6


class TestCodeRidge:
    """Ridge head of width M on encoded targets, never rotated (dpp-naive, o-rand)."""

    def test_target_shape_contract(self):
        head = Head(3, 2)
        with pytest.raises(ValueError, match="target must have shape"):
            head.update(np.zeros(3), np.zeros(3))

    def test_matches_batch_solve_on_encoded_targets(self):
        rng = np.random.default_rng(7)
        d, k, m, lam = 5, 6, 2, 1.0
        p = orthonormal_rows(m, k, 11)
        head = Head(d, m, lam=lam)
        xs, zs = [], []
        for _ in range(100):
            x = rng.standard_normal(d)
            z = p @ rng.standard_normal(k)
            head.update(x, z)
            xs.append(x)
            zs.append(z)
        np.testing.assert_allclose(head.w, batch_ridge(xs, zs, lam), atol=1e-8)


    def test_encodes_label_targets_with_the_given_basis(self):
        rng = np.random.default_rng(20)
        p = orthonormal_rows(2, 5, 12)
        encoding = Head(3, 2)
        encoded = Head(3, 2)
        for _ in range(30):
            x = rng.standard_normal(3)
            y = rng.choice([-1.0, 1.0], size=5)
            encoding.update(x, y, p)
            encoded.update(x, p @ y)
        np.testing.assert_array_equal(encoding.w, encoded.w)
        assert encoding.basis is None  # a plain code head never stores or rotates a basis


class TestTransformedCodeRidge:
    """Code head of width M rotated onto each new basis (*-pbt)."""

    def test_same_basis_is_identity(self):
        p = orthonormal_rows(2, 5, 0)
        head = Head(3, 2, basis=p)
        head.w = np.random.default_rng(8).standard_normal((3, 2))
        frozen = head.w.copy()
        head.transform(p)
        np.testing.assert_allclose(head.w, frozen, atol=1e-15)

    def test_negated_basis_negates_head(self):
        p = orthonormal_rows(2, 5, 1)
        head = Head(3, 2, basis=p)
        head.w = np.random.default_rng(9).standard_normal((3, 2))
        frozen = head.w.copy()
        head.transform(-p)
        np.testing.assert_allclose(head.w, -frozen, atol=1e-15)

    def test_rotation_preserves_label_space_view(self):
        rng = np.random.default_rng(10)
        p = orthonormal_rows(3, 7, 2)
        head = Head(4, 3, basis=p)
        head.w = rng.standard_normal((4, 3))
        x = rng.standard_normal(4)
        before = head.basis.T @ head.predict(x)
        composed = head.w @ head.basis
        r, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        expected_w = head.w @ r.T
        head.transform(r @ p)
        np.testing.assert_allclose(head.w, expected_w, atol=1e-12)
        np.testing.assert_allclose(head.basis.T @ head.predict(x), before, atol=1e-12)
        np.testing.assert_allclose(head.w @ head.basis, composed, atol=1e-12)

    def test_fixed_basis_equals_plain_code_head(self):
        rng = np.random.default_rng(11)
        d, k, m = 4, 6, 2
        p = orthonormal_rows(m, k, 3)
        rotated = Head(d, m, basis=p)
        plain = Head(d, m)
        for _ in range(200):
            x = rng.standard_normal(d)
            y = rng.choice([-1.0, 1.0], size=k)
            rotated.update(x, y, p)
            plain.update(x, p @ y)
        assert np.max(np.abs(rotated.w - plain.w)) <= 1e-10

    def test_fixed_basis_matches_direct_solve(self):
        rng = np.random.default_rng(12)
        d, k, m, lam = 5, 8, 3, 1.0
        p = orthonormal_rows(m, k, 4)
        head = Head(d, m, lam=lam, basis=p)
        xs, zs = [], []
        for _ in range(200):
            x = rng.standard_normal(d)
            y = rng.choice([-1.0, 1.0], size=k)
            head.update(x, y, p)
            xs.append(x)
            zs.append(p @ y)
        assert np.max(np.abs(head.w - batch_ridge(xs, zs, lam))) <= 1e-8

    def test_constant_basis_three_heads_coincide(self):
        # with a frozen encoder the corrected, rotated, and naive heads are the
        # same linear map expressed in different coordinates: W = H P^T
        rng = np.random.default_rng(13)
        d, k, m = 4, 5, 2
        p = orthonormal_rows(m, k, 5)
        label_head = Head(d, k)
        rotated = Head(d, m, basis=p)
        naive = Head(d, m)
        for _ in range(60):
            x = rng.standard_normal(d)
            y = rng.choice([-1.0, 1.0], size=k)
            label_head.update(x, y)
            rotated.update(x, y, p)
            naive.update(x, p @ y)
        np.testing.assert_allclose(rotated.w, label_head.w @ p.T, atol=1e-12)
        np.testing.assert_allclose(naive.w, label_head.w @ p.T, atol=1e-12)
        probe = rng.standard_normal(d)
        np.testing.assert_allclose(rotated.predict(probe), p @ label_head.predict(probe), atol=1e-12)

    def test_alternating_sign_flips_favor_label_space_head(self):
        # the naive code head chases a target whose sign flips every step and
        # never settles; the label-space head is invariant to the flip
        rng = np.random.default_rng(14)
        d, k, m = 5, 4, 2
        p0 = orthonormal_rows(m, k, 6)
        b = rng.standard_normal((d, k)) * 0.5
        label_head = Head(d, k)
        naive = Head(d, m)
        err_label = err_naive = 0.0
        for t in range(300):
            basis = p0 if t % 2 == 0 else -p0
            x = rng.standard_normal(d)
            y = b.T @ x
            err_label += float(np.sum((basis @ label_head.predict(x) - basis @ y) ** 2))
            err_naive += float(np.sum((naive.predict(x) - basis @ y) ** 2))
            label_head.update(x, y)
            naive.update(x, basis @ y)
        assert err_naive >= 10.0 * err_label

    def test_basis_validation(self):
        with pytest.raises(ValueError, match="M x K"):
            Head(3, 4, basis=np.zeros(4))
        with pytest.raises(ValueError, match="M x K"):
            Head(3, 3, basis=orthonormal_rows(2, 5, 7))  # width must equal M
        head = Head(3, 2, basis=orthonormal_rows(2, 5, 7))
        with pytest.raises(ValueError, match="basis shape changed"):
            head.transform(orthonormal_rows(3, 5, 7))

    def test_snapshot_round_trip(self):
        rng = np.random.default_rng(15)
        p = orthonormal_rows(2, 4, 8)
        head = Head(3, 2, basis=p)
        for _ in range(5):
            head.update(rng.standard_normal(3), rng.choice([-1.0, 1.0], size=4), p)
        back = round_trip(head, Head(3, 2, basis=orthonormal_rows(2, 4, 9)))
        np.testing.assert_array_equal(back.w, head.w)
        np.testing.assert_array_equal(back.basis, head.basis)


class TestSgdHeads:
    """The SGD step rule; its step at update t is sgd_step_scale / sqrt(t)."""

    def test_one_step_hand_example(self):
        head = Head(1, 1, rule="sgd", sgd_step_scale=0.1)
        head.update(np.array([2.0]), np.array([1.0]))
        assert head.w[0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_step_decays_with_update_count(self):
        head = Head(1, 1, rule="sgd", sgd_step_scale=0.5)
        for _ in range(3):
            head.update(np.array([0.0]), np.array([0.0]))
        head.update(np.array([1.0]), np.array([1.0]))  # fourth update: step 0.5 / sqrt(4)
        assert head.w[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_zero_step_freezes(self):
        head = Head(3, 2, rule="sgd", sgd_step_scale=0.0)
        head.w = np.random.default_rng(16).standard_normal((3, 2))
        frozen = head.w.copy()
        head.update(np.ones(3), np.ones(2))
        np.testing.assert_array_equal(head.w, frozen)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Head(2, 2, rule="sgd", sgd_step_scale=-0.1)
        with pytest.raises(ValueError, match="step rule"):
            Head(2, 2, rule="adam")

    def test_step_follows_squared_error_gradient(self):
        rng = np.random.default_rng(17)
        head = Head(4, 3, rule="sgd", sgd_step_scale=1.0)
        head.w = rng.standard_normal((4, 3))
        x = rng.standard_normal(4)
        target = rng.standard_normal(3)

        def loss(w):
            return 0.5 * float(np.sum((w.T @ x - target) ** 2))

        before = head.w.copy()
        head.update(x, target)
        analytic = before - head.w  # equals the gradient when the first step is 1
        h = 1e-6
        for i in range(4):
            for j in range(3):
                wp = before.copy()
                wm = before.copy()
                wp[i, j] += h
                wm[i, j] -= h
                numeric = (loss(wp) - loss(wm)) / (2 * h)
                denom = max(abs(numeric), 1e-8)
                assert abs(analytic[i, j] - numeric) / denom <= 1e-5

    def test_transformed_variant_rotation(self):
        rng = np.random.default_rng(18)
        p = orthonormal_rows(2, 5, 9)
        head = Head(3, 2, rule="sgd", sgd_step_scale=0.5, basis=p)
        head.w = rng.standard_normal((3, 2))
        frozen = head.w.copy()
        head.transform(-p)
        np.testing.assert_allclose(head.w, -frozen, atol=1e-15)
        head.update(np.zeros(3), np.ones(5), -p)
        np.testing.assert_allclose(head.w, -frozen, atol=1e-15)  # x=0 leaves weights alone

    def test_prediction_surface_matches_ridge_layout(self):
        head = Head(2, 3, rule="sgd")
        head.w = np.arange(6, dtype=np.float64).reshape(2, 3)
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(head.predict(x), head.w.T @ x)
        p = np.eye(3)[:2]
        np.testing.assert_array_equal(p @ head.predict(x), (head.w.T @ x)[:2])

    def test_snapshot_round_trips(self):
        head = Head(2, 2, rule="sgd")
        head.w = np.array([[1.0, 2.0], [3.0, 4.0]])
        head.update(np.array([1.0, 0.0]), np.zeros(2))
        back = round_trip(head, Head(2, 2, rule="sgd"))
        np.testing.assert_array_equal(back.w, head.w)
        assert back.t == head.t == 1 and back.acc is None
        tr = Head(2, 1, rule="sgd", basis=orthonormal_rows(1, 3, 10))
        tr.w = np.array([[0.5], [0.25]])
        back2 = round_trip(tr, Head(2, 1, rule="sgd", basis=orthonormal_rows(1, 3, 11)))
        np.testing.assert_array_equal(back2.w, tr.w)
        np.testing.assert_array_equal(back2.basis, tr.basis)


class TestEngineChoice:
    def test_threshold(self):
        assert suggest_engine(100, 100) == "ridge"
        assert suggest_engine(2000, 501) == "sgd"
        assert suggest_engine(1000, 1000) == "ridge"  # boundary stays exact
        assert suggest_engine(10, 10, threshold=50) == "sgd"

    def test_default_refresh_constant(self):
        assert DEFAULT_REFRESH_EVERY == 10_000
