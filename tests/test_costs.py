from fractions import Fraction

import numpy as np
import pytest

from csdpp.costs import (
    CostFunction,
    accuracy_loss,
    available_costs,
    check_condition,
    f1_loss,
    get_cost,
    hamming_loss,
    label_weights,
    native_order,
    random_order,
    rank_loss,
    register_cost,
)

Y = np.array([1, -1, 1], dtype=np.int8)
YHAT = np.array([1, 1, -1], dtype=np.int8)


class TestCostValues:
    def test_hand_values(self):
        assert hamming_loss(Y, YHAT) == pytest.approx(2 / 3, abs=1e-15)
        assert f1_loss(Y, YHAT) == pytest.approx(0.5, abs=1e-15)
        assert accuracy_loss(Y, YHAT) == pytest.approx(2 / 3, abs=1e-15)
        # pairs (0,1) and (2,1): one tie at 0.5, one misorder at 1 -> 0.75
        assert rank_loss(Y, YHAT) == pytest.approx(0.75, abs=1e-15)

    def test_perfect_prediction_is_free(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=int(rng.integers(1, 9)))
            for fn in (hamming_loss, rank_loss, f1_loss, accuracy_loss):
                assert fn(y, y) == 0.0

    def test_degenerate_all_negative(self):
        y = -np.ones(4, dtype=np.int8)
        for fn in (hamming_loss, rank_loss, f1_loss, accuracy_loss):
            assert fn(y, y) == 0.0

    def test_rank_degenerate_single_class(self):
        y = np.ones(3, dtype=np.int8)
        assert rank_loss(y, -y) == 0.0

    def test_range_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
            yhat = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
            for fn in (hamming_loss, rank_loss, f1_loss, accuracy_loss):
                c = fn(y, yhat)
                assert 0.0 <= c <= 1.0
        # hamming/f1/accuracy are 0 only on equality; rank can be 0 off-equality
        y = np.array([1, -1], dtype=np.int8)
        assert hamming_loss(y, -y) > 0 and f1_loss(y, -y) > 0 and accuracy_loss(y, -y) > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            hamming_loss(np.array([1, -1]), np.array([1, -1, 1]))
        with pytest.raises(ValueError, match="values"):
            hamming_loss(np.array([1, 0]), np.array([1, -1]))

    def test_registry(self):
        assert available_costs() == ["accuracy", "f1", "hamming", "rank"]
        assert get_cost("rank").name == "rank"
        with pytest.raises(ValueError, match="unknown cost"):
            get_cost("nope")
        custom = CostFunction("always-zero", lambda y, yhat: 0.0)
        register_cost(custom)
        try:
            assert get_cost("always-zero")(Y, YHAT) == 0.0
            with pytest.raises(ValueError, match="already registered"):
                register_cost(custom)
        finally:
            from csdpp.costs import _REGISTRY

            _REGISTRY.pop("always-zero")


class TestLabelWeights:
    def test_hamming_uniform(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
            yhat = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
            w = label_weights(get_cost("hamming"), y, yhat, rng.permutation(k))
            # each weight must be the exact double of 1/K
            assert all(d == 1.0 / k for d in w.deltas)

    def test_f1_hand_weight(self):
        y = np.array([1, 1, -1], dtype=np.int8)
        yhat = np.array([1, -1, -1], dtype=np.int8)
        w = label_weights(get_cost("f1"), y, yhat)
        assert w.deltas[1] == pytest.approx(1 / 3, abs=1e-15)
        disagreement = y != yhat
        assert np.sum(w.deltas[disagreement]) == pytest.approx(f1_loss(y, yhat), abs=1e-12)

    def test_weights_can_be_nonzero_on_agreement(self):
        y = np.array([1, -1], dtype=np.int8)
        w = label_weights(get_cost("f1"), y, y)
        assert w.deltas[0] > 0  # hypothetical flip is priced even when correct

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(3)
        for name in available_costs():
            cost = get_cost(name)
            for _ in range(300):
                k = int(rng.integers(2, 13))
                y = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
                yhat = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
                order = rng.permutation(k)
                w = label_weights(cost, y, yhat, order)
                lhs = float(np.sum(w.deltas[y != yhat]))
                assert lhs == pytest.approx(float(cost.raw(y, yhat)), abs=1e-12)

    def test_exact_rational_internals(self):
        # the exactness downstream bitwise equality relies on
        assert get_cost("hamming").raw(Y, YHAT) == Fraction(2, 3)
        assert float(Fraction(1, 7)) == 1.0 / 7

    def test_weight_matrix_examples(self):
        # the weighting matrix C = diag(sqrt(deltas)) is applied as the vector sqrt_deltas
        w = label_weights(get_cost("hamming"), Y, YHAT)
        np.testing.assert_allclose(w.sqrt_deltas * Y, Y / np.sqrt(3), atol=1e-15)
        label_1_only = CostFunction("label-1-only", lambda y, yhat: Fraction(int(y[1] != yhat[1]), 3))
        wd = label_weights(label_1_only, Y, YHAT)
        np.testing.assert_array_equal(wd.deltas, [0.0, 1 / 3, 0.0])
        np.testing.assert_allclose(
            wd.sqrt_deltas * np.array([1, 1, -1]), [0, 1 / np.sqrt(3), 0], atol=1e-15
        )

    def test_zero_weights_silence_every_label(self):
        # the rank cost is 0 when the truth has no positive/negative pair
        wd = label_weights(get_cost("rank"), np.ones(3, dtype=np.int8), YHAT)
        np.testing.assert_array_equal(wd.deltas, np.zeros(3))
        np.testing.assert_array_equal(wd.sqrt_deltas * Y, np.zeros(3))

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            label_weights(get_cost("hamming"), Y, YHAT, np.array([0, 0, 2]))

    def test_orders(self):
        assert native_order(4).tolist() == [0, 1, 2, 3]
        a = random_order(6, seed=1)
        np.testing.assert_array_equal(a, random_order(6, seed=1))
        assert sorted(a.tolist()) == list(range(6))


class TestCondition:
    def test_builtins_pass(self):
        for name in available_costs():
            report = check_condition(get_cost(name), trials=1000, k_max=10, seed=0)
            assert report.passed, report.violations[:1]

    def test_constant_zero_cost_passes(self):
        zero = CostFunction("zero", lambda y, yhat: 0.0)
        assert check_condition(zero, trials=200, k_max=6).passed

    def test_violating_cost_is_caught(self):
        # rewards wrongness: gap goes negative
        bad = CostFunction("bad", lambda y, yhat: float(np.count_nonzero(y == yhat)) / y.size)
        report = check_condition(bad, trials=200, k_max=6)
        assert not report.passed
        assert report.violations[0]["gap"] < 0
