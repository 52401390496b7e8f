import itertools
from fractions import Fraction

import numpy as np
import pytest

from csdpp import costs
from csdpp.costs import (
    CostFunction,
    available_costs,
    check_condition,
    get_cost,
    label_weights,
    native_order,
    random_order,
    register_cost,
)
from csdpp.verify import walk_gaps

Y = np.array([1, -1, 1], dtype=np.int8)
YHAT = np.array([1, 1, -1], dtype=np.int8)
hamming, rank, f1, accuracy = (get_cost(name) for name in ("hamming", "rank", "f1", "accuracy"))
BUILTINS = (hamming, rank, f1, accuracy)


class TestCostValues:
    def test_hand_values(self):
        assert hamming(Y, YHAT) == pytest.approx(2 / 3, abs=1e-15)
        assert f1(Y, YHAT) == pytest.approx(0.5, abs=1e-15)
        assert accuracy(Y, YHAT) == pytest.approx(2 / 3, abs=1e-15)
        # pairs (0,1) and (2,1): one tie at 0.5, one misorder at 1 -> 0.75
        assert rank(Y, YHAT) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("name", available_costs())
    def test_each_prices_every_row_as_the_pair_call_does(self, name):
        cost = get_cost(name)
        rng = np.random.default_rng(12)
        signs = np.array([-1, 1], dtype=np.int8)
        for k in (1, 3, 20):
            y, yhat = rng.choice(signs, size=(50, k)), rng.choice(signs, size=(50, k))
            yhat[::7] = y[::7]
            yhat[1::9] = -1
            got = cost.each(y, yhat)
            assert all(type(value) is float for value in got)
            assert got == [cost(a, b) for a, b in zip(y, yhat)]
            assert cost.each(list(y), list(yhat)) == got  # a list of rows stacks alike

    def test_each_checks_its_arrays(self):
        y = np.ones((4, 3), dtype=np.int8)
        with pytest.raises(ValueError, match="share a \\(T, K\\) shape"):
            get_cost("f1").each(y, y[:3])
        with pytest.raises(ValueError, match="share a \\(T, K\\) shape"):
            get_cost("f1").each(y[0], y[0])
        bad = y.copy()
        bad[2, 1] = 0
        with pytest.raises(ValueError, match="values in"):
            get_cost("f1").each(y, bad)

    def test_one_pass_classifies_each_label_and_counts_each_row(self):
        from csdpp.costs import _validate_pair

        rng = np.random.default_rng(13)
        y = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, 9))
        yhat = rng.choice(np.array([-1.0, 1.0]), size=(40, 9))
        category, counts = _validate_pair(y, yhat, 2)
        np.testing.assert_array_equal(category, 2 * (yhat == -1) + (y == -1))  # 0 tp, 1 fp, 2 fn, 3 tn
        for row in range(40):
            one_category, one_counts = _validate_pair(y[row], yhat[row])
            np.testing.assert_array_equal(one_category, category[row])
            assert one_counts.dtype == counts.dtype == np.int64
            assert one_counts.tolist() == counts[:, row].tolist() == np.bincount(category[row], minlength=4).tolist()

    def test_perfect_prediction_is_free(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=int(rng.integers(1, 9)))
            for fn in BUILTINS:
                assert fn(y, y) == 0.0

    def test_degenerate_all_negative(self):
        y = -np.ones(4, dtype=np.int8)
        for fn in BUILTINS:
            assert fn(y, y) == 0.0

    def test_rank_degenerate_single_class(self):
        y = np.ones(3, dtype=np.int8)
        assert rank(y, -y) == 0.0

    def test_range_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
            yhat = rng.choice(np.array([-1, 1], dtype=np.int8), size=k)
            for fn in BUILTINS:
                c = fn(y, yhat)
                assert 0.0 <= c <= 1.0
        # hamming/f1/accuracy are 0 only on equality; rank can be 0 off-equality
        y = np.array([1, -1], dtype=np.int8)
        assert hamming(y, -y) > 0 and f1(y, -y) > 0 and accuracy(y, -y) > 0

    def test_price_is_the_double_nearest_the_exact_cost(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(1, 300))
            y = np.where(rng.random(k) < 0.3, 1, -1).astype(np.int8)
            yhat = np.where(rng.random(k) < 0.3, 1, -1).astype(np.int8)
            for name in available_costs():
                cost = get_cost(name)
                assert cost(y, yhat) == float(cost.raw(y, yhat))

    @pytest.mark.parametrize("name", available_costs())
    def test_one_vector_prices_on_ints_as_the_array_path_does(self, name):
        # every (tp, fp, fn, tn) with 1 <= tp + fp + fn + tn <= 8, one column each
        cost = get_cost(name)
        table = np.array([c for c in itertools.product(range(9), repeat=4) if 1 <= sum(c) <= 8]).T
        num, den = costs._priced(cost, table)
        assert num.dtype == den.dtype == np.int64 and den.min() >= 1
        for column, n, d in zip(table.T, num.tolist(), den.tolist()):
            got_num, got_den = costs._priced(cost, column)
            assert type(got_num) is int and type(got_den) is int
            assert (got_num, got_den) == (n, d)
            assert costs._price(cost, column) == n / d
        tp, fp, fn, tn = table  # the floor leaves the arrays np.maximum(den, 1) gave
        floored = {"rank": 2 * (tp + fn) * (fp + tn), "f1": 2 * tp + fp + fn, "accuracy": tp + fp + fn}
        if name in floored:
            np.testing.assert_array_equal(den, np.maximum(floored[name], 1))

    def test_custom_cost_may_return_numpy_scalars(self):
        scalars = CostFunction(
            "numpy-scalars", lambda tp, fp, fn, tn: (np.int64(fp + fn), np.maximum(tp + fp + fn + tn, 1))
        )
        rng = np.random.default_rng(3)
        signs = np.array([-1, 1], dtype=np.int8)
        y, yhat = rng.choice(signs, size=(20, 7)), rng.choice(signs, size=(20, 7))
        for a, b in zip(y, yhat):
            assert scalars(a, b) == hamming(a, b)
            assert scalars.raw(a, b) == hamming.raw(a, b)
            np.testing.assert_array_equal(label_weights(scalars, a, b), label_weights(hamming, a, b))
        assert scalars.each(y, yhat) == hamming.each(y, yhat)

    def test_custom_cost_gets_numpy_counts(self):
        # a custom cost may use ndarray methods: it gets int64 arrays, or int64 scalars for one vector
        seen = set()

        def counts(tp, fp, fn, tn):
            seen.add(type(tp))
            return fp + fn, (tp + fp + fn + tn).clip(1).astype(np.int64)

        methods = CostFunction("ndarray-methods", counts)
        rng = np.random.default_rng(5)
        signs = np.array([-1, 1], dtype=np.int8)
        y, yhat = rng.choice(signs, size=(20, 7)), rng.choice(signs, size=(20, 7))
        for a, b in zip(y, yhat):
            assert methods(a, b) == hamming(a, b)
            assert methods.raw(a, b) == hamming.raw(a, b)
            np.testing.assert_array_equal(label_weights(methods, a, b), label_weights(hamming, a, b))
        assert methods.each(y, yhat) == hamming.each(y, yhat)
        assert seen == {np.int64, np.ndarray}

    def test_a_custom_cost_is_checked_alike_for_one_vector_and_a_batch(self):
        wide = CostFunction("wide", lambda tp, fp, fn, tn: (fp + fn, 2**70))
        unpriced = CostFunction("unpriced", lambda tp, fp, fn, tn: (fp + fn, tp - tp))
        for cost, message in ((wide, "counts must return integers"), (unpriced, "denominator below 1")):
            for price in (cost, cost.raw, lambda a, b: label_weights(cost, a, b)):
                with pytest.raises(ValueError, match=f"'{cost.name}'.*{message}"):
                    price(Y, YHAT)
            with pytest.raises(ValueError, match=f"'{cost.name}'.*{message}"):
                cost.each(np.stack((Y, -Y)), np.stack((YHAT, YHAT)))

    def test_a_custom_cost_beyond_int64_is_rejected_not_wrapped(self):
        # 2**63 comes back as a uint64, which the int64 cast would wrap negative
        over_den = CostFunction("over-den", lambda tp, fp, fn, tn: (fp + fn, 2**63))
        over_num = CostFunction("over-num", lambda tp, fp, fn, tn: (np.uint64(2**63), tp + fp + fn + tn))
        within = CostFunction("within", lambda tp, fp, fn, tn: (np.uint64(2) * (fp + fn > 0), np.uint64(2**63 - 1)))
        for cost in (over_den, over_num):
            for price in (cost, cost.raw, lambda a, b: label_weights(cost, a, b)):
                with pytest.raises(ValueError, match=f"'{cost.name}'.*counts must return integers"):
                    price(Y, YHAT)
            with pytest.raises(ValueError, match=f"'{cost.name}'.*counts must return integers"):
                cost.each(np.stack((Y, -Y)), np.stack((YHAT, YHAT)))
        assert within.raw(Y, YHAT) == Fraction(2, 2**63 - 1)
        assert within(Y, YHAT) == 2 / (2**63 - 1)

    def test_only_the_builtins_are_condition_verified(self):
        assert [name for name in available_costs() if get_cost(name).condition_verified] == sorted(
            cost.name for cost in BUILTINS
        )
        custom = CostFunction("x", lambda tp, fp, fn, tn: (fp + fn, tp + fp + fn + tn))
        assert custom.condition_verified is False
        with pytest.raises(TypeError):
            CostFunction("x", custom.counts, condition_verified=True)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            hamming(np.array([1, -1]), np.array([1, -1, 1]))
        with pytest.raises(ValueError, match="values"):
            hamming(np.array([1, 0]), np.array([1, -1]))
        with pytest.raises(ValueError, match="values"):
            hamming(np.array([1, -1]), np.array([1.0, np.nan]))

    def test_registry(self):
        assert available_costs() == ["accuracy", "f1", "hamming", "rank"]
        assert get_cost("rank").name == "rank"
        with pytest.raises(ValueError, match="unknown cost"):
            get_cost("nope")
        custom = CostFunction("always-zero", lambda tp, fp, fn, tn: (0, 1))
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
            assert all(d == 1.0 / k for d in w)

    def test_f1_hand_weight(self):
        y = np.array([1, 1, -1], dtype=np.int8)
        yhat = np.array([1, -1, -1], dtype=np.int8)
        w = label_weights(get_cost("f1"), y, yhat)
        assert w[1] == pytest.approx(1 / 3, abs=1e-15)
        disagreement = y != yhat
        assert np.sum(w[disagreement]) == pytest.approx(f1(y, yhat), abs=1e-12)

    def test_weights_can_be_nonzero_on_agreement(self):
        y = np.array([1, -1], dtype=np.int8)
        w = label_weights(get_cost("f1"), y, y)
        assert w[0] > 0  # hypothetical flip is priced even when correct

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
                lhs = float(np.sum(w[y != yhat]))
                assert lhs == pytest.approx(float(cost.raw(y, yhat)), abs=1e-12)

    def test_exact_rational_internals(self):
        # the exactness downstream bitwise equality relies on
        assert get_cost("hamming").raw(Y, YHAT) == Fraction(2, 3)
        assert float(Fraction(1, 7)) == 1.0 / 7

    def test_weight_matrix_examples(self):
        # the weighting matrix C = diag(sqrt(weights)) is applied as the vector sqrt(weights)
        w = label_weights(get_cost("hamming"), Y, YHAT)
        np.testing.assert_allclose(np.sqrt(w) * Y, Y / np.sqrt(3), atol=1e-15)
        # a cost that prices only missed positives silences the negative label
        false_negatives = CostFunction("false-negatives", lambda tp, fp, fn, tn: (fn, tp + fp + fn + tn))
        wd = label_weights(false_negatives, Y, YHAT)
        np.testing.assert_array_equal(wd, [1 / 3, 0.0, 1 / 3])
        np.testing.assert_allclose(np.sqrt(wd) * Y, [1 / np.sqrt(3), 0, 1 / np.sqrt(3)], atol=1e-15)

    def test_weights_equal_the_rational_walk(self):
        # bit for bit: every order at K <= 4, then random triples at K <= 64
        signs = np.array([-1, 1], dtype=np.int8)
        triples = [
            (signs[(i >> np.arange(k)) & 1], signs[(j >> np.arange(k)) & 1], np.array(order))
            for k in range(1, 5)
            for i in range(2**k)
            for j in range(2**k)
            for order in itertools.permutations(range(k))
        ]
        rng = np.random.default_rng(4)
        for _ in range(150):
            k = int(rng.integers(1, 65))
            p = rng.uniform(0.05, 0.95)
            y = np.where(rng.random(k) < p, 1, -1).astype(np.int8)
            yhat = np.where(rng.random(k) < p, 1, -1).astype(np.int8)
            triples.append((y, yhat, rng.permutation(k)))
        for name in available_costs():
            cost = get_cost(name)
            for y, yhat, order in triples:
                got = label_weights(cost, y, yhat, order)
                np.testing.assert_array_equal(got, np.abs(walk_gaps(cost, y, yhat, order)))

    def test_exactness_guard(self):
        # balanced rank denominators are 2 (K/2)^2, so their square reaches 2**53 between K = 13,000 and
        # 14,000; the built-in rank takes its table, so its lambda walks as a custom cost
        walked_rank = CostFunction("walked-rank", lambda *counts: rank.counts(*counts))
        y = np.tile(np.array([1, -1], dtype=np.int8), 6_500)
        assert label_weights(walked_rank, y, -y).sum() == pytest.approx(rank(y, -y), abs=1e-9)
        y = np.tile(np.array([1, -1], dtype=np.int8), 7_000)
        with pytest.raises(ValueError, match="'walked-rank'.*2\\*\\*53"):
            label_weights(walked_rank, y, -y)
        huge = CostFunction("huge", lambda tp, fp, fn, tn: (fp + fn, (tp + fp + fn + tn) * 2**40))
        with pytest.raises(ValueError, match="'huge'.*2\\*\\*53"):
            label_weights(huge, Y, YHAT)
        fractional = CostFunction("fractional", lambda tp, fp, fn, tn: ((fp + fn) / 2, tp + fp + fn + tn))
        with pytest.raises(ValueError, match="'fractional'.*integers"):
            label_weights(fractional, Y, YHAT)
        with pytest.raises(ValueError, match="'fractional'.*integers"):
            fractional(Y, YHAT)
        unpriced = CostFunction("unpriced", lambda tp, fp, fn, tn: (fp + fn, tp - tp))
        with pytest.raises(ValueError, match="'unpriced'.*denominator below 1"):
            label_weights(unpriced, Y, YHAT)

    @pytest.mark.parametrize("cost", BUILTINS, ids=lambda cost: cost.name)
    def test_a_builtins_value_at_k_bounds_every_walk_position(self, cost):
        # a walk position's counts lie in [0, K]; where (K, K, K, K) squares below 2**53, no scan runs
        for k in range(1, 11):
            num_bound, den_bound = cost.counts(k, k, k, k)
            for counts in itertools.product(range(k + 1), repeat=4):
                num, den = cost.counts(*counts)
                assert abs(num) <= num_bound and den <= den_bound, (k, counts)

    @pytest.mark.parametrize("k", [200, 4096])
    def test_a_scanned_custom_cost_gives_the_builtins_bits(self, k):
        # a custom cost always walks and is always scanned, while the built-in rank takes its table;
        # at K = 4,096 rank's bound proves nothing, so its walk would be scanned too
        assert (max(rank.counts(k, k, k, k)) ** 2 < 2**53) == (k == 200)
        scanned = CostFunction("scanned-rank", lambda *counts: rank.counts(*counts))
        rng = np.random.default_rng(k)
        for p in (0.05, 0.5):
            y = np.where(rng.random(k) < p, 1, -1).astype(np.int8)
            yhat = np.where(rng.random(k) < p, 1, -1).astype(np.int8)
            for order in (None, rng.permutation(k)):
                got = label_weights(scanned, y, yhat, order)
                assert got.tobytes() == label_weights(rank, y, yhat, order).tobytes()

    @staticmethod
    def table_against_walk(cost, y, yhat, orders):
        """Each label's table gap against the array walk's gap at its position, in every order of ``orders``."""
        table = costs._gaps(cost, *costs._validate_pair(y, yhat), None)
        rows = len(orders)
        walked = costs._gaps(cost, *costs._validate_pair(np.tile(y, (rows, 1)), np.tile(yhat, (rows, 1)), 2), orders)
        assert (table >= 0).all() and walked.tobytes() == np.tile(table, (rows, 1)).tobytes()

    @pytest.mark.parametrize("cost", [hamming, rank], ids=lambda cost: cost.name)
    def test_the_walk_free_table_is_the_walk_at_every_position(self, cost):
        # every (y, yhat, order) at K <= 5, then random triples at K = 200 in native and random order
        assert costs._WALK_FREE == {hamming.counts, rank.counts}
        signs = np.array([-1, 1], dtype=np.int8)
        for k in range(1, 6):
            orders = np.array(list(itertools.permutations(range(k))))
            for i in range(2**k):
                for j in range(2**k):
                    self.table_against_walk(cost, signs[(i >> np.arange(k)) & 1], signs[(j >> np.arange(k)) & 1], orders)
        rng = np.random.default_rng(23)
        for p in (0.005, 0.05, 0.5, 0.95):
            y = np.where(rng.random(200) < p, 1, -1).astype(np.int8)
            yhat = np.where(rng.random(200) < p, 1, -1).astype(np.int8)
            orders = np.stack([np.arange(200), *(rng.permutation(200) for _ in range(5))])
            self.table_against_walk(cost, y, yhat, orders)

    def test_rank_past_the_old_exactness_bound(self):
        # at K = 20,000 the walk's count products pass 2**53; the table is exact at any K
        rng = np.random.default_rng(20_000)
        y = rng.choice(np.array([-1, 1], dtype=np.int8), size=20_000)
        yhat = rng.choice(np.array([-1, 1], dtype=np.int8), size=20_000)
        p, n = int(np.count_nonzero(y == 1)), int(np.count_nonzero(y == -1))
        assert max(rank.counts(p, n, p, n)) ** 2 >= 2**53
        for order in (None, rng.permutation(20_000)):
            w = label_weights(rank, y, yhat, order)
            assert (w[y == 1] == float(Fraction(1, 2 * p))).all() and (w[y == -1] == float(Fraction(1, 2 * n))).all()
            assert (label_weights(hamming, y, yhat, order) == float(Fraction(1, 20_000))).all()
        assert float(np.sum(w[y != yhat])) == pytest.approx(rank(y, yhat), abs=1e-12)

    @pytest.mark.parametrize("cost", [hamming, rank], ids=lambda cost: cost.name)
    @pytest.mark.parametrize("order", [[0, 0, 2], [0, 1], [1, 2, 3], [[0, 1, 2]]])
    def test_a_walk_free_cost_still_checks_its_order(self, cost, order):
        with pytest.raises(ValueError, match="permutation"):
            label_weights(cost, Y, YHAT, np.array(order))

    def test_zero_weights_silence_every_label(self):
        # the rank cost is 0 when the truth has no positive/negative pair
        wd = label_weights(get_cost("rank"), np.ones(3, dtype=np.int8), YHAT)
        np.testing.assert_array_equal(wd, np.zeros(3))
        np.testing.assert_array_equal(np.sqrt(wd) * Y, np.zeros(3))

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
        zero = CostFunction("zero", lambda tp, fp, fn, tn: (0, 1))
        assert check_condition(zero, trials=200, k_max=6).passed

    def test_violating_cost_is_caught(self):
        # rewards wrongness: gap goes negative
        bad = CostFunction("bad", lambda tp, fp, fn, tn: (tp + tn, tp + fp + fn + tn))
        report = check_condition(bad, trials=200, k_max=6)
        assert not report.passed
        assert report.violations[0]["gap"] < 0
