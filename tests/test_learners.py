import json

import numpy as np
import pytest

from csdpp.costs import _REGISTRY, CostFunction, get_cost, hamming_loss, register_cost
from csdpp.evaluation import offline_plst
from csdpp.learners import (
    ALGORITHMS,
    Learner,
    LearnerConfig,
    decode,
    from_snapshot,
    make_learner,
    play,
    to_snapshot,
)
from csdpp.regressor import Head
from csdpp.stream import planted_subspace_stream


def small_stream(d=8, k=6, t=120, seed=0, prototypes=3):
    return planted_subspace_stream(d, k, t, seed=seed, n_prototypes=prototypes)


class TestDecode:
    def test_zero_code_gives_all_positive(self):
        basis = np.eye(4)[:2]
        np.testing.assert_array_equal(decode(basis, np.zeros(2)), np.ones(4, dtype=np.int8))

    def test_identity_rows_hand_example(self):
        basis = np.eye(3)[:2]
        got = decode(basis, np.array([-2.0, 3.0]))
        np.testing.assert_array_equal(got, np.array([-1, 1, 1], dtype=np.int8))

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0].T
        code = rng.standard_normal(2)
        base = decode(basis, code)
        for c in (0.1, 3.0, 1e6):
            np.testing.assert_array_equal(decode(basis, c * code), base)

    def test_offset_shifts_threshold(self):
        basis = np.eye(2)
        got = decode(basis, np.array([-0.5, -0.5]), offset=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(got, np.array([1, -1], dtype=np.int8))

    def test_output_dtype(self):
        assert decode(np.eye(2), np.zeros(2)).dtype == np.int8


class TestConfig:
    def test_resolve_m(self):
        assert LearnerConfig(m=3).resolve_m(10) == 3
        assert LearnerConfig(m_frac=0.25).resolve_m(8) == 2
        assert LearnerConfig(m_frac=0.5).resolve_m(10) == 5
        assert LearnerConfig(m=7, m_frac=0.1).resolve_m(10) == 7  # explicit m wins

    def test_resolve_engine(self):
        assert LearnerConfig(engine="ridge").resolve_engine(10, 10) == "ridge"
        assert LearnerConfig(engine="auto").resolve_engine(10, 10) == "ridge"
        assert LearnerConfig(engine="auto").resolve_engine(2000, 1000) == "sgd"
        with pytest.raises(ValueError, match="engine"):
            LearnerConfig(engine="quantum").resolve_engine(10, 10)

    def test_bad_code_dimension_rejected(self):
        with pytest.raises(ValueError, match="1 <= M < K"):
            make_learner(LearnerConfig(algorithm="dpp-pbc", m=6), d=4, k=6)
        with pytest.raises(ValueError, match="1 <= M < K"):
            make_learner(LearnerConfig(algorithm="dpp-pbc", m_frac=0.01), d=4, k=6)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_learner(LearnerConfig(algorithm="dpp-magic"), d=4, k=6)

    def test_factory_dispatch(self):
        # algorithm -> (tracked encoder, cost-weighted, head width, head rotated)
        plans = {
            "dpp-pbc": (True, False, 6, False),
            "dpp-pbt": (True, False, 2, True),
            "dpp-naive": (True, False, 2, False),
            "cs-dpp-pbc": (True, True, 6, False),
            "cs-dpp-pbt": (True, True, 2, True),
            "o-br": (False, False, 6, False),
            "o-rand": (False, False, 2, False),
        }
        assert set(plans) == set(ALGORITHMS)
        for algo, plan in plans.items():
            learner = make_learner(LearnerConfig(algorithm=algo, m=2), 4, 6)
            assert isinstance(learner, Learner)
            got = (learner.msg is not None, learner.weighted, learner.head.w.shape[1],
                   learner.head.basis is not None)
            assert got == plan, algo

    def test_unknown_label_order(self):
        with pytest.raises(ValueError, match="label order"):
            make_learner(LearnerConfig(algorithm="dpp-pbc", m=2, label_order="sorted"), 4, 6)

    def test_custom_cost_probe(self):
        def rewards_wrongness(y, y_hat):
            agree = sum(a == b for a, b in zip(y, y_hat))
            return agree / len(y)

        register_cost(CostFunction("anti-agreement", rewards_wrongness))
        try:
            with pytest.raises(ValueError, match="decomposition condition"):
                make_learner(LearnerConfig(algorithm="cs-dpp-pbc", m=2, cost="anti-agreement"), 4, 6)
            learner = make_learner(
                LearnerConfig(algorithm="cs-dpp-pbc", m=2, cost="anti-agreement", trust_cost=True),
                4,
                6,
            )
            assert learner.cost.name == "anti-agreement"
        finally:
            _REGISTRY.pop("anti-agreement")


class TestDeterminism:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_replay_is_bitwise_identical(self, algo):
        stream = small_stream(seed=1)
        cfg = LearnerConfig(algorithm=algo, m=2, seed=5)
        rec_a = play(make_learner(cfg, 8, 6), stream)
        rec_b = play(make_learner(cfg, 8, 6), stream)
        for a, b in zip(rec_a, rec_b):
            np.testing.assert_array_equal(a.y_hat, b.y_hat)
            assert a.incurred_cost == b.incurred_cost

    def test_seed_changes_trajectory(self):
        stream = small_stream(seed=2)
        cfg_a = LearnerConfig(algorithm="dpp-pbc", m=2, seed=0)
        cfg_b = LearnerConfig(algorithm="dpp-pbc", m=2, seed=99)
        la, lb = make_learner(cfg_a, 8, 6), make_learner(cfg_b, 8, 6)
        play(la, stream)
        play(lb, stream)
        assert not np.allclose(la.msg.q, lb.msg.q)

    @pytest.mark.parametrize("engine", ["ridge", "sgd"])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_snapshot_resume_matches_uninterrupted_run(self, algo, engine):
        stream = small_stream(t=160, seed=3)
        cfg = LearnerConfig(algorithm=algo, m=2, cost="f1", engine=engine, seed=7)
        straight = make_learner(cfg, 8, 6)
        rec_all = play(straight, stream)

        first = make_learner(cfg, 8, 6)
        play(first, stream[:80])
        snap = json.loads(json.dumps(to_snapshot(first)))
        resumed = from_snapshot(make_learner(cfg, 8, 6), snap)
        rec_tail = play(resumed, stream[80:])
        for a, b in zip(rec_all[80:], rec_tail):
            np.testing.assert_array_equal(a.y_hat, b.y_hat)
            assert a.incurred_cost == b.incurred_cost
        assert to_snapshot(resumed) == to_snapshot(straight)

    def test_record_step_indices(self):
        stream = small_stream(t=10, seed=4)
        recs = play(make_learner(LearnerConfig(algorithm="o-br"), 8, 6), stream)
        assert [r.t for r in recs] == list(range(1, 11))
        assert all(r.elapsed >= 0 for r in recs)


class TestCostWeightingEquivalence:
    @pytest.mark.parametrize("variant", ["pbc", "pbt"])
    def test_uniform_cost_weighting_matches_unweighted(self, variant):
        # under symmetric per-label pricing the extracted weights equal the
        # uniform 1/sqrt(K) scaling as exact floats, so the weighted and
        # unweighted learners follow bit-identical trajectories
        stream = small_stream(t=300, seed=5)
        plain = make_learner(
            LearnerConfig(algorithm=f"dpp-{variant}", m=2, cost="hamming", seed=11), 8, 6
        )
        weighted = make_learner(
            LearnerConfig(algorithm=f"cs-dpp-{variant}", m=2, cost="hamming", seed=11), 8, 6
        )
        for inst in stream:
            ra = plain.step(inst.features, inst.labels)
            rb = weighted.step(inst.features, inst.labels)
            np.testing.assert_array_equal(ra.y_hat, rb.y_hat)
            assert ra.incurred_cost == rb.incurred_cost
            np.testing.assert_array_equal(plain.basis, weighted.basis)

    def test_asymmetric_cost_diverges(self):
        stream = small_stream(t=200, seed=6)
        plain = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2, cost="f1", seed=1), 8, 6)
        weighted = make_learner(LearnerConfig(algorithm="cs-dpp-pbc", m=2, cost="f1", seed=1), 8, 6)
        play(plain, stream)
        play(weighted, stream)
        assert not np.allclose(plain.msg.reconstruct(), weighted.msg.reconstruct())

    @pytest.mark.parametrize("cost", ["f1", "accuracy", "rank"])
    def test_weighted_runs_keep_tracker_feasible(self, cost):
        stream = small_stream(t=150, seed=7)
        learner = make_learner(LearnerConfig(algorithm="cs-dpp-pbc", m=2, cost=cost, seed=2), 8, 6)
        play(learner, stream)
        learner.msg.validate()


class TestAudit:
    @pytest.mark.parametrize(
        "algo,cost", [("dpp-pbc", "hamming"), ("cs-dpp-pbc", "f1"), ("cs-dpp-pbt", "accuracy")]
    )
    def test_decoding_bound_never_violated(self, algo, cost):
        stream = small_stream(t=200, seed=8)
        learner = make_learner(LearnerConfig(algorithm=algo, m=2, cost=cost, audit=True, seed=3), 8, 6)
        play(learner, stream)
        assert learner.audit.checks == 200
        assert learner.audit.violations == 0

    def test_audit_disabled_by_default(self):
        learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2), 8, 6)
        assert learner.audit is None


class TestBinaryRelevance:
    def test_cold_start_predicts_all_positive(self):
        learner = make_learner(LearnerConfig(algorithm="o-br"), 5, 4)
        got = learner.predict(np.random.default_rng(0).standard_normal(5))
        np.testing.assert_array_equal(got, np.ones(4, dtype=np.int8))

    def test_single_label_stream(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(6)
        learner = make_learner(LearnerConfig(algorithm="o-br"), 6, 1)
        errs = []
        for _ in range(400):
            x = rng.standard_normal(6)
            y = np.array([1 if w @ x >= 0 else -1], dtype=np.int8)
            errs.append(learner.step(x, y).incurred_cost)
        assert np.mean(errs[-100:]) < 0.15

    def test_scaled_targets_do_not_change_decisions(self):
        # training the label-space head on y/sqrt(K) scales the head linearly,
        # so its sign decisions match the raw-label head exactly
        rng = np.random.default_rng(2)
        d, k = 6, 5
        br = make_learner(LearnerConfig(algorithm="o-br"), d, k)
        scaled = Head(d, k)
        s = 1.0 / np.sqrt(k)
        for _ in range(150):
            x = rng.standard_normal(d)
            y = rng.choice([-1.0, 1.0], size=k)
            br.step(x, y.astype(np.int8))
            scaled.update(x, s * y)
        np.testing.assert_allclose(scaled.w, br.head.w * s, atol=1e-12)
        for _ in range(20):
            x = rng.standard_normal(d)
            lhs = np.where(scaled.predict(x) >= 0, 1, -1)
            np.testing.assert_array_equal(lhs, br.predict(x))


class TestRandomProjection:
    def test_projection_is_seeded_and_fixed(self):
        a = make_learner(LearnerConfig(algorithm="o-rand", m=2, seed=4), 5, 6)
        b = make_learner(LearnerConfig(algorithm="o-rand", m=2, seed=4), 5, 6)
        np.testing.assert_array_equal(a.basis, b.basis)
        before = a.basis.copy()
        play(a, small_stream(d=5, t=30, seed=9))
        np.testing.assert_array_equal(a.basis, before)

    def test_decoder_is_pseudo_inverse(self):
        learner = make_learner(LearnerConfig(algorithm="o-rand", m=2, seed=5), 5, 6)
        np.testing.assert_allclose(learner.decoder, np.linalg.pinv(learner.basis), atol=1e-12)
        rows = np.linalg.qr(learner.basis.T)[0].T  # row-orthonormal variant
        np.testing.assert_allclose(np.linalg.pinv(rows), rows.T, atol=1e-12)

    def test_square_projection_tracks_binary_relevance(self):
        # an invertible square projection is information-preserving, so the
        # projected learner's average price stays within a whisker of o-br's
        stream = small_stream(d=6, k=5, t=500, seed=10)
        br = make_learner(LearnerConfig(algorithm="o-br", seed=6), 6, 5)
        rand = make_learner(LearnerConfig(algorithm="o-rand", m=5, seed=6), 6, 5)
        cost_br = np.mean([r.incurred_cost for r in play(br, stream)])
        cost_rand = np.mean([r.incurred_cost for r in play(rand, stream)])
        assert abs(cost_br - cost_rand) <= 0.02

    def test_allows_m_equal_k_but_not_more(self):
        make_learner(LearnerConfig(algorithm="o-rand", m=6), 4, 6)
        with pytest.raises(ValueError, match="1 <= M <= K"):
            make_learner(LearnerConfig(algorithm="o-rand", m=7), 4, 6)


class TestLearning:
    def test_low_rank_stream_is_learned(self):
        stream = planted_subspace_stream(20, 10, 5000, seed=42, n_prototypes=5)
        learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=5, seed=0), 20, 10)
        records = play(learner, stream)
        final_avg = np.mean([r.incurred_cost for r in records])
        assert final_avg < 0.05
        # hindsight two-stage fit on the same data sets the floor
        ref = offline_plst(stream, 5)
        oracle_avg = np.mean(
            [
                hamming_loss(inst.labels, decode(ref.basis, ref.w.T @ inst.features))
                for inst in stream
            ]
        )
        assert oracle_avg < 0.02

    @pytest.mark.parametrize("algo", ["dpp-pbc", "dpp-pbt", "dpp-naive", "cs-dpp-pbc", "cs-dpp-pbt"])
    def test_sgd_engine_runs_and_stays_feasible(self, algo):
        stream = small_stream(t=150, seed=11)
        learner = make_learner(
            LearnerConfig(algorithm=algo, m=2, engine="sgd", sgd_step_scale=0.5, seed=1), 8, 6
        )
        play(learner, stream)
        learner.msg.validate()

    def test_sgd_baselines_run(self):
        stream = small_stream(t=60, seed=12)
        for algo in ("o-br", "o-rand"):
            learner = make_learner(LearnerConfig(algorithm=algo, m=2, engine="sgd"), 8, 6)
            recs = play(learner, stream)
            assert len(recs) == 60

    def test_random_label_order_is_seeded(self):
        cfg = LearnerConfig(algorithm="cs-dpp-pbc", m=2, cost="f1", label_order="random", order_seed=3)
        a = make_learner(cfg, 8, 6)
        b = make_learner(cfg, 8, 6)
        np.testing.assert_array_equal(a.order, b.order)
        assert sorted(a.order.tolist()) == list(range(6))

    def test_regret_snapshot_contract(self):
        ok = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2), 8, 6)
        snap = ok.regret_snapshot()
        assert set(snap) == {"q", "sigma", "h"}
        bad = make_learner(LearnerConfig(algorithm="dpp-naive", m=2), 8, 6)
        with pytest.raises(ValueError, match="label-space head"):
            bad.regret_snapshot()

    def test_incurred_cost_matches_configured_cost(self):
        stream = small_stream(t=40, seed=13)
        learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2, cost="rank", seed=2), 8, 6)
        rank = get_cost("rank")
        for inst in stream:
            predicted = learner.predict(inst.features)
            rec = learner.step(inst.features, inst.labels)
            np.testing.assert_array_equal(rec.y_hat, predicted)
            assert rec.incurred_cost == rank(inst.labels, predicted)
