import hashlib
import json

import numpy as np
import pytest

from csdpp import costs, learners
from csdpp.costs import _REGISTRY, CostFunction, get_cost, register_cost
from csdpp.evaluation import offline_plst
from csdpp.learners import (
    ALGORITHMS,
    Learner,
    LearnerConfig,
    Lockstep,
    decode,
    from_snapshot,
    make_learner,
    play,
    to_snapshot,
    tracker_key,
    trajectory,
)
from csdpp.online_pca import CappedMsgState
from csdpp.regressor import Head, RidgeAccumulator
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
            got = (learner.msg is not None, learner.weighted, learner.head.w.shape[1], learner.rotated)
            assert got == plan, algo

    @pytest.mark.parametrize(
        "knobs, match",
        [
            ({"lam": float("nan")}, "ridge strength"),
            ({"lam": float("inf")}, "ridge strength"),
            ({"engine": "sgd", "sgd_step_scale": float("nan")}, "non-negative"),
            ({"engine": "sgd", "sgd_step_scale": float("inf")}, "non-negative"),
            ({"eta_scale": -2.0}, "non-negative"),
            ({"eta_scale": float("nan")}, "non-negative"),
            ({"eta_scale": float("inf")}, "non-negative"),
        ],
    )
    def test_out_of_range_knobs_rejected(self, knobs, match):
        # NaN passes a `< 0` or `<= 0` check, and an infinite knob freezes or breaks the run
        with pytest.raises(ValueError, match=match):
            make_learner(LearnerConfig(algorithm="dpp-pbc", m=2, **knobs), 8, 6)

    def test_unknown_label_order(self):
        with pytest.raises(ValueError, match="label order"):
            make_learner(LearnerConfig(algorithm="dpp-pbc", m=2, label_order="sorted"), 4, 6)

    def test_custom_cost_probe(self):
        def rewards_wrongness(tp, fp, fn, tn):
            return tp + tn, tp + fp + fn + tn

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

    @pytest.mark.parametrize("at", [0, 1, 5])
    @pytest.mark.parametrize("algo", [algo for algo in ALGORITHMS if algo.startswith(("dpp-", "cs-dpp-"))])
    def test_early_snapshot_resumes_bit_for_bit(self, algo, at):
        # until the first update the frame and the basis are F-contiguous, and BLAS rounds by memory order
        d, k = 30, 40
        stream = planted_subspace_stream(d, k, at + 50, seed=1, n_prototypes=3)
        cfg = LearnerConfig(algorithm=algo, cost="f1", m_frac=0.25, seed=7)
        straight = make_learner(cfg, d, k)
        play(straight, stream[:at])
        resumed = from_snapshot(make_learner(cfg, d, k), json.loads(json.dumps(to_snapshot(straight))))
        tracker = from_snapshot(make_learner(cfg, d, k).msg, json.loads(json.dumps(to_snapshot(straight.msg))))
        alone = CappedMsgState(straight.msg.q, straight.msg.sigma, straight.msg.m, straight.msg.schedule)
        assert [(r.y_hat.tobytes(), r.incurred_cost) for r in play(resumed, stream[at:])] == [
            (r.y_hat.tobytes(), r.incurred_cost) for r in play(straight, stream[at:])
        ]
        assert json.dumps(to_snapshot(resumed)) == json.dumps(to_snapshot(straight))
        for t, inst in enumerate(stream[at:], start=at + 1):
            alone.update(inst.labels / np.sqrt(k), t)
            tracker.update(inst.labels / np.sqrt(k), t)
        assert json.dumps(to_snapshot(tracker)) == json.dumps(to_snapshot(alone))

    @pytest.mark.parametrize("algo", ["dpp-pbt", "cs-dpp-pbt"])
    def test_rotated_snapshot_carries_the_basis_once(self, algo):
        stream = small_stream(t=120, seed=5)
        cfg = LearnerConfig(algorithm=algo, m=2, cost="f1", seed=7)
        straight = make_learner(cfg, 8, 6)
        rec_all = play(straight, stream)
        first = make_learner(cfg, 8, 6)
        play(first, stream[:50])
        snap = json.loads(json.dumps(to_snapshot(first)))
        assert "basis" in snap and "basis" not in snap["head"]
        resumed = from_snapshot(make_learner(cfg, 8, 6), snap)
        rec_tail = play(resumed, stream[50:])
        assert [(r.y_hat.tobytes(), r.incurred_cost) for r in rec_tail] == [
            (r.y_hat.tobytes(), r.incurred_cost) for r in rec_all[50:]
        ]
        assert json.dumps(to_snapshot(resumed)) == json.dumps(to_snapshot(straight))
        snap["head"]["basis"] = snap["basis"]  # as an earlier version's head carried its own copy
        with pytest.raises(ValueError, match="snapshot fields"):
            from_snapshot(make_learner(cfg, 8, 6), snap)

    def test_record_step_indices(self):
        stream = small_stream(t=10, seed=4)
        recs = play(make_learner(LearnerConfig(algorithm="o-br"), 8, 6), stream)
        assert [r.t for r in recs] == list(range(1, 11))


def _lockstep_configs():
    # every algorithm under a cost-blind and a cost-weighted cost, at two M, and an SGD head
    configs = [LearnerConfig(algorithm=algo, cost=cost, m=m, seed=5)
               for algo in ALGORITHMS for cost in ("hamming", "f1") for m in (2, 3)]
    return configs + [LearnerConfig(algorithm="dpp-pbt", m=2, seed=5, engine="sgd")]


class TestLockstep:
    def test_every_learner_predicts_as_it_does_alone(self):
        stream = small_stream(t=150, seed=8)
        configs = _lockstep_configs()
        alone = [make_learner(cfg, 8, 6) for cfg in configs]
        alone_records = [play(learner, stream[:70]) for learner in alone]
        bundle = Lockstep()
        assert [bundle.add(cfg, 8, 6) for cfg in configs] == list(range(len(configs)))
        steps = play(bundle, stream[:70])
        for slot, (learner, records) in enumerate(zip(alone, alone_records)):
            for step, record in zip(steps, records):
                np.testing.assert_array_equal(step[slot].y_hat, record.y_hat)
                assert step[slot].incurred_cost == record.incurred_cost
            # mid-panel, the snapshot of a learner in the bundle is the one it would take alone
            assert to_snapshot(bundle.learners[slot]) == to_snapshot(learner)
        for learner, records in zip(alone, alone_records):
            records += play(learner, stream[70:])
        steps += play(bundle, stream[70:])
        for slot, records in enumerate(alone_records):
            assert [s[slot].y_hat.tobytes() for s in steps] == [r.y_hat.tobytes() for r in records]
        assert bundle.errors == [None] * len(configs)

    def test_add_builds_one_accumulator_per_ridge_key(self, monkeypatch):
        # lam=2 and lam=2.0 share one accumulator
        configs = _lockstep_configs() + [LearnerConfig(algorithm="o-br", lam=2.0), LearnerConfig(algorithm="o-br", lam=2)]
        built = []
        init = RidgeAccumulator.__init__

        def counting(acc, *args):
            built.append(acc)
            init(acc, *args)

        monkeypatch.setattr(RidgeAccumulator, "__init__", counting)
        bundle = Lockstep()
        assert [bundle.add(cfg, 8, 6) for cfg in configs] == list(range(len(configs)))
        monkeypatch.undo()
        assert [acc.lam for acc in built] == [1.0, 2.0]
        assert {id(learner.head.acc) for learner in bundle.learners if learner.head.acc is not None} == set(map(id, built))
        stream = small_stream(t=40, seed=2)
        steps = play(bundle, stream)
        for slot, cfg in enumerate(configs):
            alone = make_learner(cfg, 8, 6)
            records = play(alone, stream)
            assert [s[slot].y_hat.tobytes() for s in steps] == [r.y_hat.tobytes() for r in records]
            assert [s[slot].incurred_cost for s in steps] == [r.incurred_cost for r in records]
            assert to_snapshot(bundle.learners[slot]) == to_snapshot(alone)

    def test_shared_pieces_are_one_object_each(self):
        configs = _lockstep_configs()
        bundle = Lockstep()
        for cfg in configs:
            bundle.add(cfg, 8, 6)
        ridge = [learner.head.acc for learner in bundle.learners if learner.head.acc is not None]
        assert len(ridge) == len(configs) - 1 and all(acc is ridge[0] for acc in ridge)
        trackers = {}
        for learner in bundle.learners:
            key = tracker_key(learner.config, 6)
            if key is not None:
                assert trackers.setdefault(key, learner.msg) is learner.msg
        assert sorted(trackers) == [(2, 5, 2.0), (3, 5, 2.0)]
        own = [learner.msg for learner in bundle.learners if learner.weighted]
        assert len({id(msg) for msg in own}) == len(own) == 8

    def test_a_failing_learner_leaves_the_others_untouched(self, monkeypatch):
        stream = small_stream(t=90, seed=9)
        configs = _lockstep_configs()
        expected = [play(make_learner(cfg, 8, 6), stream) for cfg in configs]
        weigh = Learner._weigh
        lead = configs.index(LearnerConfig(algorithm="dpp-pbc", cost="hamming", m=2, seed=5))

        def failing(self, x, y):
            if self.config == configs[lead] and self.t == 49:
                raise RuntimeError("step 50 failed")
            return weigh(self, x, y)

        monkeypatch.setattr(Learner, "_weigh", failing)
        bundle = Lockstep()
        for cfg in configs:
            bundle.add(cfg, 8, 6)
        steps = play(bundle, stream)
        assert [str(exc) if exc else None for exc in bundle.errors] == [
            "step 50 failed" if slot == lead else None for slot in range(len(configs))]
        assert all(s[lead] is None for s in steps[49:]) and steps[48][lead].t == 49
        for slot, records in enumerate(expected):
            if slot != lead:
                assert [s[slot].y_hat.tobytes() for s in steps] == [r.y_hat.tobytes() for r in records]

    def test_add_builds_one_tracker_per_tracker_key(self, monkeypatch):
        configs = _lockstep_configs()
        built = []
        initialize = CappedMsgState.initialize
        monkeypatch.setattr(CappedMsgState, "initialize", lambda *args: built.append(args) or initialize(*args))
        bundle = Lockstep()
        for cfg in configs:
            bundle.add(cfg, 8, 6)
        monkeypatch.undo()
        # one for each of the keys (2, 5, 2.0) and (3, 5, 2.0), one for each cost-weighted learner
        assert len(built) == 2 + 8

    def test_a_failing_shared_tracker_stops_only_its_readers(self, monkeypatch):
        stream = small_stream(t=30, seed=4)
        configs = _lockstep_configs()
        expected = [play(make_learner(cfg, 8, 6), stream) for cfg in configs]
        bundle = Lockstep()
        for cfg in configs:
            bundle.add(cfg, 8, 6)
        msg = bundle.learners[configs.index(LearnerConfig(algorithm="dpp-pbc", cost="hamming", m=2, seed=5))].msg
        update = msg.update

        def failing(target, t, **kwargs):
            if t == 3:
                raise np.linalg.LinAlgError("eigensolver did not converge")
            return update(target, t, **kwargs)

        monkeypatch.setattr(msg, "update", failing)
        steps = play(bundle, stream)
        readers = [slot for slot, learner in enumerate(bundle.learners) if learner.msg is msg]
        assert len(readers) == 7  # dpp-pbc, dpp-pbt and dpp-naive under two costs, and the SGD dpp-pbt
        for slot, records in enumerate(expected):
            error = bundle.errors[slot]
            if slot in readers:
                assert isinstance(error, np.linalg.LinAlgError) and error is bundle.errors[readers[0]]
                assert [s[slot] for s in steps[2:]] == [None] * 28
                assert [s[slot].y_hat.tobytes() for s in steps[:2]] == [r.y_hat.tobytes() for r in records[:2]]
            else:
                assert error is None
                assert [s[slot].y_hat.tobytes() for s in steps] == [r.y_hat.tobytes() for r in records]
                assert [s[slot].incurred_cost for s in steps] == [r.incurred_cost for r in records]

    def test_join_before_any_step(self):
        stream = small_stream(t=3, seed=1)
        bundle = Lockstep()
        bundle.add(LearnerConfig(algorithm="o-br"), 8, 6)
        play(bundle, stream)
        with pytest.raises(ValueError, match="before the bundle has stepped"):
            bundle.add(LearnerConfig(algorithm="o-rand"), 8, 6)

    def test_tracker_key_names_the_uniform_tracked_learners(self):
        assert tracker_key(LearnerConfig(algorithm="dpp-naive", m_frac=0.5, seed=3, eta_scale=1.5), 8) == (4, 3, 1.5)
        for algo in ("cs-dpp-pbc", "cs-dpp-pbt", "o-br", "o-rand"):
            assert tracker_key(LearnerConfig(algorithm=algo, cost="hamming"), 8) is None


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

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_trajectory_config_plays_the_same_predictions(self, algorithm):
        stream = small_stream(t=150, seed=8)
        shared = set()
        for cost in costs.available_costs():
            config = LearnerConfig(algorithm=algorithm, m=2, cost=cost, seed=3)
            twin = trajectory(config)
            assert trajectory(twin) == twin
            shared.add(twin)
            ours = play(make_learner(config, 8, 6), stream)
            theirs = play(make_learner(twin, 8, 6), stream)
            for a, b in zip(ours, theirs):
                np.testing.assert_array_equal(a.y_hat, b.y_hat)
        weighted = algorithm.startswith("cs-")
        assert len(shared) == (len(costs.available_costs()) if weighted else 1)
        hamming = trajectory(LearnerConfig(algorithm=algorithm, cost="hamming"))
        assert hamming.algorithm == (algorithm[3:] if weighted else algorithm)

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
        hamming = get_cost("hamming")
        oracle_avg = np.mean([hamming(inst.labels, decode(ref.basis, ref.w.T @ inst.features)) for inst in stream])
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

    def test_incurred_cost_matches_configured_cost(self):
        stream = small_stream(t=40, seed=13)
        learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2, cost="rank", seed=2), 8, 6)
        rank = get_cost("rank")
        for inst in stream:
            predicted = learner.predict(inst.features)
            rec = learner.step(inst.features, inst.labels)
            np.testing.assert_array_equal(rec.y_hat, predicted)
            assert rec.incurred_cost == rank(inst.labels, predicted)

    def test_weighted_step_validates_its_pair_once(self, monkeypatch):
        calls = []
        classify = learners._classify
        monkeypatch.setattr(learners, "_classify", lambda y, yhat: calls.append(1) or classify(y, yhat))
        learner = make_learner(LearnerConfig(algorithm="cs-dpp-pbc", m=2, cost="f1", seed=3), 8, 6)
        play(learner, small_stream(t=7, seed=14))
        assert len(calls) == 7

    def test_a_walk_free_cost_weighs_each_step_from_its_table(self, monkeypatch):
        tables = []
        table = costs._sign_table
        monkeypatch.setattr(costs, "_sign_table", lambda *args: tables.append(args[0]) or table(*args))
        for cost in ("rank", "hamming", "f1"):
            learner = make_learner(LearnerConfig(algorithm="cs-dpp-pbt", m=2, cost=cost, label_order="random"), 8, 6)
            play(learner, small_stream(t=7, seed=15))
        assert tables == [get_cost("rank").counts] * 7 + [get_cost("hamming").counts] * 7  # f1 walks

    def test_tracked_step_runs_each_traced_layer_once(self, monkeypatch):
        # the benchmark's per-layer split wraps these module attributes by name;
        # a step that bypassed one would silently drop its layer from the split
        from csdpp import learners, online_pca

        calls = {}

        def count(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **kw: calls.setdefault(name, []).append(a) or real(*a, **kw))

        count(online_pca, "symmetric_eigen")
        count(online_pca, "project_capped_simplex")
        count(learners.costs_mod, "label_weights")
        k, m = 12, 3
        learner = make_learner(LearnerConfig(algorithm="cs-dpp-pbc", m=m, cost="f1", seed=4), 5, k)
        y = np.full(k, -1, dtype=np.int8)
        y[[0, 5, 9]] = 1
        learner.step(np.full(5, 0.4), y)
        assert {name: len(args) for name, args in calls.items()} == {
            "symmetric_eigen": 1,
            "project_capped_simplex": 1,
            "label_weights": 1,
        }
        assert calls["symmetric_eigen"][0][0].shape == (m + 2, m + 2)  # the label left the frame's span


class TestLabelChecks:
    # a label vector outside {-1,+1} is rejected by the step's one classification pass
    BAD_LABELS = [(0, np.int8), (2, np.int8), (np.nan, np.float64)]

    @staticmethod
    def _labels(bad, dtype):
        y = np.array([1, -1, 1, -1, -1, 1], dtype=dtype)
        y[3] = bad
        return y

    @pytest.mark.parametrize("bad, dtype", BAD_LABELS)
    @pytest.mark.parametrize("algorithm", ["dpp-pbc", "cs-dpp-pbc", "o-br"])
    def test_step_rejects_labels_outside_the_signs(self, algorithm, bad, dtype):
        learner = make_learner(LearnerConfig(algorithm=algorithm, m=2, cost="f1", seed=2), 8, 6)
        play(learner, small_stream(t=5, seed=6))
        with pytest.raises(ValueError, match=r"^label vectors must take values in \{-1,\+1\}$"):
            learner.step(np.full(8, 0.3), self._labels(bad, dtype))

    @pytest.mark.parametrize("algorithm", ["dpp-pbc", "cs-dpp-pbc", "o-br"])
    def test_a_rejected_step_leaves_the_learner_untouched(self, algorithm):
        stream = small_stream(t=12, seed=6)
        config = LearnerConfig(algorithm=algorithm, m=2, cost="f1", seed=2)
        rejecting, clean = make_learner(config, 8, 6), make_learner(config, 8, 6)
        play(rejecting, stream[:6])
        play(clean, stream[:6])
        before = json.dumps(to_snapshot(rejecting))
        with pytest.raises(ValueError):
            rejecting.step(np.full(8, 0.3), self._labels(0, np.int8))
        assert json.dumps(to_snapshot(rejecting)) == before
        for got, want in zip(play(rejecting, stream[6:]), play(clean, stream[6:])):
            assert (got.t, got.y_hat.tobytes(), got.incurred_cost) == (want.t, want.y_hat.tobytes(), want.incurred_cost)

    def test_classify_gives_the_pair_checks_classification(self):
        # the learner checks y alone, against a decoded {-1,+1} int8 prediction
        rng = np.random.default_rng(21)
        signs = np.array([-1, 1], dtype=np.int8)
        for trial in range(300):
            k = (1, 2, 6, 200)[trial % 4]
            y = rng.choice(signs, size=k).astype((np.int8, np.int64, np.float64)[trial % 3])
            y_hat = rng.choice(signs, size=k)
            category, counts = learners._classify(y, y_hat)
            want_category, want_counts = costs._validate_pair(y, y_hat)
            np.testing.assert_array_equal(category, want_category)
            assert counts.dtype == want_counts.dtype and counts.tolist() == want_counts.tolist()

    @pytest.mark.parametrize(
        "y",
        [
            np.array([1, -1, 1, 0, -1, 1], dtype=np.int8),
            np.array([1, -1, 1, 2, -1, 1], dtype=np.int8),
            np.array([1, -1, 1, np.nan, -1, 1]),
            np.ones(5, dtype=np.int8),
            np.ones((6, 1), dtype=np.int8),
        ],
    )
    def test_classify_rejects_y_as_the_pair_check_does(self, y):
        y_hat = np.array([1, -1, -1, 1, -1, 1], dtype=np.int8)
        with pytest.raises(ValueError) as want:
            costs._validate_pair(y, y_hat)
        with pytest.raises(ValueError) as got:
            learners._classify(y, y_hat)
        assert str(got.value) == str(want.value)
        learner = make_learner(LearnerConfig(algorithm="cs-dpp-pbc", m=2, cost="f1", seed=2), 8, 6)
        play(learner, small_stream(t=5, seed=6))
        before = json.dumps(to_snapshot(learner))
        with pytest.raises(ValueError) as stepped:
            learner.step(np.full(8, 0.3), y)
        assert str(stepped.value) == str(want.value)
        assert json.dumps(to_snapshot(learner)) == before

    @pytest.mark.parametrize("bad, dtype", BAD_LABELS)
    def test_lockstep_stops_every_learner_before_the_shared_tracker_moves(self, bad, dtype):
        stream = small_stream(t=12, seed=6)
        bundle = Lockstep()
        for algorithm in ("dpp-pbc", "dpp-pbt"):  # one shared tracker and one shared accumulator
            bundle.add(LearnerConfig(algorithm=algorithm, m=2, seed=2), 8, 6)
        play(bundle, stream[:6])
        lead = bundle.learners[0]
        before = json.dumps([to_snapshot(lead.msg), lead.rng_sampler.bit_generator.state, to_snapshot(lead.head.acc)])
        assert bundle.step(np.full(8, 0.3), self._labels(bad, dtype)) == [None, None]
        assert [str(exc) for exc in bundle.errors] == ["label vectors must take values in {-1,+1}"] * 2
        assert all(isinstance(exc, ValueError) for exc in bundle.errors)
        after = json.dumps([to_snapshot(lead.msg), lead.rng_sampler.bit_generator.state, to_snapshot(lead.head.acc)])
        assert after == before
        assert play(bundle, stream[6:]) == [[None, None]] * 6  # every learner stopped at that step


def _benchmark_stream(steps=200, d=50, k=200, seed=15, rate=0.05):
    """Unit-norm features and labels positive at ``rate`` from 24 prototypes;
    the defaults give the costed-narrow shape."""
    rng = np.random.default_rng(seed)
    protos = np.where(rng.random((24, k)) < rate, 1, -1).astype(np.int8)
    picks = rng.integers(0, 24, size=steps)
    x = rng.standard_normal((24, d))[picks] + 0.1 * rng.standard_normal((steps, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x, protos[picks]


def _reference_head_update(head, x, target):
    """The ridge head's step as first written: it predicts again and builds np.outer / (1 + gamma)."""
    head.t += 1
    ainv_x, gamma = head.acc.peek(x)
    head.w -= np.outer(ainv_x, head.w.T @ x - target) / (1.0 + gamma)
    head.acc.absorb(x, ainv_x, gamma)


def _reference_step(learner, x, y):
    """One step of a tracked learner from the public, checked pieces only: the
    cost's own call, `label_weights` in the learner's order, `verify.checked_tracker_step`
    (whose projection is the NumPy sweep) and the head's step as first written."""
    from csdpp.linalg import TOL
    from csdpp.verify import checked_tracker_step

    learner.t += 1
    basis = learner.basis
    raw = learner.head.predict(x)
    y_hat = decode(basis, basis @ raw if learner.label_head else raw)
    incurred = learner.cost(y, y_hat)
    if learner.weighted:
        sqrt_w = np.sqrt(costs.label_weights(learner.cost, y, y_hat, learner.order))
    else:
        sqrt_w = np.sqrt(np.full(learner.k, 1.0 / learner.k))
    target = sqrt_w * y
    norm = float(np.linalg.norm(target))
    checked_tracker_step(learner.msg, target / norm if norm > 1.0 + TOL.unit_norm_slack else target, learner.t)
    new_basis = learner.msg.sample_projection(learner.rng_sampler)
    if learner.rotated:  # turned onto the new basis
        learner.head.transform(basis, new_basis)
        target = new_basis @ target
    _reference_head_update(learner.head, x, target)
    learner.basis = new_basis
    return y_hat, incurred


class TestLeanStepBits:
    @pytest.mark.parametrize("order", ["native", "random"])
    @pytest.mark.parametrize(
        "algorithm, cost",
        [("cs-dpp-pbc", name) for name in ("hamming", "rank", "f1", "accuracy")]
        + [("cs-dpp-pbt", name) for name in ("rank", "f1")]
        + [("dpp-pbc", "f1")],
    )
    def test_step_matches_the_checked_reference_at_the_benchmark_shape(self, algorithm, cost, order):
        x, y = _benchmark_stream()
        config = LearnerConfig(algorithm=algorithm, cost=cost, m=4, label_order=order, seed=21)
        lean, reference = make_learner(config, 50, 200), make_learner(config, 50, 200)
        for t in range(len(x)):
            record = lean.step(x[t], y[t])
            y_hat, incurred = _reference_step(reference, x[t], y[t])
            assert record.y_hat.tobytes() == y_hat.tobytes(), f"prediction {t + 1} differs"
            assert record.incurred_cost == incurred, f"cost {t + 1} differs"
        same = json.dumps(to_snapshot(lean)) == json.dumps(to_snapshot(reference))
        assert same, "final snapshots differ"

    @pytest.mark.parametrize("algorithm", ["cs-dpp-pbc", "dpp-naive", "o-br"])
    @pytest.mark.parametrize("engine", ["ridge", "sgd"])
    def test_head_step_on_the_step_prediction_matches_predicting_again(self, algorithm, engine, monkeypatch):
        x, y = _benchmark_stream(steps=100)
        config = LearnerConfig(algorithm=algorithm, cost="f1", m=4, engine=engine, seed=21)
        reused = make_learner(config, 50, 200)
        records = [reused.step(x[t], y[t]) for t in range(len(x))]
        update = Head.update
        monkeypatch.setattr(Head, "update", lambda self, x, target, gain=None, raw=None:
                            update(self, x, target, gain))  # raw=None: the head predicts again
        again = make_learner(config, 50, 200)
        assert [again.step(x[t], y[t]).y_hat.tobytes() for t in range(len(x))] == [r.y_hat.tobytes() for r in records]
        same = json.dumps(to_snapshot(again)) == json.dumps(to_snapshot(reused))
        assert same, "final snapshots differ"


def _blas_version() -> str | None:
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("version")


BENCHMARK_SHAPE_DIGEST = "1efc271fb33521a2ed3e6758f939fb578f75820529d143455212d169a7cc8b8e"


@pytest.mark.skipif(
    np.__version__ != "2.4.6" or _blas_version() != "0.3.31.188.0",
    reason="the digest pins the bytes of NumPy 2.4.6 over OpenBLAS 0.3.31.188.0; other builds may round differently",
)
def test_benchmark_shape_digest():
    """Every prediction, the final head and the final tracker of a rotated learner at
    the two benchmark shapes, tracker-wide and costed-narrow, under either step rule."""
    digest = hashlib.sha256()
    shapes = (("dpp-pbt", "hamming", 100, 100, 25, 0.5), ("cs-dpp-pbt", "rank", 50, 200, 4, 0.05))
    for algorithm, cost, d, k, m, rate in shapes:
        x, y = _benchmark_stream(steps=100, d=d, k=k, rate=rate)
        for engine in ("ridge", "sgd"):
            learner = make_learner(LearnerConfig(algorithm=algorithm, cost=cost, m=m, engine=engine, seed=21), d, k)
            for t in range(len(x)):
                digest.update(learner.step(x[t], y[t]).y_hat.tobytes())
            for array in (learner.head.w, learner.msg.q, learner.msg.sigma):
                digest.update(array.tobytes())
    assert digest.hexdigest() == BENCHMARK_SHAPE_DIGEST
