import json
import math
import os

import numpy as np
import pytest

from csdpp.evaluation import (
    CostTrace,
    atomic_write_text,
    expected_regret,
    offline_plst,
    run_with_snapshots,
    summarize_finals,
    theorem2_bound,
    write_cost_csv,
    write_json,
)
from csdpp.learners import LearnerConfig, make_learner
from csdpp.stream import Instance, planted_subspace_stream


def make_instances(k=6, d=4, n=40, seed=0, rank=2):
    return planted_subspace_stream(d, k, n, seed=seed, n_prototypes=rank)


class TestCostTrace:
    def test_hand_example(self):
        trace = CostTrace()
        trace.track(0.5)
        trace.track(0.25)
        assert trace.averages == [0.5, 0.375]
        assert trace.final_average == 0.375
        assert len(trace) == 2

    def test_all_zero(self):
        trace = CostTrace()
        for _ in range(5):
            trace.track(0.0)
        assert trace.averages == [0.0] * 5

    def test_range_validation(self):
        trace = CostTrace()
        with pytest.raises(ValueError, match="cost must lie"):
            trace.track(1.5)
        with pytest.raises(ValueError, match="cost must lie"):
            trace.track(-0.01)

    def test_empty_trace_has_no_final(self):
        with pytest.raises(ValueError, match="empty"):
            CostTrace().final_average

    def test_running_average_matches_recompute(self):
        rng = np.random.default_rng(0)
        costs = rng.random(1000)
        trace = CostTrace()
        for c in costs:
            trace.track(float(c))
        direct = np.cumsum(costs) / np.arange(1, 1001)
        np.testing.assert_allclose(trace.averages, direct, atol=1e-12)


class TestOfflineReference:
    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            offline_plst([], 1)
        insts = make_instances()
        with pytest.raises(ValueError, match="1 <= M <= K"):
            offline_plst(insts, 7)

    def test_rank_one_labels_are_captured_exactly(self):
        rng = np.random.default_rng(1)
        y = np.array([1, -1, 1, 1, -1], dtype=np.int8)
        insts = [Instance(rng.standard_normal(3), y.copy()) for _ in range(20)]
        ref = offline_plst(insts, 1)
        y_s = y.astype(np.float64) * ref.scale
        np.testing.assert_allclose(ref.basis.T @ (ref.basis @ y_s), y_s, atol=1e-10)

    def test_complete_basis_has_zero_residual(self):
        insts = make_instances(k=5, rank=3, seed=2)
        ref = offline_plst(insts, 5)
        for inst in insts[:10]:
            y_s = inst.labels.astype(np.float64) * ref.scale
            resid = y_s - ref.basis.T @ (ref.basis @ y_s)
            assert np.max(np.abs(resid)) <= 1e-10

    def test_planted_rank_two_is_recovered(self):
        insts = make_instances(k=8, rank=2, n=60, seed=3)
        ref = offline_plst(insts, 2)
        for inst in insts:
            y_s = inst.labels.astype(np.float64) * ref.scale
            resid = y_s - ref.basis.T @ (ref.basis @ y_s)
            assert np.max(np.abs(resid)) <= 1e-8

    def test_basis_rows_orthonormal(self):
        ref = offline_plst(make_instances(seed=4), 3)
        np.testing.assert_allclose(ref.basis @ ref.basis.T, np.eye(3), atol=1e-10)

    def test_ridge_map_matches_least_squares(self):
        insts = make_instances(d=3, k=4, n=80, seed=5)
        ref = offline_plst(insts, 2)
        x = np.stack([i.features for i in insts])
        ys = np.stack([i.labels for i in insts]).astype(np.float64) * ref.scale
        direct, *_ = np.linalg.lstsq(x, ys, rcond=None)
        np.testing.assert_allclose(ref.h, direct, atol=1e-6)
        np.testing.assert_allclose(ref.w, ref.h @ ref.basis.T, atol=1e-15)


class TestRunWithSnapshots:
    def test_snapshot_cadence(self):
        insts = make_instances(n=10, seed=6)
        learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2), 4, 6)
        records, snaps = run_with_snapshots(learner, insts)
        assert len(records) == 10
        assert [t for t, _ in snaps] == list(range(1, 11))

    def test_snapshots_capture_pre_step_state(self):
        insts = make_instances(n=3, seed=7)
        learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2), 4, 6)
        q0 = learner.msg.q.copy()
        _, snaps = run_with_snapshots(learner, insts)
        np.testing.assert_array_equal(snaps[0][1]["q"], q0)
        assert not np.array_equal(snaps[1][1]["q"], q0)

    def test_needs_the_ridge_label_space_head(self):
        insts = make_instances(n=3, seed=8)
        _, snaps = run_with_snapshots(make_learner(LearnerConfig(algorithm="cs-dpp-pbc", m=2), 4, 6), insts)
        assert all(set(snap) == {"q", "sigma", "h"} for _, snap in snaps)
        for config in (
            LearnerConfig(algorithm="dpp-naive", m=2),
            LearnerConfig(algorithm="o-br"),
            LearnerConfig(algorithm="dpp-pbc", m=2, engine="sgd"),
        ):
            learner = make_learner(config, 4, 6)
            with pytest.raises(ValueError, match="label-space head"):
                run_with_snapshots(learner, insts)
            assert learner.t == 0


def perfect_snapshots(reference, n, k, m, h=None):
    """Snapshots whose tracked subspace equals the reference subspace exactly."""
    rng = np.random.default_rng(99)
    extra = rng.standard_normal(k)
    extra -= reference.basis.T @ (reference.basis @ extra)
    extra /= np.linalg.norm(extra)
    q = np.vstack([reference.basis, extra])
    sigma = np.append(np.ones(m), 0.0)
    snap = {"q": q, "sigma": sigma, "h": reference.h if h is None else h}
    return [(t, snap) for t in range(1, n + 1)]


class TestExpectedRegret:
    def test_reference_replay_has_zero_regret(self):
        insts = make_instances(k=6, d=4, n=30, seed=8, rank=2)
        ref = offline_plst(insts, 2)
        snaps = perfect_snapshots(ref, len(insts), 6, 2)
        report = expected_regret(snaps, insts, ref)
        assert abs(report.cumulative_regret) <= 1e-10
        assert abs(report.split_total) <= 1e-10
        np.testing.assert_allclose(report.expected_losses, report.reference_losses, atol=1e-12)

    def test_matched_subspace_has_zero_gap(self):
        insts = make_instances(k=6, d=4, n=12, seed=9, rank=2)
        ref = offline_plst(insts, 2)
        report = expected_regret(perfect_snapshots(ref, 12, 6, 2), insts, ref)
        assert max(report.deltas) <= 1e-12

    def test_zero_head_pins_epsilon_hat(self):
        insts = make_instances(k=6, d=4, n=10, seed=10, rank=2)
        ref = offline_plst(insts, 2)
        snaps = perfect_snapshots(ref, 10, 6, 2, h=np.zeros_like(ref.h))
        report = expected_regret(snaps, insts, ref)
        # +-1 labels scaled by 1/sqrt(K) always have unit squared norm
        assert report.epsilon_hat == pytest.approx(1.0, abs=1e-12)

    def test_assumption_flag_trips_on_large_features(self):
        insts = make_instances(k=6, d=4, n=5, seed=11, rank=2)
        ref = offline_plst(insts, 2)
        big = [Instance(inst.features * 3.0, inst.labels) for inst in insts]
        report = expected_regret(perfect_snapshots(ref, 5, 6, 2), big, ref)
        assert not report.assumptions_ok

    def test_live_run_split_accounting_agrees(self):
        insts = make_instances(k=6, d=8, n=250, seed=12, rank=2)
        learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=2, seed=4), 8, 6)
        _, snaps = run_with_snapshots(learner, insts)
        ref = offline_plst(insts, 2)
        report = expected_regret(snaps, insts, ref)
        assert abs(report.cumulative_regret - report.split_total) <= 1e-8
        assert report.assumptions_ok
        assert len(report.steps) == 250
        assert all(d >= 0 for d in report.deltas)


class TestTheorem2Bound:
    def test_zero_gap_zero_residual(self):
        h_star = np.array([[3.0, 0.0], [0.0, 4.0]])
        got = theorem2_bound(0.0, 0.0, h_star, m=2, d=2, t=100)
        assert got == pytest.approx(0.5 * 2 * 25.0, abs=1e-12)

    def test_log_term_hand_value(self):
        d = 7
        got = theorem2_bound(0.0, 1.0, np.zeros((d, 3)), m=1, d=d, t=d)
        assert got == pytest.approx(2.0 * d * math.log(2.0), abs=1e-12)

    def test_monotone_in_gaps(self):
        h = np.ones((2, 2))
        lo = theorem2_bound(1.0, 0.1, h, 2, 2, 50)
        hi = theorem2_bound(2.0, 0.1, h, 2, 2, 50)
        assert hi > lo


class TestOutputs:
    def test_cost_csv_layout(self, tmp_path):
        trace = CostTrace()
        trace.track(0.5)
        trace.track(0.25)
        path = str(tmp_path / "out" / "trace.csv")
        write_cost_csv(path, trace, header={"b": 2, "a": "x"})
        text = open(path, encoding="utf-8").read()
        assert text == "# a = x\n# b = 2\nt,avg_cost\n1,0.5\n2,0.375\n"

    def test_cost_csv_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        trace = CostTrace()
        for c in rng.random(50):
            trace.track(float(c))
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        write_cost_csv(p1, trace, header={"seed": 13})
        write_cost_csv(p2, trace, header={"seed": 13})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_no_temp_files_left(self, tmp_path):
        trace = CostTrace()
        trace.track(0.5)
        write_cost_csv(str(tmp_path / "t.csv"), trace)
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_json_sorted_round_trip(self, tmp_path):
        path = str(tmp_path / "s.json")
        write_json(path, {"z": 1, "a": [1, 2]})
        text = open(path, encoding="utf-8").read()
        assert text.index('"a"') < text.index('"z"')
        assert json.loads(text) == {"z": 1, "a": [1, 2]}

    def test_atomic_write_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "file.txt")
        atomic_write_text(path, "payload")
        assert open(path, encoding="utf-8").read() == "payload"

    def test_summarize_finals(self):
        one = summarize_finals([0.4])
        assert one == {"runs": 1, "mean_final_avg_cost": 0.4, "stderr": 0.0}
        two = summarize_finals([0.2, 0.4])
        assert two["runs"] == 2
        assert two["mean_final_avg_cost"] == pytest.approx(0.3)
        assert two["stderr"] == pytest.approx(0.1)
        with pytest.raises(ValueError, match="no runs"):
            summarize_finals([])
