import json

import numpy as np
import pytest

from csdpp.learners import from_snapshot, to_snapshot
from csdpp.linalg import TOL, project_capped_simplex
from csdpp.online_pca import CappedMsgState, EtaSchedule, default_eta_schedule


def random_observation(rng, k):
    y = rng.standard_normal(k)
    return y / np.linalg.norm(y) * rng.uniform(0.05, 1.0)


def dense_oracle_step(u, y, eta, m):
    """Independent route: dense update, numpy eigensolver, top-(M+1) projection."""
    u = u + eta * np.outer(y, y)
    w, v = np.linalg.eigh(u)
    w = w[::-1].copy()
    v = v[:, ::-1]
    w[m + 1:] = 0.0
    w[: m + 1] = project_capped_simplex(w[: m + 1], m)
    return (v * w) @ v.T


class TestInitialization:
    def test_uniform_spectrum(self):
        st = CappedMsgState.initialize(3, 1, seed=0)
        np.testing.assert_allclose(st.sigma, [0.5, 0.5])
        st = CappedMsgState.initialize(10, 4, seed=0)
        assert st.sigma.sum() == pytest.approx(4.0, abs=1e-12)

    def test_deterministic_frame(self):
        a = CappedMsgState.initialize(7, 2, seed=9)
        b = CappedMsgState.initialize(7, 2, seed=9)
        np.testing.assert_array_equal(a.q, b.q)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="1 <= M < K"):
            CappedMsgState.initialize(3, 3, seed=0)
        with pytest.raises(ValueError, match="1 <= M < K"):
            CappedMsgState.initialize(3, 0, seed=0)

    def test_initial_feasibility(self):
        CappedMsgState.initialize(12, 5, seed=4).validate()


class TestUpdate:
    def test_hand_example_in_span(self):
        # K=2, M=1, identity frame, spectrum [0.6, 0.4], observation e1, step 0.2:
        # shifted spectrum diag(0.8, 0.4) projects back to sum 1 as [0.7, 0.3]
        st = CappedMsgState(np.eye(2), np.array([0.6, 0.4]), 1, lambda t: 0.2)
        st.update(np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(np.sort(st.sigma)[::-1], [0.7, 0.3], atol=1e-12)
        np.testing.assert_allclose(st.reconstruct(), np.diag([0.7, 0.3]), atol=1e-12)

    def test_zero_step_changes_nothing(self):
        st = CappedMsgState.initialize(5, 2, seed=1)
        before = st.reconstruct()
        st.update(random_observation(np.random.default_rng(0), 5), t=1)
        st_zero = CappedMsgState(st.q.copy(), st.sigma.copy(), 2, lambda t: 0.0)
        u = st_zero.reconstruct()
        st_zero.update(random_observation(np.random.default_rng(1), 5), t=2)
        np.testing.assert_allclose(st_zero.reconstruct(), u, atol=1e-9)
        assert not np.allclose(st.reconstruct(), before)  # nonzero step did move

    def test_norm_contract(self):
        st = CappedMsgState.initialize(4, 1, seed=0)
        with pytest.raises(ValueError, match="norm"):
            st.update(np.array([1.0, 1.0, 0.0, 0.0]), 1)

    def test_shape_contract(self):
        st = CappedMsgState.initialize(4, 1, seed=0)
        with pytest.raises(ValueError, match="shape"):
            st.update(np.zeros(3), 1)

    def test_invariants_hold_along_random_runs(self):
        rng = np.random.default_rng(3)
        st = CappedMsgState.initialize(9, 3, seed=2)
        for t in range(1, 101):
            st.update(random_observation(rng, 9), t)
            st.validate()

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for k, m in ((4, 1), (5, 2), (6, 3)):
            st = CappedMsgState.initialize(k, m, seed=k)
            u = st.reconstruct()
            for t in range(1, 51):
                y = random_observation(rng, k)
                st.update(y, t)
                u = dense_oracle_step(u, y, st.schedule(t), m)
                assert np.max(np.abs(st.reconstruct() - u)) <= 1e-7

    def test_in_span_observation_stays_low_rank(self):
        st = CappedMsgState.initialize(6, 2, seed=5)
        y = st.q[0] * 0.9  # exactly in the frame's span
        st.update(y, 1)
        st.validate()

    def test_schedule_values(self):
        sched = default_eta_schedule(4, 10, scale=2.0)
        assert sched(1) == pytest.approx(2.0 * 0.4)
        assert sched(4) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            sched(0)
        assert isinstance(sched, EtaSchedule)


class TestSampler:
    def test_probabilities_complement_spectrum(self):
        st = CappedMsgState(np.eye(2), np.array([0.6, 0.4]), 1, lambda t: 0.0)
        np.testing.assert_allclose(st.removal_probabilities(), [0.4, 0.6])
        st2 = CappedMsgState.initialize(8, 3, seed=0)
        np.testing.assert_allclose(st2.removal_probabilities(), np.full(4, 0.25), atol=1e-12)

    def test_boundary_spectrum_always_removes_zero_weight_row(self):
        st = CappedMsgState(np.eye(2), np.array([1.0, 0.0]), 1, lambda t: 0.0)
        np.testing.assert_allclose(st.removal_probabilities(), [0.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = st.sample_projection(rng)
            np.testing.assert_array_equal(p, st.q[:1])

    def test_enumeration_identity_two_outcomes(self):
        st = CappedMsgState(np.eye(2), np.array([0.6, 0.4]), 1, lambda t: 0.0)
        e = 0.4 * np.outer([0, 1], [0, 1]) + 0.6 * np.outer([1, 0], [1, 0])
        np.testing.assert_allclose(e, st.reconstruct(), atol=1e-15)

    def test_enumeration_identity_evolved_states(self):
        rng = np.random.default_rng(6)
        for trial in range(25):
            k = int(rng.integers(3, 12))
            m = int(rng.integers(1, k))
            st = CappedMsgState.initialize(k, m, seed=trial)
            for t in range(1, 8):
                st.update(random_observation(rng, k), t)
            probs = st.removal_probabilities()
            expected = sum(
                probs[i] * (np.delete(st.q, i, 0).T @ np.delete(st.q, i, 0)) for i in range(m + 1)
            )
            assert np.max(np.abs(expected - st.reconstruct())) <= 1e-10

    def test_monte_carlo_frequencies(self):
        st = CappedMsgState(np.eye(2), np.array([0.7, 0.3]), 1, lambda t: 0.0)
        rng = np.random.default_rng(7)
        removed_first = 0
        n = 100_000
        for _ in range(n):
            p = st.sample_projection(rng)
            removed_first += int(np.array_equal(p, st.q[1:]))
        assert abs(removed_first / n - 0.3) <= 0.01


class TestSnapshots:
    def test_json_round_trip(self):
        rng = np.random.default_rng(8)
        st = CappedMsgState.initialize(6, 2, seed=3)
        for t in range(1, 10):
            st.update(random_observation(rng, 6), t)
        snap = json.loads(json.dumps(to_snapshot(st)))
        back = from_snapshot(CappedMsgState.initialize(6, 2, seed=4), snap)
        np.testing.assert_array_equal(back.q, st.q)
        np.testing.assert_array_equal(back.sigma, st.sigma)
        assert back.schedule(5) == st.schedule(5)

    def test_rejects_foreign_payload(self):
        st = CappedMsgState.initialize(6, 2, seed=3)
        with pytest.raises(ValueError, match="snapshot"):
            from_snapshot(st, {"kind": "other", "version": 1})
        with pytest.raises(ValueError, match="snapshot field 'q' has shape"):
            from_snapshot(st, to_snapshot(CappedMsgState.initialize(5, 2, seed=3)))
