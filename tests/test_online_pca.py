import json
import warnings

import numpy as np
import pytest

from csdpp import online_pca
from csdpp.learners import from_snapshot, to_snapshot
from csdpp.online_pca import CappedMsgState, EtaSchedule
from csdpp.verify import checked_tracker_step, dense_tracker_step, sequential_draw


def random_observation(rng, k):
    y = rng.standard_normal(k)
    return y / np.linalg.norm(y) * rng.uniform(0.05, 1.0)


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

    def test_rejects_non_finite_observation(self):
        st = CappedMsgState.initialize(4, 1, seed=0)
        before = st.reconstruct()
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="observation must be finite"):
                st.update(np.array([0.5, bad, 0.0, 0.0]), 1)
        np.testing.assert_array_equal(st.reconstruct(), before)

    def test_rejects_huge_finite_observation_without_overflow(self):
        st = CappedMsgState.initialize(4, 1, seed=0)
        before = st.reconstruct()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds 1"):
                st.update(np.array([0.5, 1e200, 0.0, 0.0]), 1)
        np.testing.assert_array_equal(st.reconstruct(), before)

    def test_small_step_keeps_frame_orientation(self):
        # a tiny step barely rotates the frame, so no row may flip its sign;
        # the dpp-naive head, which is never rotated, relies on this
        rng = np.random.default_rng(9)
        for trial in range(20):
            k = int(rng.integers(4, 31))
            m = int(rng.integers(1, k))
            st = CappedMsgState.initialize(k, m, seed=trial)
            for t in range(1, 30):
                st.update(random_observation(rng, k), t)
            assert np.min(np.diff(np.sort(st.sigma))) > 1e-6  # distinct spectrum
            before = st.q.copy()
            st.update(random_observation(rng, k), 10_000)
            assert np.all(np.einsum("ij,ij->i", st.q, before) > 0.0)

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
                u = dense_tracker_step(u, y, st.schedule(t), m)
                assert np.max(np.abs(st.reconstruct() - u)) <= 1e-7

    def test_in_span_observation_stays_low_rank(self):
        st = CappedMsgState.initialize(6, 2, seed=5)
        y = st.q[0] * 0.9  # exactly in the frame's span
        st.update(y, 1)
        st.validate()

    def test_schedule_values(self):
        sched = EtaSchedule(2.0, 4, 10)
        assert sched(1) == pytest.approx(2.0 * 0.4)
        assert sched(4) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            sched(0)
        assert CappedMsgState.initialize(10, 4, seed=0).schedule == sched  # the default schedule


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


class _FixedDraw:
    """Stands in for a generator whose next uniform draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestBitsAgainstCheckedStep:
    """`update` and `sample_projection` against the step as first written (verify's oracles)."""

    @pytest.mark.parametrize("k, m", [(3, 1), (8, 3), (21, 6), (30, 7), (60, 25), (200, 4)])
    def test_steps_and_draws_match_bit_for_bit(self, k, m, monkeypatch):
        dims = []
        eigen = online_pca.symmetric_eigen
        monkeypatch.setattr(online_pca, "symmetric_eigen", lambda a, **kw: dims.append(len(a)) or eigen(a, **kw))
        rng = np.random.default_rng(100 * k + m)
        st, ref = CappedMsgState.initialize(k, m, seed=k), CappedMsgState.initialize(k, m, seed=k)
        assert st.q.flags.f_contiguous and not st.q.flags.c_contiguous  # the frame QR hands to step 1
        fast_draws, ref_draws = np.random.default_rng(m), np.random.default_rng(m)
        for t in range(1, 51):
            y = random_observation(rng, k)
            if t % 4 == 0:
                y = st.q.T @ (st.q @ y)
            basis, ref_basis = st.sample_projection(fast_draws), sequential_draw(ref, ref_draws)
            assert basis.tobytes() == ref_basis.tobytes()
            assert basis.flags.f_contiguous == ref_basis.flags.f_contiguous
            st.update(y, t)
            checked_tracker_step(ref, y, t)
            assert st.q.tobytes() == ref.q.tobytes(), t
            assert st.sigma.tobytes() == ref.sigma.tobytes(), t
        assert {m + 1, m + 2} <= set(dims)  # in-span and growing steps both ran

    @pytest.mark.parametrize("k, m", [(3, 1), (30, 7), (200, 4)])
    def test_unchecked_update_matches_the_checked_step(self, k, m):
        rng = np.random.default_rng(7 * k + m)
        lean, ref = CappedMsgState.initialize(k, m, seed=k), CappedMsgState.initialize(k, m, seed=k)
        for t in range(1, 41):
            y = random_observation(rng, k)
            if t % 4 == 0:
                y = lean.q.T @ (lean.q @ y)
            lean.update(y, t, _checked=False)
            checked_tracker_step(ref, y, t)
            assert lean.q.tobytes() == ref.q.tobytes() and lean.sigma.tobytes() == ref.sigma.tobytes(), t

    def test_schedule_keeps_the_numpy_sqrt_bits(self):
        for m, k, scale in ((4, 200, 2.0), (25, 100, 2.0), (3, 7, 0.3)):
            sched = EtaSchedule(scale, m, k)
            assert all(sched(t) == scale / np.sqrt(t) * (m / k) for t in range(1, 20_001))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "sigma, value, dropped",
        [
            ([1.0, 0.5, 0.5], 0.0, 1),    # row 0 is never removed, even at u = 0
            ([0.5, 0.5, 1.0], 0.5, 1),    # u equals the partial sum of row 0
            ([0.25, 0.75, 1.0], 1.0, 2),  # u reaches the total: fall through to row M
            # 7 rows, the scalar draw's largest, and 8, the NumPy draw's smallest: removal
            # probabilities 0, 0 (sigma just above 1, clamped), 1/4, 1/2, 1/4 and then 0
            *(
                ([1.0, 1.0 + 2**-52, 0.75, 0.5, 0.75, *[1.0] * (rows - 5)], value, dropped)
                for rows in (7, 8)
                for value, dropped in ((0.0, 2), (0.25, 3), (0.75, 4), (1.0, rows - 1))
            ),
        ],
    )
    def test_sampler_edge_cases(self, order, sigma, value, dropped):
        q = np.asarray(np.random.default_rng(1).standard_normal((len(sigma), 6)), order=order)
        st = CappedMsgState(q, np.array(sigma), len(sigma) - 1, lambda t: 0.0)
        basis = st.sample_projection(_FixedDraw(value))
        ref = sequential_draw(st, _FixedDraw(value))
        np.testing.assert_array_equal(basis, np.delete(q, dropped, axis=0))
        assert basis.tobytes() == ref.tobytes()
        assert basis.flags.f_contiguous == ref.flags.f_contiguous == (order == "F")


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
