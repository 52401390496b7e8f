import numpy as np
import pytest

from csdpp import online_pca
from csdpp.linalg import TOL, project_capped_simplex, projection_sweep, symmetric_eigen
from csdpp.online_pca import CappedMsgState


def reconstruction(result):
    return result.vectors @ np.diag(result.values) @ result.vectors.T


def assert_leading_entries_positive(vectors):
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    assert np.all(lead > 0.0), lead


class TestSymmetricEigen:
    def test_identity(self):
        r = symmetric_eigen(np.eye(2))
        np.testing.assert_allclose(r.values, [1.0, 1.0])
        np.testing.assert_allclose(r.vectors @ r.vectors.T, np.eye(2), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        r = symmetric_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(r.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(r.vectors), np.eye(2), atol=1e-12)

    def test_hand_two_by_two(self):
        # characteristic polynomial x^2 - 4x + 3 -> roots 3, 1
        r = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(r.values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(reconstruction(r), [[2, 1], [1, 2]], atol=1e-12)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        a = np.eye(5)
        a[1, 3] = a[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_eigen(a)
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_eigen(np.diag([1.0, np.inf]))

    def test_sign_rule_first_index_wins_a_tie(self):
        # eigenvectors (1, 1)/sqrt2 and (1, -1)/sqrt2: both entries tie in magnitude
        r = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(r.vectors, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_eigen(np.zeros((2, 3)))

    def test_random_against_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            a = a + a.T
            r = symmetric_eigen(a)
            assert np.all(np.diff(r.values) <= 1e-12)
            assert np.max(np.abs(reconstruction(r) - a)) <= TOL.reconstruction
            assert np.max(np.abs(r.vectors.T @ r.vectors - np.eye(n))) <= TOL.orthonormality
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.max(np.abs(r.values - ref)) <= 1e-9
            assert_leading_entries_positive(r.vectors)

    def test_unchecked_path_matches_checked_bits_on_tracker_matrices(self, monkeypatch):
        built = []

        def record(a, **kw):
            built.append(a.copy())
            return symmetric_eigen(a, **kw)

        monkeypatch.setattr(online_pca, "symmetric_eigen", record)
        rng = np.random.default_rng(5)
        for k, m in ((6, 2), (40, 12), (200, 4)):
            st = CappedMsgState.initialize(k, m, seed=k)
            for t in range(1, 31):
                y = rng.standard_normal(k)
                y *= rng.uniform(0.1, 1.0) / np.linalg.norm(y)
                if t % 3 == 0:  # in span: the matrix keeps M+1 rows
                    y = st.q.T @ (st.q @ y)
                st.update(y, t)
        assert len(built) == 90 and {len(a) for a in built} >= {3, 4, 13, 14, 5, 6}
        for a in built:
            fast, checked = symmetric_eigen(a, _checked=False), symmetric_eigen(a, _checked=True)
            assert fast.values.tobytes() == checked.values.tobytes()
            assert fast.vectors.tobytes() == checked.vectors.tobytes()
            assert fast.vectors.flags.c_contiguous and checked.vectors.flags.c_contiguous

    def test_near_degenerate_spectrum(self):
        a = np.diag([1.0, 1.0 + 1e-13, 0.5])
        r = symmetric_eigen(a)
        assert np.max(np.abs(reconstruction(r) - a)) <= TOL.reconstruction


def grid_oracle(v, budget):
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(3):
        taus = np.linspace(lo, hi, 20_001)
        sums = np.clip(v[None, :] - taus[:, None], 0.0, 1.0).sum(axis=1)
        idx = int(np.argmin(np.abs(sums - budget)))
        step = taus[1] - taus[0]
        lo, hi = taus[idx] - 2 * step, taus[idx] + 2 * step
    return np.clip(v - taus[idx], 0.0, 1.0)


class TestCappedSimplexProjection:
    def test_already_feasible(self):
        np.testing.assert_allclose(
            project_capped_simplex(np.array([1.0, 0.5, 0.5]), 2), [1.0, 0.5, 0.5], atol=1e-12
        )

    def test_single_coordinate_clips_to_cap(self):
        np.testing.assert_allclose(project_capped_simplex(np.array([2.5]), 1), [1.0])

    def test_hand_shift(self):
        # grid-searched optimum: shift 0.1 on every coordinate
        np.testing.assert_allclose(
            project_capped_simplex(np.array([1.2, 0.9, 0.5]), 2), [1.0, 0.7, 0.3], atol=1e-9
        )

    def test_budget_bounds(self):
        with pytest.raises(ValueError, match="budget"):
            project_capped_simplex(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError, match="budget"):
            project_capped_simplex(np.array([1.0, 2.0]), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [3, 10])
    def test_non_finite_entries_are_rejected(self, bad, n):
        v = np.linspace(0.2, 0.5, n)
        v[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            project_capped_simplex(v, 1)

    def test_full_budget_saturates(self):
        np.testing.assert_allclose(project_capped_simplex(np.array([-3.0, 0.2, 9.0]), 3), np.ones(3))

    def test_random_feasibility_and_optimality(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            budget = int(rng.integers(1, n + 1))
            v = rng.uniform(-2.0, 3.0, size=n)
            w = project_capped_simplex(v, budget)
            assert abs(w.sum() - budget) <= TOL.simplex_sum
            assert np.all(w >= -1e-12) and np.all(w <= 1 + 1e-12)
            ref = grid_oracle(v, budget)
            assert np.max(np.abs(w - ref)) <= 1e-6

    def test_small_n_path_gives_the_sweep_bits(self):
        # below n = 8 Python floats stand in for the NumPy sweep; ties, exact
        # breakpoints, zeros and -0.0 included (the last two take the sweep itself)
        rng = np.random.default_rng(7)
        edges = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1.5, 1e-300, 1.0 + 2**-52, 1.0 - 2**-53]
        for trial in range(4000):
            n = int(rng.integers(1, 8))
            draw = (rng.uniform(-1.5, 2.5, n), rng.uniform(0.0, 1.0, n), rng.choice(edges, n),
                    rng.integers(-6, 11, n) / 4.0)[trial % 4]
            budget = int(rng.integers(1, n + 1))
            assert project_capped_simplex(draw, budget).tobytes() == projection_sweep(draw, budget).tobytes()
        w = project_capped_simplex(np.array([-0.0, 0.6, 0.4]), 1)
        assert w.tobytes() == projection_sweep(np.array([-0.0, 0.6, 0.4]), 1).tobytes()

    def test_idempotence(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            budget = int(rng.integers(1, n + 1))
            w = project_capped_simplex(rng.uniform(-1, 2, size=n), budget)
            again = project_capped_simplex(w, budget)
            assert np.max(np.abs(again - w)) <= TOL.simplex_idempotence
