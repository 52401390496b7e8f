"""Acceptance gate: one test per shipped guarantee, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import numpy as np

from csdpp.cli import main as cli_main
from csdpp.costs import get_cost, label_weights, native_order, random_order
from csdpp.learners import LearnerConfig, make_learner, play
from csdpp.online_pca import CappedMsgState
from csdpp.stream import imbalanced_stream, planted_subspace_stream, serialize_sparse_labels
from csdpp.verify import (
    grid_projection_oracle,
    suite_bounds,
    suite_lemma1,
    suite_lemma3,
    suite_regret,
    suite_sherman,
)
from csdpp.linalg import project_capped_simplex

BUILTIN_COSTS = ("hamming", "rank", "f1", "accuracy")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bit_vectors(k: int) -> list[np.ndarray]:
    signs = np.array([-1, 1], dtype=np.int8)
    return [signs[(i >> np.arange(k)) & 1] for i in range(2**k)]


def test_criterion_01_sampler_expectation_exact():
    rep = suite_lemma1(trials=100, draws=20, seed=0)
    gap = rep.checks[0]["witness"]["max_abs_gap"]
    _report(1, rep.passed and gap <= 1e-10,
            f"enumerated sampler expectation, 100 states x 20 probes, max gap {gap:.2e} (<= 1e-10)")


def test_criterion_02_weight_decomposition_exact():
    # exhaustive K=3,4 with the identity and one seeded random order
    worst = 0.0
    for name in BUILTIN_COSTS:
        cost = get_cost(name)
        for k in (3, 4):
            orders = [native_order(k), random_order(k, seed=7)]
            grid = _bit_vectors(k)
            for y in grid:
                for yhat in grid:
                    total = float(cost.raw(y, yhat))
                    for order in orders:
                        deltas = label_weights(cost, y, yhat, order)
                        worst = max(worst, abs(float(deltas[y != yhat].sum()) - total))
    # 10^4 random triples at K <= 12 plus 10^5 condition probes per cost
    rep = suite_lemma3(random_trials=10_000, condition_trials=100_000, k_max=12, seed=0)
    ok = worst <= 1e-12 and rep.passed
    _report(2, ok,
            f"per-label weight decomposition, exhaustive K=3,4 + 1e4 random, max gap {worst:.2e} "
            f"(<= 1e-12); condition clean over 1e5 probes per cost: {rep.passed}")


def test_criterion_03_streaming_ridge_matches_batch():
    rep = suite_sherman(d=12, k=8, t=300, projections=20, seed=0)
    gaps = {c["name"]: c["witness"]["max_abs_gap"] for c in rep.checks}
    _report(3, rep.passed,
            f"d=12 K=8 T=300 ridge vs batch max gap {gaps['batch-equivalence']:.2e}, "
            f"20 projected predictions max gap {gaps['projected-prediction']:.2e} (<= 1e-8)")


def test_criterion_04_tracker_feasibility_and_oracles():
    # 500 sequential updates keep the iterate feasible
    rng = np.random.default_rng(40)
    st = CappedMsgState.initialize(12, 4, seed=4)
    worst_trace = worst_box = worst_orth = 0.0
    for t in range(1, 501):
        y = rng.standard_normal(12)
        y *= rng.uniform(0.1, 1.0) / np.linalg.norm(y)
        st.update(y, t)
        worst_trace = max(worst_trace, abs(float(st.sigma.sum()) - 4.0))
        worst_box = max(worst_box, float(np.max(-st.sigma)), float(np.max(st.sigma - 1.0)))
        worst_orth = max(worst_orth, float(np.max(np.abs(st.q @ st.q.T - np.eye(5)))))
    feasible = worst_trace <= 1e-9 and worst_box <= 1e-9 and worst_orth <= 1e-9

    # factored updates against the dense full-space oracle
    worst_dense = 0.0
    for k, m in ((6, 2), (4, 1)):
        state = CappedMsgState.initialize(k, m, seed=k)
        u = state.reconstruct()
        for t in range(1, 51):
            y = rng.standard_normal(k)
            y *= rng.uniform(0.1, 1.0) / np.linalg.norm(y)
            state.update(y, t)
            u += state.schedule(t) * np.outer(y, y)
            vals, vecs = np.linalg.eigh(u)
            vals = vals[::-1].copy()
            vecs = vecs[:, ::-1]
            vals[m + 1:] = 0.0
            vals[: m + 1] = project_capped_simplex(vals[: m + 1], m)
            u = (vecs * vals) @ vecs.T
            worst_dense = max(worst_dense, float(np.max(np.abs(state.reconstruct() - u))))

    # exact projection against the brute-force shift grid
    grid_rng = np.random.default_rng(41)
    worst_grid = 0.0
    for _ in range(50):
        n = int(grid_rng.integers(2, 12))
        budget = int(grid_rng.integers(1, n + 1))
        v = grid_rng.uniform(-1.5, 2.5, size=n)
        w = project_capped_simplex(v, budget)
        ref = grid_projection_oracle(v, budget)
        worst_grid = max(worst_grid, abs(float(np.sum((w - v) ** 2)) - float(np.sum((ref - v) ** 2))))

    ok = feasible and worst_dense <= 1e-7 and worst_grid <= 1e-5
    _report(4, ok,
            f"500-step feasibility (trace {worst_trace:.1e}, box {worst_box:.1e}, orth {worst_orth:.1e} "
            f"<= 1e-9); dense oracle gap {worst_dense:.2e} (<= 1e-7); "
            f"grid-projection distance gap {worst_grid:.2e} (<= 1e-5)")


def test_criterion_05_decoding_bound_audits():
    rep = suite_bounds(trials=10_000, k_max=10, seed=0)
    worst = rep.checks[0]["witness"]["gap"]
    stream = planted_subspace_stream(16, 10, 2000, seed=5, n_prototypes=4)
    live_violations = 0
    for algo, cost in (("dpp-pbc", "hamming"), ("cs-dpp-pbc", "f1")):
        learner = make_learner(
            LearnerConfig(algorithm=algo, m=3, cost=cost, audit=True, seed=5), 16, 10
        )
        play(learner, stream)
        assert learner.audit.checks == 2000
        live_violations += learner.audit.violations
    ok = rep.passed and live_violations == 0
    _report(5, ok,
            f"1e4 randomized bound trials worst gap {worst:.2e} (<= 1e-9 slack); "
            f"2x T=2000 live audits, {live_violations} violations")


def test_criterion_06_basis_drift_reproduction():
    means = {}
    for algo in ("dpp-naive", "dpp-pbc", "dpp-pbt"):
        finals = []
        for rep in range(5):
            stream = planted_subspace_stream(
                20, 10, 5000, seed=100 + rep, n_prototypes=4,
                prototype_probs=np.full(4, 0.25), feature_noise=0.05,
            )
            learner = make_learner(
                LearnerConfig(algorithm=algo, m=3, cost="hamming", seed=100 + rep), 20, 10
            )
            records = play(learner, stream)
            finals.append(float(np.mean([r.incurred_cost for r in records])))
        means[algo] = float(np.mean(finals))
    naive, pbc, pbt = means["dpp-naive"], means["dpp-pbc"], means["dpp-pbt"]
    ok = naive >= 1.2 * pbt and naive >= 1.2 * pbc and pbc <= pbt + 0.01
    _report(6, ok,
            f"drift cell (d=20 K=10 M=3 T=5000, 5 repeats): naive {naive:.4f} >= 1.2x both remedies "
            f"(pbt {pbt:.4f}, pbc {pbc:.4f}); pbc <= pbt + 0.01")


def test_criterion_07_uniform_cost_reduces_to_unweighted():
    stream = planted_subspace_stream(16, 10, 2000, seed=7, n_prototypes=4)
    mismatches = 0
    for variant in ("pbc", "pbt"):
        plain = make_learner(
            LearnerConfig(algorithm=f"dpp-{variant}", m=3, cost="hamming", seed=7), 16, 10
        )
        weighted = make_learner(
            LearnerConfig(algorithm=f"cs-dpp-{variant}", m=3, cost="hamming", seed=7), 16, 10
        )
        for inst in stream:
            ra = plain.step(inst.features, inst.labels)
            rb = weighted.step(inst.features, inst.labels)
            if not np.array_equal(ra.y_hat, rb.y_hat) or ra.incurred_cost != rb.incurred_cost:
                mismatches += 1
    _report(7, mismatches == 0,
            f"weighted vs unweighted under the symmetric cost, T=2000, both heads: "
            f"{mismatches} prediction mismatches (exact equality required)")


def test_criterion_08_cost_sensitivity_reproduction():
    details = []
    ok = True
    for cost in ("f1", "accuracy"):
        finals = {"dpp-pbc": [], "cs-dpp-pbc": []}
        for rep in range(5):
            stream = imbalanced_stream(
                20, 10, 5000, seed=200 + rep, positive_rate=0.1,
                n_patterns=8, feature_noise=0.05,
            )
            for algo in finals:
                learner = make_learner(
                    LearnerConfig(algorithm=algo, m=2, cost=cost, seed=200 + rep), 20, 10
                )
                records = play(learner, stream)
                finals[algo].append(float(np.mean([r.incurred_cost for r in records])))
        plain = float(np.mean(finals["dpp-pbc"]))
        weighted = float(np.mean(finals["cs-dpp-pbc"]))
        ok = ok and weighted <= 0.95 * plain
        details.append(f"{cost}: weighted {weighted:.4f} vs plain {plain:.4f}")
    _report(8, ok, "imbalanced cell (rate 0.1, T=5000, 5 repeats), >= 5% relative win; " + "; ".join(details))


def test_criterion_09_regret_decay_and_budget():
    rep = suite_regret(t=2000, seed=3)
    by_name = {c["name"]: c for c in rep.checks}
    decay = by_name["rate-decay"]["witness"]
    budget = by_name.get("budget", {}).get("witness", {})
    _report(9, rep.passed,
            f"avg regret {decay['rate_full']:.4f} at T=2000 < 0.5 x {decay['rate_short']:.4f} at T=200; "
            f"regret {budget.get('regret', float('nan')):.1f} <= budget {budget.get('budget', float('nan')):.1f}")


def test_criterion_10_deterministic_artifacts(tmp_path):
    insts = planted_subspace_stream(6, 8, 120, seed=10, n_prototypes=3)
    data = tmp_path / "data.txt"
    data.write_text(serialize_sparse_labels(insts, 6, 8), encoding="utf-8")
    args = ["run", "--dataset", str(data), "--algo", "cs-dpp-pbt", "--cost", "rank",
            "--repeats", "2", "--seed", "5"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(args + ["--output", str(out_a)]) == 0
    assert cli_main(args + ["--output", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    same_names = files_a == files_b and len(files_a) == 3
    same_bytes = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files_a
    )
    _report(10, same_names and same_bytes,
            f"experiment cell rerun with shared seed: {len(files_a)} artifacts byte-identical")
