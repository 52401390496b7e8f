"""Self-check suites runnable from the CLI (`csdpp verify ...`).

Each suite re-derives an exact property of the implementation against an
independent oracle computed inline (enumeration, brute-force grids, direct
batch solves) and reports machine-readable pass/fail with witnesses.

Every suite accepts a `mutant` name that deliberately injects a plausible
defect into the checked computation; the suite must then fail.  That keeps the
suites honest: a check that cannot catch its own canonical bug proves nothing.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import costs as costs_mod
from .evaluation import expected_regret, offline_plst, run_with_snapshots, theorem2_bound
from .learners import LearnerConfig, decode, make_learner
from .linalg import project_capped_simplex
from .online_pca import CappedMsgState, default_eta_schedule
from .regressor import Head
from .stream import planted_subspace_stream, substream

__all__ = ["SUITES", "MUTANTS", "SuiteReport", "run_suite", "run_suites"]

MUTANTS = {
    "lemma1": "keep-probabilities",      # removal probs read sigma instead of 1-sigma
    "lemma3": "static-context",          # weights extracted without correcting earlier labels
    "sherman": "sign-flip",              # head correction applied with the wrong sign
    "projection": "nearest-breakpoint",  # shift snapped to a breakpoint, no interpolation
    "bounds": "drop-residual",           # bound omits the out-of-span term
    "regret": "inverted-spectrum",       # online losses reconstruct U from 1-sigma
}


@dataclass
class SuiteReport:
    name: str
    passed: bool
    checks: list[dict] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"suite": self.name, "passed": self.passed, "params": self.params, "checks": self.checks}


def _check(report: SuiteReport, name: str, ok: bool, **witness) -> None:
    entry: dict = {"name": name, "passed": bool(ok)}
    if witness:
        entry["witness"] = witness
    report.checks.append(entry)
    if not ok:
        report.passed = False


def _random_unit_cap(rng: np.random.Generator, k: int) -> np.ndarray:
    y = rng.standard_normal(k)
    return y / np.linalg.norm(y) * rng.uniform(0.1, 1.0)


def suite_lemma1(trials: int = 100, draws: int = 20, seed: int = 0, mutant: str | None = None) -> SuiteReport:
    """Enumerated sampler expectation equals the tracked matrix, on evolved states."""
    report = SuiteReport("lemma1", True, params={"trials": trials, "draws": draws, "seed": seed})
    rng = substream(seed, 97)
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(3, 31))
        m = int(rng.integers(1, min(8, k - 1) + 1))
        state = CappedMsgState.initialize(k, m, int(rng.integers(0, 2**31)), default_eta_schedule(m, k))
        for step in range(1, 6):  # walk off the uniform initial spectrum
            state.update(_random_unit_cap(rng, k), step)
        probs = state.removal_probabilities()
        if mutant == "keep-probabilities":
            probs = np.clip(state.sigma, 0.0, None)
        u = state.reconstruct()
        expected = np.zeros((k, k))
        for i in range(m + 1):
            p = np.delete(state.q, i, axis=0)
            expected += probs[i] * (p.T @ p)
        for _ in range(draws):
            y = _random_unit_cap(rng, k)
            lhs = float(y @ y - y @ (expected @ y))  # enumerated E[y^T (I - P^T P) y]
            rhs = float(y @ y - y @ (u @ y))
            worst = max(worst, abs(lhs - rhs))
    _check(report, "enumeration-identity", worst <= 1e-10, max_abs_gap=worst)
    return report


def _weights_for(cost, y, yhat, order, mutant):
    if mutant != "static-context":
        return costs_mod.label_weights(cost, y, yhat, order).deltas
    deltas = np.zeros(y.size)
    for j in order:  # defect: earlier labels never corrected
        wrong = yhat.copy()
        wrong[j] = -y[j]
        right = yhat.copy()
        right[j] = y[j]
        deltas[j] = float(abs(cost.raw(y, wrong) - cost.raw(y, right)))
    return deltas


def suite_lemma3(
    random_trials: int = 10_000,
    condition_trials: int = 0,
    k_max: int = 12,
    seed: int = 0,
    cost_names: list[str] | None = None,
    mutant: str | None = None,
) -> SuiteReport:
    """Weight decomposition reproduces the cost on the disagreement set."""
    names = cost_names or ["hamming", "rank", "f1", "accuracy"]
    report = SuiteReport(
        "lemma3",
        True,
        params={"random_trials": random_trials, "condition_trials": condition_trials, "costs": names},
    )
    signs = np.array([-1, 1], dtype=np.int8)
    for name in names:
        cost = costs_mod.get_cost(name)
        worst = 0.0
        witness: dict = {}
        for k in (3, 4):  # exhaustive, native and reversed orders
            orders = [np.arange(k), np.arange(k)[::-1].copy()]
            grid = [signs[(i >> np.arange(k)) & 1] for i in range(2**k)]
            for y in grid:
                for yhat in grid:
                    total = float(cost.raw(y, yhat))
                    for order in orders:
                        deltas = _weights_for(cost, y, yhat, order, mutant)
                        gap = abs(float(np.sum(deltas[y != yhat])) - total)
                        if gap > worst:
                            worst = gap
                            witness = {"k": k, "y": y.tolist(), "yhat": yhat.tolist()}
        rng = substream(seed, 101)
        for _ in range(random_trials):
            k = int(rng.integers(2, k_max + 1))
            y = rng.choice(signs, size=k)
            yhat = rng.choice(signs, size=k)
            order = rng.permutation(k)
            deltas = _weights_for(cost, y, yhat, order, mutant)
            gap = abs(float(np.sum(deltas[y != yhat])) - float(cost.raw(y, yhat)))
            if gap > worst:
                worst = gap
                witness = {"k": k, "y": y.tolist(), "yhat": yhat.tolist(), "order": order.tolist()}
        _check(report, f"decomposition-{name}", worst <= 1e-12, max_abs_gap=worst, **witness)
        if condition_trials:
            probe = costs_mod.check_condition(cost, condition_trials, k_max=10, seed=seed)
            _check(
                report,
                f"condition-{name}",
                probe.passed,
                checked=probe.checked,
                violations=probe.violations[:3],
            )
    return report


def suite_sherman(
    d: int = 12, k: int = 8, t: int = 300, projections: int = 20, seed: int = 0, mutant: str | None = None
) -> SuiteReport:
    """Streaming ridge equals the direct batch solve at every step."""
    report = SuiteReport("sherman", True, params={"d": d, "k": k, "t": t, "seed": seed})
    rng = substream(seed, 103)
    head = Head(d, k, lam=1.0)
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    worst = 0.0
    worst_t = 0
    for step in range(1, t + 1):
        x = rng.standard_normal(d)
        x /= max(1.0, float(np.linalg.norm(x)))
        y = rng.choice(np.array([-1.0, 1.0]), size=k) / np.sqrt(k)
        xs.append(x)
        ys.append(y)
        if mutant == "sign-flip":
            ainv_x, gamma = head.acc.peek(x)
            head.w += np.outer(ainv_x, head.w.T @ x - y) / (1.0 + gamma)
            head.acc.absorb(x, ainv_x, gamma)
        else:
            head.update(x, y)
        xm = np.stack(xs)
        ym = np.stack(ys)
        direct = np.linalg.solve(xm.T @ xm + np.eye(d), xm.T @ ym)
        gap = float(np.max(np.abs(head.w - direct)))
        if gap > worst:
            worst, worst_t = gap, step
    _check(report, "batch-equivalence", worst <= 1e-8, max_abs_gap=worst, at_step=worst_t)
    xm = np.stack(xs)
    ym = np.stack(ys)
    proj_worst = 0.0
    for _ in range(projections):
        m = int(rng.integers(1, k))
        frame, _ = np.linalg.qr(rng.standard_normal((k, m)))
        p = frame.T
        x = rng.standard_normal(d)
        x /= max(1.0, float(np.linalg.norm(x)))
        w_direct = np.linalg.solve(xm.T @ xm + np.eye(d), xm.T @ (ym @ p.T))
        proj_worst = max(proj_worst, float(np.max(np.abs(p @ head.predict(x) - w_direct.T @ x))))
    _check(report, "projected-prediction", proj_worst <= 1e-8, max_abs_gap=proj_worst)
    return report


def grid_projection_oracle(v: np.ndarray, budget: int) -> np.ndarray:
    """Brute-force shift search: coarse grid bracketing, then local refinement."""
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(3):
        taus = np.linspace(lo, hi, 20_001)
        sums = np.clip(v[None, :] - taus[:, None], 0.0, 1.0).sum(axis=1)
        idx = int(np.argmin(np.abs(sums - budget)))
        step = taus[1] - taus[0]
        lo, hi = taus[idx] - 2 * step, taus[idx] + 2 * step
    return np.clip(v - taus[idx], 0.0, 1.0)


def suite_projection(instances: int = 50, seed: int = 0, mutant: str | None = None) -> SuiteReport:
    """Capped-simplex projection against a brute-force shift grid."""
    report = SuiteReport("projection", True, params={"instances": instances, "seed": seed})
    rng = substream(seed, 107)
    worst_feas = 0.0
    worst_vec = 0.0
    worst_dist = 0.0
    box_ok = True
    for _ in range(instances):
        n = int(rng.integers(2, 12))
        budget = int(rng.integers(1, n + 1))
        v = rng.uniform(-1.5, 2.5, size=n)
        w = project_capped_simplex(v, budget)
        if mutant == "nearest-breakpoint":
            bps = np.sort(np.concatenate((v - 1.0, v)))
            sums = np.clip(v[None, :] - bps[:, None], 0.0, 1.0).sum(axis=1)
            tau = bps[int(np.argmin(np.abs(sums - budget)))]
            w = np.clip(v - tau, 0.0, 1.0)
        worst_feas = max(worst_feas, abs(float(w.sum()) - budget))
        box_ok = box_ok and not (np.any(w < -1e-12) or np.any(w > 1 + 1e-12))
        ref = grid_projection_oracle(v, budget)
        worst_vec = max(worst_vec, float(np.max(np.abs(w - ref))))
        worst_dist = max(worst_dist, abs(float(np.sum((w - v) ** 2)) - float(np.sum((ref - v) ** 2))))
    _check(report, "box", box_ok)
    _check(report, "sum-feasibility", worst_feas <= 1e-9, max_sum_gap=worst_feas)
    _check(report, "grid-agreement", worst_vec <= 1e-5 and worst_dist <= 1e-5,
           max_vector_gap=worst_vec, max_distance_gap=worst_dist)
    feasible = np.array([1.0, 0.6, 0.4, 0.0])
    again = project_capped_simplex(feasible, 2)
    _check(report, "idempotence", float(np.max(np.abs(again - feasible))) <= 1e-12)
    return report


def suite_bounds(
    trials: int = 10_000, k_max: int = 10, seed: int = 0, mutant: str | None = None
) -> SuiteReport:
    """Randomized audit of the decoding cost upper bound."""
    report = SuiteReport("bounds", True, params={"trials": trials, "k_max": k_max, "seed": seed})
    rng = substream(seed, 113)
    signs = np.array([-1, 1], dtype=np.int8)
    names = ["hamming", "rank", "f1", "accuracy"]
    worst = -np.inf
    witness: dict = {}
    for _ in range(trials):
        k = int(rng.integers(2, k_max + 1))
        m = int(rng.integers(1, k))
        frame, _ = np.linalg.qr(rng.standard_normal((k, m)))
        p = frame.T
        y = rng.choice(signs, size=k)
        r = rng.standard_normal(m) * rng.uniform(0.0, 2.0)
        yhat = decode(p, r)
        cost = costs_mod.get_cost(names[int(rng.integers(0, len(names)))])
        cy = costs_mod.label_weights(cost, y, yhat).sqrt_deltas * y
        rhs = float(np.sum((r - p @ cy) ** 2))
        if mutant != "drop-residual":
            rhs += float(np.sum((cy - p.T @ (p @ cy)) ** 2))
        gap = float(cost(y, yhat)) - rhs
        if gap > worst:
            worst = gap
            witness = {"k": k, "m": m, "cost": cost.name, "gap": gap}
    _check(report, "cost-bound", worst <= 1e-9, **witness)
    return report


def suite_regret(t: int = 2000, seed: int = 3, mutant: str | None = None) -> SuiteReport:
    """Expected-regret decay and budget audit on planted low-rank data."""
    report = SuiteReport("regret", True, params={"t": t, "seed": seed})
    d, k, m = 16, 10, 3
    stream = planted_subspace_stream(
        d, k, t, seed, n_prototypes=m, prototype_probs=np.array([0.55, 0.3, 0.15]), feature_noise=0.02
    )
    learner = make_learner(LearnerConfig(algorithm="dpp-pbc", m=m, seed=seed), d, k)
    _, snapshots = run_with_snapshots(learner, stream)
    if mutant == "inverted-spectrum":
        snapshots = [(t_i, {**snap, "sigma": 1.0 - snap["sigma"]}) for t_i, snap in snapshots]
    t_short = max(10, t // 10)
    reports = {
        horizon: expected_regret(snapshots[:horizon], stream[:horizon], offline_plst(stream[:horizon], m))
        for horizon in (t_short, t)
    }
    full = reports[t]
    _check(
        report,
        "split-agreement",
        abs(full.cumulative_regret - full.split_total) <= 1e-8,
        direct=full.cumulative_regret,
        split=full.split_total,
    )
    rate_short = reports[t_short].cumulative_regret / t_short
    rate_full = full.cumulative_regret / t
    _check(report, "rate-decay", rate_full < 0.5 * rate_short, rate_short=rate_short, rate_full=rate_full)
    if full.assumptions_ok:
        ref = offline_plst(stream, m)
        budget = theorem2_bound(float(np.sum(full.deltas)), full.epsilon_hat, ref.h, m, d, t)
        _check(report, "budget", full.cumulative_regret <= budget, regret=full.cumulative_regret, budget=budget)
    else:
        _check(report, "assumptions", False, note="input norm assumptions violated")
    return report


SUITES = {
    "lemma1": suite_lemma1,
    "lemma3": suite_lemma3,
    "sherman": suite_sherman,
    "projection": suite_projection,
    "bounds": suite_bounds,
    "regret": suite_regret,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}") from None
    accepted = inspect.signature(fn).parameters
    return fn(**{k: v for k, v in kwargs.items() if k in accepted and v is not None})


def run_suites(names: list[str] | None = None, **kwargs) -> list[SuiteReport]:
    return [run_suite(name, **kwargs) for name in (names or sorted(SUITES))]
