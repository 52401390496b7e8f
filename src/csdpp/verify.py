"""Self-check suites runnable from the CLI (`csdpp verify ...`).

Each suite re-derives an exact property of the implementation against an
independent oracle computed inline (enumeration, brute-force grids, direct
batch solves) and reports machine-readable pass/fail with witnesses.

Every suite accepts a `mutant` name that deliberately injects a plausible
defect into the checked computation; the suite must then fail.  That keeps the
suites honest: a check that cannot catch its own canonical bug proves nothing.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import costs as costs_mod
from .evaluation import expected_regret, offline_plst, run_with_snapshots, theorem2_bound
from .learners import LearnerConfig, _classify, decode, make_learner
from .linalg import TOL, project_capped_simplex, projection_sweep, symmetric_eigen
from .online_pca import CappedMsgState, EtaSchedule
from .regressor import Head
from .stream import planted_subspace_stream, substream

__all__ = ["SUITES", "MUTANTS", "Mutant", "RequestError", "Suite", "SuiteReport", "run_suite", "run_suites"]


@dataclass(frozen=True)
class Mutant:
    """A defect injected into ``suite``'s checked computation, which must then fail."""

    suite: str
    breaks: str | None = None  # a fast-path defect's bit check ("{cost}": each lemma3 cost); it breaks no oracle
    blind: frozenset[str] = frozenset()  # the costs whose weights it cannot change


# a walk-free cost's gaps do not depend on the walk (see `costs`), so no defect in its context or order shows
_WALK_FREE_NAMES = frozenset(cost.name for cost in costs_mod._REGISTRY.values() if cost.counts in costs_mod._WALK_FREE)
MUTANTS = {
    "keep-probabilities": Mutant("lemma1"),                      # removal probs read sigma instead of 1-sigma
    "static-context": Mutant("lemma3", blind=_WALK_FREE_NAMES),  # weights extracted without correcting earlier labels
    "sign-flip": Mutant("sherman"),                              # head correction applied with the wrong sign
    "nearest-breakpoint": Mutant("projection"),                  # shift snapped to a breakpoint, no interpolation
    "drop-residual": Mutant("bounds"),                           # bound omits the out-of-span term
    "inverted-spectrum": Mutant("regret"),                       # online losses reconstruct U from 1-sigma
    "skip-residual": Mutant("tracker"),                          # every observation treated as in-span
    "native-walk": Mutant("lemma3", "walk-agreement-{cost}", _WALK_FREE_NAMES),  # the learner walks native order only
    # the learner's path reads each label's truth sign flipped: a walk-free cost's label takes the other
    # sign's table entry, and hamming's two are equal
    "swapped-walk-free": Mutant("lemma3", "walk-agreement-{cost}", frozenset({costs_mod.HAMMING.name})),
    "reversed-sum": Mutant("projection", "sweep-agreement"),  # the small-n projection sums each row last to first
    "reassociated-eta": Mutant("tracker", "checked-agreement"),  # the unchecked step's eta as scale (m/k) / sqrt(t)
    "reversed-draw": Mutant("tracker", "checked-agreement"),  # the draw below 8 rows sums from the last row
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
        state = CappedMsgState.initialize(k, m, int(rng.integers(0, 2**31)))
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


def dense_tracker_step(u: np.ndarray, y: np.ndarray, eta: float, m: int) -> np.ndarray:
    """Full-space oracle step: eigh of U + eta y y^T, keep the top M+1, project onto the capped simplex."""
    vals, vecs = np.linalg.eigh(u + eta * np.outer(y, y))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    vals[m + 1:] = 0.0
    vals[: m + 1] = project_capped_simplex(vals[: m + 1], m)
    return (vecs * vals) @ vecs.T


def checked_tracker_step(state: CappedMsgState, y: np.ndarray, t: int) -> None:
    """Oracle for `CappedMsgState.update` on a valid observation: the step as first written.

    It takes the norms with ``np.linalg.norm``, builds the small matrix with
    ``np.diag``/``np.append``/``np.outer`` and the grown frame with ``np.vstack``,
    solves it through the public, checked ``symmetric_eigen`` and projects the
    spectrum with the NumPy sweep.
    """
    y = np.asarray(y, dtype=np.float64)
    ynorm = float(np.linalg.norm(y))
    eta = float(state.schedule(t))
    coeff = state.q @ y
    r = y - coeff @ state.q
    c = state.q @ r
    coeff += c
    r -= c @ state.q
    rho = float(np.linalg.norm(r))
    if rho <= TOL.in_span * max(ynorm, 1.0):
        small = np.diag(state.sigma) + eta * np.outer(coeff, coeff)
        frame = state.q
    else:
        aug = np.append(coeff, rho)
        small = np.diag(np.append(state.sigma, 0.0)) + eta * np.outer(aug, aug)
        frame = np.vstack((state.q, r / rho))
    eig = symmetric_eigen(small)
    state.sigma = projection_sweep(eig.values[: state.m + 1], state.m)
    state.q = eig.vectors[:, : state.m + 1].T @ frame


def sequential_draw(state: CappedMsgState, rng: np.random.Generator) -> np.ndarray:
    """Oracle for `CappedMsgState.sample_projection`: walk the running total row by row."""
    probs = state.removal_probabilities()
    u = float(rng.random()) * float(probs.sum())
    acc = 0.0
    drop = state.m  # fall through to the last row on fp underflow
    for i in range(state.m + 1):
        acc += probs[i]
        if u < acc:
            drop = i
            break
    return np.delete(state.q, drop, axis=0)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reassociated(schedule: EtaSchedule):
    """The ``reassociated-eta`` defect: ``schedule`` one rounding off at some steps."""
    return lambda t: schedule.scale * (schedule.m / schedule.k) / math.sqrt(t)


def _draw(state: CappedMsgState, rng: np.random.Generator, mutant) -> np.ndarray:
    """``state.sample_projection(rng)``, or below 8 rows its ``reversed-draw`` defect."""
    if mutant == "reversed-draw" and state.m < 7:
        flipped = CappedMsgState(state.q[::-1], state.sigma[::-1], state.m, state.schedule)
        return flipped.sample_projection(rng)[::-1]
    return state.sample_projection(rng)


def suite_tracker(trials: int = 40, steps: int = 30, seed: int = 0, mutant: str | None = None) -> SuiteReport:
    """Factored tracker updates against the dense K x K step, and bit for bit against the checked step.

    The checked step is the oracle of both update paths: the public one and
    the unchecked one the learner takes.
    """
    report = SuiteReport("tracker", True, params={"trials": trials, "steps": steps, "seed": seed})
    rng = substream(seed, 109)
    worst, witness, differs = 0.0, {}, {}
    invalid: list[str] = []
    for _ in range(trials):
        k = int(rng.integers(3, 31))
        m = int(rng.integers(1, k))
        init_seed = int(rng.integers(0, 2**31))
        state = CappedMsgState.initialize(k, m, init_seed)
        ref = CappedMsgState(state.q, state.sigma, m, state.schedule)  # keeps the frame's memory order
        lean_schedule = _reassociated(state.schedule) if mutant == "reassociated-eta" else state.schedule
        lean = CappedMsgState(state.q, state.sigma, m, lean_schedule)
        fast_rng, ref_rng = np.random.default_rng(init_seed), np.random.default_rng(init_seed)
        u = state.reconstruct()
        for step in range(1, steps + 1):
            y = _random_unit_cap(rng, k)
            if step % 5 == 0:  # exercise the in-span branch too
                y = state.q.T @ (state.q @ y)
            seen = state.q.T @ (state.q @ y) if mutant == "skip-residual" else y
            basis, ref_basis = _draw(state, fast_rng, mutant), sequential_draw(ref, ref_rng)
            state.update(seen, step)
            lean.update(seen, step, _checked=False)  # seen is contiguous float64 of norm <= 1
            checked_tracker_step(ref, seen, step)
            if not differs:
                parts = {
                    "basis": (basis, ref_basis),
                    "q": (state.q, ref.q),
                    "sigma": (state.sigma, ref.sigma),
                    "unchecked-q": (lean.q, ref.q),
                    "unchecked-sigma": (lean.sigma, ref.sigma),
                }
                bad = [name for name, (a, b) in parts.items() if not _same_bits(a, b)]
                if bad:
                    differs = {"k": k, "m": m, "step": step, "parts": bad}
            u = dense_tracker_step(u, y, state.schedule(step), m)
            gap = float(np.max(np.abs(state.reconstruct() - u)))
            if gap > worst:
                worst = gap
                witness = {"k": k, "m": m, "step": step}
            try:
                state.validate()
            except ValueError as exc:
                invalid.append(f"k={k} m={m} step={step}: {exc}")
    _check(report, "dense-agreement", worst <= 1e-7, max_abs_gap=worst, **witness)
    _check(report, "checked-agreement", not differs, steps=trials * steps, **differs)
    _check(report, "feasibility", not invalid, violations=invalid[:3])
    return report


def walk_gaps(cost, y: np.ndarray, yhat: np.ndarray, order: np.ndarray, correct: bool = True) -> np.ndarray:
    """Oracle for `costs.label_weights`: each label's signed gap c(wrong) - c(right).

    Walks ``order`` label by label in exact rationals, moving the pair's counts,
    taken once on Python ints, one label at a time; ``correct=False`` never
    corrects earlier labels, which is lemma3's static-context defect.
    """
    truth = [t == 1 for t in y.tolist()]
    category = [2 * (p != 1) + (not t) for t, p in zip(truth, yhat.tolist())]  # 0 tp, 1 fp, 2 fn, 3 tn
    counts = [category.count(c) for c in range(4)]
    gaps, unit = np.zeros(y.size), np.eye(4, dtype=np.int64)
    for j in order.tolist():
        right, wrong = (0, 2) if truth[j] else (3, 1)
        counts[category[j]] -= 1  # label j leaves its category, to be forced right, then wrong
        (n_r, d_r), (n_w, d_w) = (costs_mod._priced(cost, unit[c] + counts) for c in (right, wrong))
        gaps[j] = float(Fraction(int(n_w), int(d_w)) - Fraction(int(n_r), int(d_r)))
        counts[right if correct else category[j]] += 1
    return gaps


def _triple(y: np.ndarray, yhat: np.ndarray, order: np.ndarray) -> dict:
    return {"k": y.size, "y": y.tolist(), "yhat": yhat.tolist(), "order": order.tolist()}


def _weights_for(cost, y, yhat, order, mutant):
    if mutant == "static-context":
        return np.abs(walk_gaps(cost, y, yhat, order, correct=False))
    return costs_mod.label_weights(cost, y, yhat, order)


def _learner_weights(cost, y, yhat, order, mutant) -> np.ndarray:
    """The learner's path: square-rooted weights from its classification of the pair
    (yhat, like a decoded prediction, is {-1,+1} int8), walking ``order``, or
    native order directly when it is None."""
    walk = None if mutant == "native-walk" else order
    category, counts = _classify(y, yhat)
    if mutant == "swapped-walk-free":
        category = category ^ 1  # tp <-> fp, fn <-> tn: the truth sign flipped, the counts kept
    weights = costs_mod.label_weights(cost, y, yhat, walk, _classified=(category, counts))
    return np.sqrt(weights, out=weights)


def _walk_agrees(cost, y, yhat, order, weights, drawn: bool, mutant) -> bool:
    """The public weights and the learner's path against the rational walk, bit for bit.

    The learner walks native order directly where ``order`` is the identity,
    and a ``drawn`` triple is also walked in native order that way.
    """
    native = np.arange(y.size)
    gaps = np.abs(walk_gaps(cost, y, yhat, order))
    if np.array_equal(order, native):
        order = None
    elif drawn:
        walked = np.sqrt(np.abs(walk_gaps(cost, y, yhat, native)))
        if not _same_bits(_learner_weights(cost, y, yhat, None, mutant), walked):
            return False
    return np.array_equal(weights, gaps) and _same_bits(_learner_weights(cost, y, yhat, order, mutant), np.sqrt(gaps))


def suite_lemma3(random_trials: int = 10_000, condition_trials: int = 1000, k_max: int = 12, seed: int = 0,
                 cost_names: list[str] | None = None, mutant: str | None = None) -> SuiteReport:
    """Weights reproduce the cost on the disagreement set and equal the rational walk bit for bit,
    through the public `label_weights` and through the learner's classified path."""
    names = cost_names or ["hamming", "rank", "f1", "accuracy"]
    walk_trials = max(1, random_trials // 50)  # the walk prices each label exactly, at K up to 64
    params = {"random_trials": random_trials, "walk_trials": walk_trials, "condition_trials": condition_trials,
              "k_max": k_max, "seed": seed}
    report = SuiteReport("lemma3", True, params={**params, "costs": names})
    signs = np.array([-1, 1], dtype=np.int8)
    exhaustive = [  # every (y, yhat, order) at K <= 4
        (signs[(i >> np.arange(k)) & 1], signs[(j >> np.arange(k)) & 1], np.array(order))
        for k in range(1, 5)
        for i in range(2**k)
        for j in range(2**k)
        for order in itertools.permutations(range(k))
    ]
    for name in names:
        cost = costs_mod.get_cost(name)
        rng = substream(seed, 101)

        def draw(k: int) -> tuple:
            return rng.choice(signs, size=k), rng.choice(signs, size=k), rng.permutation(k)

        sampled = [draw(int(rng.integers(2, k_max + 1))) for _ in range(random_trials)]
        walked = exhaustive + [draw(int(rng.integers(1, 65))) for _ in range(walk_trials)]
        weights = [_weights_for(cost, y, yhat, order, mutant) for y, yhat, order in walked + sampled]
        worst, witness = 0.0, {}
        for w, (y, yhat, order) in zip(weights, walked + sampled):
            gap = abs(float(np.sum(w[y != yhat])) - float(cost.raw(y, yhat)))
            if gap > worst:
                worst, witness = gap, _triple(y, yhat, order)
        _check(report, f"decomposition-{name}", worst <= 1e-12, max_abs_gap=worst, **witness)
        bad = [
            t
            for i, (t, w) in enumerate(zip(walked, weights))
            if not _walk_agrees(cost, *t, w, i >= len(exhaustive), mutant)
        ]
        witness = _triple(*bad[0]) if bad else {}
        _check(report, f"walk-agreement-{name}", not bad, triples=len(walked), **witness)
        if condition_trials:
            probe = costs_mod.check_condition(cost, condition_trials, k_max=10, seed=seed)
            _check(report, f"condition-{name}", probe.passed, checked=probe.checked, violations=probe.violations[:3])
    return report


def suite_sherman(d: int = 12, k: int = 8, t: int = 300, projections: int = 20, seed: int = 0,
                  mutant: str | None = None) -> SuiteReport:
    """Streaming ridge equals the direct batch solve at every step."""
    report = SuiteReport("sherman", True, params={"d": d, "k": k, "t": t, "projections": projections, "seed": seed})
    rng = substream(seed, 103)
    head = Head(d, k, lam=1.0)
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    worst, worst_t = 0.0, 0
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
        xm, ym = np.stack(xs), np.stack(ys)
        direct = np.linalg.solve(xm.T @ xm + np.eye(d), xm.T @ ym)
        gap = float(np.max(np.abs(head.w - direct)))
        if gap > worst:
            worst, worst_t = gap, step
    _check(report, "batch-equivalence", worst <= 1e-8, max_abs_gap=worst, at_step=worst_t)
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


# small-n projection inputs whose sweep meets ties, breakpoints that coincide or sit
# exactly on the box edges, zero entries and -0.0
_EDGE_VECTORS = (
    [0.5, 0.5, 0.5, 0.5],
    [1.5, 0.5, 0.5, -0.5, 1.5],
    [1.0, 2.0, 0.25, 1.25, -1.0, 0.75, 1.75],
    [0.0, 0.7, 0.3, 1.0],
    [-0.0, 0.0, 0.6, 1.0, 0.4],
    [0.3, -0.0, 0.9],
    [2.0, -0.0, -1.0],
)


def _small_projection(v: np.ndarray, budget: int, mutant) -> np.ndarray:
    if mutant == "reversed-sum":
        return project_capped_simplex(v[::-1], budget)[::-1]
    return project_capped_simplex(v, budget)


def suite_projection(instances: int = 50, seed: int = 0, mutant: str | None = None) -> SuiteReport:
    """Capped-simplex projection against a brute-force shift grid, and below
    n = 8 against the NumPy sweep bit for bit."""
    report = SuiteReport("projection", True, params={"instances": instances, "seed": seed})
    rng = substream(seed, 107)
    worst_feas = worst_vec = worst_dist = 0.0
    box_ok = True
    small = [(np.array(v), budget) for v in _EDGE_VECTORS for budget in range(1, len(v) + 1)]
    for _ in range(instances):
        n = int(rng.integers(2, 12))
        budget = int(rng.integers(1, n + 1))
        v = rng.uniform(-1.5, 2.5, size=n)
        if n < 8:
            small.append((v, budget))
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
    _check(report, "sum-feasibility", worst_feas <= TOL.simplex_sum, max_sum_gap=worst_feas)
    _check(report, "grid-agreement", worst_vec <= 1e-5 and worst_dist <= 1e-5,
           max_vector_gap=worst_vec, max_distance_gap=worst_dist)
    feasible = np.array([1.0, 0.6, 0.4, 0.0])
    again = project_capped_simplex(feasible, 2)
    _check(report, "idempotence", float(np.max(np.abs(again - feasible))) <= TOL.simplex_idempotence)
    for _ in range(instances):
        n = int(rng.integers(1, 8))
        budget = int(rng.integers(1, n + 1))
        small.append((rng.integers(-6, 11, size=n) / 4.0, budget))  # the quarter grid: ties, exact breakpoints
        small.append((rng.uniform(0.0, 1.0, size=n), budget))  # every clip inside the box: rounded sums
    bad = [(v, b) for v, b in small if not _same_bits(_small_projection(v, b, mutant), projection_sweep(v, b))]
    witness = {"v": bad[0][0].tolist(), "budget": bad[0][1]} if bad else {}
    _check(report, "sweep-agreement", not bad, cases=len(small), **witness)
    return report


def suite_bounds(trials: int = 10_000, k_max: int = 10, seed: int = 0, mutant: str | None = None) -> SuiteReport:
    """Randomized audit of the decoding cost upper bound."""
    report = SuiteReport("bounds", True, params={"trials": trials, "k_max": k_max, "seed": seed})
    rng = substream(seed, 113)
    signs = np.array([-1, 1], dtype=np.int8)
    names = ["hamming", "rank", "f1", "accuracy"]
    worst, witness = -np.inf, {}
    for _ in range(trials):
        k = int(rng.integers(2, k_max + 1))
        m = int(rng.integers(1, k))
        frame, _ = np.linalg.qr(rng.standard_normal((k, m)))
        p = frame.T
        y = rng.choice(signs, size=k)
        r = rng.standard_normal(m) * rng.uniform(0.0, 2.0)
        yhat = decode(p, r)
        cost = costs_mod.get_cost(names[int(rng.integers(0, len(names)))])
        cy = np.sqrt(costs_mod.label_weights(cost, y, yhat)) * y
        rhs = float(np.sum((r - p @ cy) ** 2))
        if mutant != "drop-residual":
            rhs += float(np.sum((cy - p.T @ (p @ cy)) ** 2))
        gap = float(cost(y, yhat)) - rhs
        if gap > worst:
            worst = gap
            witness = {"k": k, "m": m, "cost": cost.name, "gap": gap}
    _check(report, "cost-bound", worst <= TOL.bound_audit, **witness)
    return report


def suite_regret(t: int = 2000, seed: int = 0, mutant: str | None = None) -> SuiteReport:
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
    _check(report, "split-agreement", abs(full.cumulative_regret - full.split_total) <= 1e-8,
           direct=full.cumulative_regret, split=full.split_total)
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


@dataclass(frozen=True)
class Suite:
    """A suite's function and the parameters one trial count sets."""

    run: Callable[..., SuiteReport]
    counts: tuple[str, ...]  # a stream's length is no trial count: regret's rate-decay needs its t


SUITES = {
    "lemma1": Suite(suite_lemma1, ("trials",)),
    "lemma3": Suite(suite_lemma3, ("random_trials", "condition_trials")),
    "sherman": Suite(suite_sherman, ("projections",)),
    "projection": Suite(suite_projection, ("instances",)),
    "bounds": Suite(suite_bounds, ("trials",)),
    "regret": Suite(suite_regret, ()),
    "tracker": Suite(suite_tracker, ("trials",)),
}


class RequestError(ValueError):
    """A refused verify request, told apart from a ValueError raised inside a running suite."""


def _known(table: dict, kind: str, names: list[str]) -> None:
    for i, name in enumerate(names):
        if name not in table:
            raise RequestError(f"unknown {kind} {name!r}; available: {sorted(table)}")
        if name in names[:i]:
            raise RequestError(f"{kind} {name!r} is given twice; give each once")


def run_suite(name: str, **kwargs) -> SuiteReport:
    """Run one suite on its own keywords (another is a TypeError) and its own mutant only."""
    mutant = kwargs.get("mutant")
    _known(SUITES, "suite", [name])
    _known(MUTANTS, "mutant", [] if mutant is None else [mutant])
    if mutant is not None and MUTANTS[mutant].suite != name:
        raise RequestError(f"mutant {mutant!r} belongs to suite {MUTANTS[mutant].suite!r}, not {name!r}")
    return SUITES[name].run(**kwargs)


def run_suites(names=None, *, trials=None, seed=0, mutant=None, costs=None) -> list[SuiteReport]:
    """`csdpp verify`: the named suites in order (default all), ``trials`` setting each `Suite.counts`.

    RequestError, carrying the CLI's message, refuses a request that names
    something unknown, runs something twice, checks nothing or drops a value.
    """
    selected, costs, entry = list(names or sorted(SUITES)), costs or [], MUTANTS.get(mutant)
    _known(SUITES, "suite", selected)
    if seed < 0:
        raise RequestError(f"--seed must be >= 0, got {seed}")
    if trials is not None and trials < 1:
        raise RequestError(f"--trials must be >= 1, got {trials}")
    _known(costs_mod._REGISTRY, "cost", costs)
    if costs and "lemma3" not in selected:
        raise RequestError("--cost restricts suite lemma3, which is not selected")
    _known(MUTANTS, "mutant", [] if mutant is None else [mutant])
    if entry and entry.suite not in selected:
        raise RequestError(f"mutant {mutant!r} belongs to suite {entry.suite!r}, which is not selected")
    if entry and costs and set(costs) <= entry.blind:
        raise RequestError(f"mutant {mutant!r} cannot change the weights of {', '.join(sorted(costs))}; add a "
                           f"--cost it can change: {', '.join(sorted(set(costs_mod._REGISTRY) - entry.blind))}")
    reports = []
    for name in selected:
        suite = SUITES[name]
        kwargs = dict.fromkeys(suite.counts, trials) if trials else {}
        if costs and name == "lemma3":
            kwargs["cost_names"] = costs
        if entry and entry.suite == name:
            kwargs["mutant"] = mutant
        reports.append(suite.run(seed=seed, **kwargs))
    return reports
