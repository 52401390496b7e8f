"""Cost functions on {-1,+1}^K label vectors and per-label weight extraction.

Costs map (truth, prediction) to [0, 1], 0 iff equal where defined.  The four
built-ins:

  hamming   : (# disagreeing labels) / K
  rank      : averaged pairwise misorder between positive and negative truth
              labels, ties counted 1/2; 0 when truth has no positive/negative pair
  f1        : 1 - 2|P ∩ P'| / (|P| + |P'|) with P, P' the positive sets;
              0 when both sets are empty
  accuracy  : 1 - |P ∩ P'| / |P ∪ P'|; 0 when the union is empty

Per-label weights come from a sequential decomposition: walking the labels in
a given order with a working copy that starts at the prediction, the weight of
label k is |c(truth, forced-wrong at k) - c(truth, forced-right at k)| with all
earlier labels already corrected.  Summed over the disagreement set these
weights reproduce the full cost exactly (telescoping), provided forcing a label
wrong never lowers the cost -- `check_condition` probes that hypothesis.

Built-in costs evaluate internally in exact rationals so weight differences
are exact: with the hamming cost every weight is the same double as 1/K, which
downstream lets the cost-weighted learner degenerate bit-for-bit to the
unweighted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .stream import PURPOSE_LABEL_ORDER, substream

__all__ = [
    "CostFunction",
    "WeightDiagonal",
    "ConditionReport",
    "get_cost",
    "register_cost",
    "available_costs",
    "hamming_loss",
    "rank_loss",
    "f1_loss",
    "accuracy_loss",
    "label_weights",
    "check_condition",
    "native_order",
    "random_order",
]


def _validate_pair(y: np.ndarray, yhat: np.ndarray) -> None:
    if y.shape != yhat.shape or y.ndim != 1 or y.size == 0:
        raise ValueError(f"label vectors must share a non-empty 1-d shape, got {y.shape} vs {yhat.shape}")
    if not (np.all(np.abs(y) == 1) and np.all(np.abs(yhat) == 1)):
        raise ValueError("label vectors must take values in {-1,+1}")


def _ham(y: np.ndarray, yhat: np.ndarray) -> Fraction:
    return Fraction(int(np.count_nonzero(y != yhat)), y.size)


def _rank(y: np.ndarray, yhat: np.ndarray) -> Fraction:
    pos = y == 1
    neg = ~pos
    npos = int(np.count_nonzero(pos))
    nneg = y.size - npos
    if npos == 0 or nneg == 0:
        return Fraction(0)
    p1 = int(np.count_nonzero(yhat[pos] == 1))
    p0 = npos - p1
    n1 = int(np.count_nonzero(yhat[neg] == 1))
    n0 = nneg - n1
    # misordered pairs count 1, tied pairs count 1/2
    return Fraction(2 * p0 * n1 + p1 * n1 + p0 * n0, 2 * npos * nneg)


def _f1(y: np.ndarray, yhat: np.ndarray) -> Fraction:
    inter = int(np.count_nonzero((y == 1) & (yhat == 1)))
    denom = int(np.count_nonzero(y == 1)) + int(np.count_nonzero(yhat == 1))
    if denom == 0:
        return Fraction(0)
    return Fraction(denom - 2 * inter, denom)


def _acc(y: np.ndarray, yhat: np.ndarray) -> Fraction:
    inter = int(np.count_nonzero((y == 1) & (yhat == 1)))
    union = int(np.count_nonzero((y == 1) | (yhat == 1)))
    if union == 0:
        return Fraction(0)
    return Fraction(union - inter, union)


@dataclass(frozen=True)
class CostFunction:
    """A named cost; ``raw`` may return Fraction (exact) or float."""

    name: str
    raw: Callable[[np.ndarray, np.ndarray], Fraction | float]
    condition_verified: bool = False  # weight-decomposition hypothesis known to hold

    def __call__(self, y: np.ndarray, yhat: np.ndarray) -> float:
        y = np.asarray(y)
        yhat = np.asarray(yhat)
        _validate_pair(y, yhat)
        return float(self.raw(y, yhat))


_REGISTRY: dict[str, CostFunction] = {}


def register_cost(cost: CostFunction) -> CostFunction:
    if cost.name in _REGISTRY:
        raise ValueError(f"cost {cost.name!r} already registered")
    _REGISTRY[cost.name] = cost
    return cost


def get_cost(name: str) -> CostFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown cost {name!r}; available: {sorted(_REGISTRY)}") from None


def available_costs() -> list[str]:
    return sorted(_REGISTRY)


HAMMING = register_cost(CostFunction("hamming", _ham, condition_verified=True))
RANK = register_cost(CostFunction("rank", _rank, condition_verified=True))
F1 = register_cost(CostFunction("f1", _f1, condition_verified=True))
ACCURACY = register_cost(CostFunction("accuracy", _acc, condition_verified=True))


def hamming_loss(y, yhat) -> float:
    return HAMMING(y, yhat)


def rank_loss(y, yhat) -> float:
    return RANK(y, yhat)


def f1_loss(y, yhat) -> float:
    return F1(y, yhat)


def accuracy_loss(y, yhat) -> float:
    return ACCURACY(y, yhat)


def native_order(k: int) -> np.ndarray:
    return np.arange(k)


def random_order(k: int, seed: int) -> np.ndarray:
    return substream(seed, PURPOSE_LABEL_ORDER).permutation(k)


@dataclass(frozen=True)
class WeightDiagonal:
    """Per-label weights delta and their square roots (the diagonal actually applied)."""

    deltas: np.ndarray
    sqrt_deltas: np.ndarray


def label_weights(
    cost: CostFunction, y: np.ndarray, yhat: np.ndarray, order: np.ndarray | None = None
) -> WeightDiagonal:
    """Sequential per-label cost weights for truth y against prediction yhat.

    Walks ``order`` (native order by default) holding a working vector that
    starts at yhat and is corrected one label at a time; the weight of label j
    is the cost gap between forcing j wrong and forcing j right at that point.
    """
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    _validate_pair(y, yhat)
    k = y.size
    if order is None:
        order = native_order(k)
    else:
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(k)):
            raise ValueError("order must be a permutation of range(K)")
    cur = yhat.copy()
    deltas = np.zeros(k, dtype=np.float64)
    for j in order:
        right = cur.copy()
        right[j] = y[j]
        wrong = cur.copy()
        wrong[j] = -y[j]
        deltas[j] = float(abs(cost.raw(y, wrong) - cost.raw(y, right)))
        cur[j] = y[j]
    return WeightDiagonal(deltas, np.sqrt(deltas))


@dataclass
class ConditionReport:
    """Outcome of probing the decomposition hypothesis c(wrong) >= c(right)."""

    cost_name: str
    trials: int
    checked: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_condition(
    cost: CostFunction, trials: int, k_max: int, seed: int = 0, tol: float = 1e-12
) -> ConditionReport:
    """Sample (y, yhat, order, position) tuples and test the gap never dips below 0."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    rng = substream(seed, PURPOSE_LABEL_ORDER)
    report = ConditionReport(cost.name, trials)
    signs = np.array([-1, 1], dtype=np.int8)
    for _ in range(trials):
        k = int(rng.integers(2, k_max + 1))
        y = rng.choice(signs, size=k)
        yhat = rng.choice(signs, size=k)
        order = rng.permutation(k)
        cur = yhat.copy()
        for j in order:
            right = cur.copy()
            right[j] = y[j]
            wrong = cur.copy()
            wrong[j] = -y[j]
            gap = float(cost.raw(y, wrong)) - float(cost.raw(y, right))
            report.checked += 1
            if gap < -tol:
                if len(report.violations) < 20:
                    report.violations.append(
                        {
                            "y": y.tolist(),
                            "yhat": yhat.tolist(),
                            "order": order.tolist(),
                            "label": int(j),
                            "gap": gap,
                        }
                    )
            cur[j] = y[j]
    return report
