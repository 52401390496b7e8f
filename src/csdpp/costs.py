"""Cost functions on {-1,+1}^K label vectors and per-label weight extraction.

A cost is a ratio of integers computed from the confusion counts tp, fp, fn,
tn: the labels positive in both truth and prediction, only in the prediction,
only in the truth, and in neither.  Costs lie in [0, 1], 0 iff equal where
defined.  The four built-ins, each 0 where its denominator is:

  hamming   : (fp + fn) / K
  rank      : (2 fn fp + tp fp + fn tn) / (2 (tp + fn) (fp + tn)), the averaged
              pairwise misorder of positive and negative truth labels, ties 1/2
  f1        : (fp + fn) / (2 tp + fp + fn) = 1 - F1
  accuracy  : (fp + fn) / (tp + fp + fn) = 1 - |P ∩ P'| / |P ∪ P'|

Per-label weights come from a sequential decomposition: walking the labels in
a given order from the prediction, correcting one label at a time, the weight
of label k is |c(truth, k forced wrong) - c(truth, k forced right)| with all
earlier labels already corrected.  Summed over the disagreement set these
weights reproduce the full cost exactly (telescoping), provided forcing a label
wrong never lowers the cost -- `check_condition` probes that hypothesis.

One pass over a (truth, prediction) pair (`_validate_pair`) checks it and
classifies it: each label's confusion category and the (tp, fp, fn, tn)
counts, from one `bincount`.  The counts price the prediction, and the
weights start from them: the predicted counts plus a prefix sum of each
label's change when corrected (looked up from its category) give every
position's forced-right counts, and one more change forces the label wrong;
each gap is then one float64 division of integers below 2**53, the double
nearest the exact rational (as the rational walk `verify.walk_gaps` gives).
A learner step classifies its pair once, checking y alone since its
prediction is decoded, and hands the result to `label_weights`; the public
entry points classify, and so check, what they are given.

Two built-ins are walk-free: for hamming and rank a label's gap depends only
on its truth sign, never on the walk position or the order, so their weights
come from a two-entry table instead of the walk.  With P and N the truth's
positive and negative labels:

  hamming   : the denominator is K at every position, and forcing a label
              wrong adds 1 to the numerator, so every weight is 1/K
  rank      : the denominator 2PN is the same at every position; forcing a
              positive label wrong adds N to the numerator and a negative one
              P, so a positive weighs 1/(2P) and a negative 1/(2N) (0 where
              P N = 0, as the floored denominator prices it)

So every walk position holds the same rational, and the walk's float64
division of integers below 2**53 gives its correctly rounded double; the
table prices the all-right counts (P, 0, 0, N) and one label of each sign
forced wrong on Python ints, whose true division rounds the same rational
correctly: bit for bit the walk, at any K.  Every hamming weight is the exact
double 1/K, and the cost-weighted learner degenerates bit for bit to the
unweighted one.

A built-in's numerator and denominator grow with every count, so their
values at counts (K, K, K, K) bound the whole walk; while that bound squares
below 2**53 (up to K = 3,444 for rank, past 2 * 10**7 for the others) the
walk is not scanned.  A custom cost's walk, and a built-in's past its bound,
is scanned for its largest count products, and one that reaches 2**53 is an
error.  The table has no such bound.

The built-ins are trusted: their results are used as they are.  A custom
cost's result is checked -- int64 integers, every denominator at least 1 --
the same way for one label vector and for a batch.  A learner probes a
custom cost's decomposition hypothesis unless its config sets ``trust_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .stream import PURPOSE_LABEL_ORDER, substream

__all__ = [
    "CostFunction",
    "ConditionReport",
    "get_cost",
    "register_cost",
    "available_costs",
    "label_weights",
    "check_condition",
    "native_order",
    "random_order",
]

_ONE_HOT = np.eye(4, dtype=np.int64)
# column c, for a label of confusion category c (0 tp, 1 fp, 2 fn, 3 tn), of two
# (tp, fp, fn, tn) tables: the change when the label is corrected (to tp or tn),
# and the change when, corrected, it is forced wrong (to fn or fp)
_CORRECTED, _FORCED = _ONE_HOT[:, [0, 3, 0, 3]], _ONE_HOT[:, [2, 1, 2, 1]]
_MOVES = np.stack((_CORRECTED - _ONE_HOT, _FORCED - _CORRECTED))


_SHAPE_ERRORS = {
    1: "label vectors must share a non-empty 1-d shape, got {} vs {}",
    2: "label arrays must share a (T, K) shape with K >= 1, got {} vs {}",
}
_VALUE_ERROR = "label vectors must take values in {-1,+1}"


def _validate_pair(y: np.ndarray, yhat: np.ndarray, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Check that y and yhat are {-1,+1} arrays of one ``ndim``-d shape with K >= 1
    labels in the last axis, and classify them in one pass.

    Returns each label's confusion category (0 tp, 1 fp, 2 fn, 3 tn) and the
    int64 (tp, fp, fn, tn) counts of each label vector, shaped (4, T) for T
    rows and (4,) for one vector.
    """
    if y.shape != yhat.shape or y.ndim != ndim or y.shape[-1] == 0:
        raise ValueError(_SHAPE_ERRORS[ndim].format(y.shape, yhat.shape))
    category = 2 * (yhat != 1)
    category += y != 1
    if ndim == 1:
        counts = total = np.bincount(category, minlength=4)
    else:  # row r's category c counts at 4 r + c
        rows = len(y)
        at = category + 4 * np.arange(rows)[:, None]
        counts = np.bincount(at.ravel(), minlength=4 * rows).reshape(rows, 4).T
        total = counts.sum(axis=1)
    _, fp, fn, tn = total.tolist()  # the entries other than +1 in y, then in yhat, must all be -1
    if np.count_nonzero(y == -1) != fp + tn or np.count_nonzero(yhat == -1) != fn + tn:
        raise ValueError(_VALUE_ERROR)
    return category, counts


@dataclass(frozen=True)
class CostFunction:
    """A named cost: ``counts(tp, fp, fn, tn)`` maps int64 counts to integer (numerator, denominator >= 1)."""

    name: str
    counts: Callable

    @property
    def condition_verified(self) -> bool:
        """Whether the weight-decomposition hypothesis is known to hold: true of the built-ins."""
        return self.counts in _BUILTINS

    def raw(self, y: np.ndarray, yhat: np.ndarray) -> Fraction:
        num, den = _priced(self, _validate_pair(np.asarray(y), np.asarray(yhat))[1])
        return Fraction(int(num), int(den))

    def __call__(self, y: np.ndarray, yhat: np.ndarray) -> float:
        return _price(self, _validate_pair(np.asarray(y), np.asarray(yhat))[1])

    def each(self, y, yhat) -> list[float]:
        """The cost of every row pair of two (T, K) label arrays, as `__call__` prices each.

        One classification pass and one ``counts`` call serve every row.
        """
        num, den = _priced(self, _validate_pair(np.asarray(y), np.asarray(yhat), 2)[1])
        return [n / d for n, d in zip(num.tolist(), den.tolist())]  # Python ints, as __call__ divides


def _price(cost: CostFunction, counts: np.ndarray) -> float:
    """The cost of one label vector with (tp, fp, fn, tn) ``counts``, as a double."""
    num, den = _priced(cost, counts)
    return int(num) / int(den)  # int true division rounds correctly: the double nearest the exact cost


def _priced(cost: CostFunction, counts: np.ndarray) -> tuple:
    """``cost.counts`` of the (4, ...) int64 (tp, fp, fn, tn) ``counts``, shaped like one count.

    A built-in is trusted, its result used as it is: it prices one label
    vector on Python ints, whose arithmetic is exact and cheap, and a batch on
    the count arrays.  A custom cost gets the int64 arrays (int64 scalars for
    one vector), and its result is checked and made int64 alike for both.
    """
    if cost.counts in _BUILTINS:
        return cost.counts(*(counts.tolist() if counts.ndim == 1 else counts))
    num, den = cost.counts(*counts)
    num, den = np.asarray(num), np.asarray(den)
    if any(part.dtype.kind not in "iu" or np.count_nonzero(part > np.iinfo(np.int64).max) for part in (num, den)):
        raise ValueError(f"cost {cost.name!r}: counts must return integers within int64, got {num.dtype} / {den.dtype}")
    if np.count_nonzero(den < 1):
        raise ValueError(f"cost {cost.name!r}: counts returned a denominator below 1")
    shape = counts.shape[1:]
    if num.shape != shape or den.shape != shape:  # e.g. a constant cost
        num, den = np.broadcast_to(num, shape), np.broadcast_to(den, shape)
    return num.astype(np.int64, copy=False), den.astype(np.int64, copy=False)


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


_BUILTINS: set[Callable] = set()  # the built-ins' counts: trusted, their results used as they are


def _builtin(name: str, counts: Callable) -> CostFunction:
    _BUILTINS.add(counts)
    return register_cost(CostFunction(name, counts))


def _floor(den):
    """den, with 1 where it is 0: int arithmetic on Python ints, the same int64 array as np.maximum(den, 1)."""
    return den + (den == 0)


# a built-in's numerator is 0 wherever its denominator is, so a floor of 1 prices that case 0
HAMMING = _builtin("hamming", lambda tp, fp, fn, tn: (fp + fn, tp + fp + fn + tn))
RANK = _builtin("rank", lambda tp, fp, fn, tn: (2 * fn * fp + tp * fp + fn * tn, _floor(2 * (tp + fn) * (fp + tn))))
F1 = _builtin("f1", lambda tp, fp, fn, tn: (fp + fn, _floor(2 * tp + fp + fn)))
ACCURACY = _builtin("accuracy", lambda tp, fp, fn, tn: (fp + fn, _floor(tp + fp + fn)))
# the built-ins whose gap depends on the label's truth sign alone (see the module docstring)
_WALK_FREE: set[Callable] = {HAMMING.counts, RANK.counts}


def native_order(k: int) -> np.ndarray:
    return np.arange(k)


def random_order(k: int, seed: int) -> np.ndarray:
    return substream(seed, PURPOSE_LABEL_ORDER).permutation(k)


def _sign_table(counts: Callable, tp: int, fp: int, fn: int, tn: int) -> np.ndarray:
    """A walk-free built-in's gap for each confusion category (0 tp, 1 fp, 2 fn, 3 tn):
    the positive label's gap for tp and fn, the negative label's for fp and tn.

    Each gap is (n_w d_r - n_r d_w) / (d_w d_r) on Python ints, from the
    all-right counts and one label of that sign forced wrong.  A sign y does
    not contain is not forced, so that no count goes negative: its entry,
    which no label reads, repeats the other sign's.
    """
    p, n = tp + fn, fp + tn
    n_r, d_r = counts(p, 0, 0, n)
    forced = [counts(*wrong) for wrong, held in (((p - 1, 0, 1, n), p), ((p, 1, 0, n - 1), n)) if held]
    gaps = [(n_w * d_r - n_r * d_w) / (d_w * d_r) for n_w, d_w in forced]
    pos, neg = gaps if len(gaps) == 2 else gaps * 2
    return np.array((pos, neg, pos, neg))


def _gaps(cost: CostFunction, category: np.ndarray, counts: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """Each label's signed gap c(forced wrong) - c(forced right), walking ``order``
    (native order when None) along the last axis, from `_validate_pair`'s classification.

    A walk-free built-in takes one label vector's gaps from `_sign_table`,
    whatever the order.  A batch (`check_condition`'s probe of the walk
    itself) always walks.  A built-in's numerator and denominator are
    polynomials with non-negative coefficients in counts of at most K, so
    their values at (K, K, K, K) bound them at every walk position: when that
    bound squares below 2**53, every count product is an exact double and the
    walk is not scanned.
    """
    if category.ndim == 1 and cost.counts in _WALK_FREE:
        return _sign_table(cost.counts, *counts.tolist()).take(category)
    at = order if order is None or order.ndim == 1 else (np.arange(order.shape[0])[:, None], order)
    correct, force = _MOVES.take(category if at is None else category[at], axis=-1)
    # the counts with the label at p forced right (labels up to p corrected,
    # labels after p as predicted), then with it forced wrong
    correct[..., 0] += counts  # the predicted counts, carried along by the prefix sum
    walk = np.empty((4, 2, *category.shape), dtype=np.int64)
    right, wrong = walk[:, 0], walk[:, 1]
    correct.cumsum(axis=-1, out=right)
    np.add(right, force, out=wrong)
    num, den = _priced(cost, walk)  # rows: forced right, forced wrong
    # bounds |n_w| d_r, |n_r| d_w and d_w d_r: integers below 2**53 are exact doubles
    k = category.shape[-1]
    if cost.counts not in _BUILTINS or max(cost.counts(k, k, k, k)) ** 2 >= 2**53:
        peak_r, peak_w = np.maximum(abs(num), den).reshape(2, -1).max(axis=1).tolist()
        if peak_r * peak_w >= 2**53:
            raise ValueError(f"cost {cost.name!r}: count products reach 2**53, the weights would be inexact")
    cross = num * den[::-1]  # n_r d_w, n_w d_r
    gaps = (cross[1] - cross[0]) / (den[1] * den[0])
    if at is None:
        return gaps
    walked, gaps = gaps, np.empty(gaps.shape)
    gaps[at] = walked
    return gaps


def label_weights(
    cost: CostFunction,
    y: np.ndarray,
    yhat: np.ndarray,
    order: np.ndarray | None = None,
    *,
    _classified: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Sequential per-label cost weights for truth y against prediction yhat.

    Walks ``order`` (native order by default) from yhat, correcting one label
    at a time; the weight of label j is the absolute cost gap between forcing
    j wrong and forcing j right at that point, and a learner scales label j by
    its square root.  For the walk-free built-ins, hamming and rank, that gap
    is the same at every point (see the module docstring), so the order changes
    nothing and the weights come from a table by truth sign: 1/K for hamming,
    1/(2P) per positive and 1/(2N) per negative label for rank, bit for bit
    what the walk gives; ``order`` is still checked.  ``_classified`` is for
    the learner, which has already classified the pair as `_validate_pair`
    does (checking y; its prediction is decoded) and built the order itself:
    given its (category, counts), nothing is checked again.
    """
    if _classified is None:
        y = np.asarray(y)
        _classified = _validate_pair(y, np.asarray(yhat))
        if order is not None:
            order = np.asarray(order)
            if order.shape != (y.size,) or not np.array_equal(np.sort(order), np.arange(y.size)):
                raise ValueError("order must be a permutation of range(K)")
    gaps = _gaps(cost, *_classified, order)
    return np.abs(gaps, out=gaps)


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


def check_condition(cost: CostFunction, trials: int, k_max: int, seed: int = 0) -> ConditionReport:
    """Sample (y, yhat, order) triples and test that no label's gap dips below 0."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    rng = substream(seed, PURPOSE_LABEL_ORDER)
    report = ConditionReport(cost.name, trials)
    signs = np.array([-1, 1], dtype=np.int8)
    sizes = rng.integers(2, k_max + 1, size=trials)
    for k in np.unique(sizes):  # the triples with k labels, as one batch
        n = int(np.count_nonzero(sizes == k))
        y = rng.choice(signs, size=(n, k))
        yhat = rng.choice(signs, size=(n, k))
        order = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)
        gaps = _gaps(cost, *_validate_pair(y, yhat, 2), order)
        report.checked += gaps.size
        for i, j in np.argwhere(gaps < 0)[: 20 - len(report.violations)]:
            witness = {"y": y[i].tolist(), "yhat": yhat[i].tolist(), "order": order[i].tolist()}
            report.violations.append({**witness, "label": int(j), "gap": float(gaps[i, j])})
    return report
