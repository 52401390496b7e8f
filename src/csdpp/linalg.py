"""Dense numeric kernels for the streaming encoder.

Two primitives live here because everything above them depends on their exact
behaviour: a symmetric eigensolver for the small ((M+2)-dimensional) matrices
of the rank-capped spectral update, and the Euclidean projection onto the
capped simplex ``{w : 0 <= w_i <= 1, sum_i w_i = budget}``.

The eigensolver is LAPACK's symmetric driver through ``np.linalg.eigh``,
wrapped with input checks, a descending order and a deterministic sign for
each eigenvector (its largest-magnitude entry is positive).  The sign rule
matters to callers that rotate a frame by the eigenvectors: for a small
update the vectors stay close to the identity columns, so each frame row
keeps its orientation from one step to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerances used across the package."""

    symmetry: float = 1e-10          # max asymmetry accepted by the eigensolver
    reconstruction: float = 1e-8     # V diag(w) V^T vs input
    orthonormality: float = 1e-9     # frame drift allowed in spectral state
    trace: float = 1e-9              # trace budget drift allowed in spectral state
    simplex_sum: float = 1e-9        # sum constraint after projection
    simplex_idempotence: float = 1e-12
    in_span: float = 1e-12           # relative residual below which input is in-span
    unit_norm_slack: float = 1e-9    # slack on ||y|| <= 1 update precondition
    bound_audit: float = 1e-9        # slack in cost upper-bound audits


TOL = Tolerances()


@dataclass(frozen=True)
class SymmetricEigen:
    """Spectral factorization m = vectors @ diag(values) @ vectors.T.

    ``values`` are sorted descending; ``vectors`` holds orthonormal columns,
    each with its largest-magnitude entry positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def symmetric_eigen(m: np.ndarray, *, _checked: bool = True) -> SymmetricEigen:
    """Full spectral factorization of a small symmetric matrix.

    Args:
        m: square finite matrix, symmetric within ``TOL.symmetry`` (relative
            to its largest entry).
        _checked: ``False`` is for the tracker, whose float64 matrix is exactly
            symmetric and finite by construction: it skips the copy, the checks
            and the symmetrization, which then change no bit of the input.

    Returns:
        SymmetricEigen with eigenvalues sorted descending (stable on ties) and
        each eigenvector signed so that its largest-magnitude entry (the first
        one on a tie) is positive.

    Raises:
        ValueError: if ``m`` is empty, not square, not finite or not symmetric
            within tolerance.
    """
    a = m
    if _checked:
        a = np.array(m, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("expected a non-empty matrix")
        peak = float(np.abs(a).max())  # nan or inf iff some entry is
        if not math.isfinite(peak):
            raise ValueError("matrix has non-finite entries")
        asym = float(np.abs(a - a.T).max())
        if asym > TOL.symmetry * max(1.0, peak):
            raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
        a = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(a)
    order = (-w).argsort(kind="stable")
    v = v.take(order, axis=1)
    # the diagonal of the peak rows holds each column's largest-magnitude entry, nonzero in a unit vector
    v *= np.sign(v.take(np.abs(v).argmax(axis=0), axis=0).diagonal())
    # contiguous: a strided operand sends the caller's vecs.T @ frame down another GEMM path
    return SymmetricEigen(values=w.take(order), vectors=np.ascontiguousarray(v))


def project_capped_simplex(v: np.ndarray, budget: int, *, _checked: bool = True) -> np.ndarray:
    """Euclidean projection of v onto {w : 0 <= w <= 1, sum w = budget}.

    The optimum is w = clip(v - tau, 0, 1) for the unique shift tau solving
    sum_i clip(v_i - tau, 0, 1) = budget.  That sum is a piecewise-linear,
    non-increasing function of tau whose breakpoints are {v_i - 1} and {v_i},
    so tau is found exactly by sorting the 2n breakpoints, evaluating the sum
    at every one of them and interpolating on the bracketing segment; no
    iteration (see `projection_sweep`).

    Below n = 8 the same sweep runs on Python floats, which skips about ten
    NumPy calls that dominate at the tracker's sizes (n = M+1).  It gives the
    sweep's bits: NumPy sums a contiguous row of fewer than 8 entries in
    order, as the scalar loop does, and the scalar clip keeps ``np.clip``'s
    -0.0.  An input with no zero entry has no -0.0 breakpoint, so its tied
    breakpoints are equal bits whatever order either sort leaves them in; an
    input with a zero entry takes the NumPy sweep.

    Args:
        v: finite real vector.
        budget: required sum, integer with 0 < budget <= len(v).
        _checked: ``False`` is for the tracker, whose contiguous float64
            eigenvalues are finite and whose budget fits by construction: it
            skips the conversion and the checks.

    Raises:
        ValueError: if ``v`` is not a vector, has non-finite entries or the
            budget is out of range.
    """
    if _checked:
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"expected a vector, got shape {v.shape}")
        if not 0 < budget <= v.size:
            raise ValueError(f"budget must satisfy 0 < budget <= {v.size}, got {budget}")
        if not np.isfinite(v).all():
            raise ValueError("vector has non-finite entries")
    if v.size >= 8 or 0.0 in (values := v.tolist()):
        return projection_sweep(v, budget)
    target = float(budget)
    bps = sorted([x - 1.0 for x in values] + values)
    sums = []
    for b in bps:  # the sums at the breakpoints, up to the first one below target
        total = 0.0
        for x in values:
            d = x - b
            total += 0.0 if d < 0.0 else (1.0 if d > 1.0 else d)
        sums.append(total)
        if total < target:
            break
    tau = _shift(bps, sums, max(len(sums) - 2 if sums[-1] < target else len(sums) - 1, 0), target)
    return np.array([0.0 if d < 0.0 else (1.0 if d > 1.0 else d) for d in (x - tau for x in values)])


def _shift(bps, sums, i: int, target: float) -> float:
    """tau from breakpoint i, the last whose sum reaches target (or the first), by interpolation."""
    if sums[i] <= target or i == len(bps) - 1:
        return bps[i]
    return bps[i] + (sums[i] - target) * (bps[i + 1] - bps[i]) / (sums[i] - sums[i + 1])


def projection_sweep(v: np.ndarray, budget: int) -> np.ndarray:
    """`project_capped_simplex` of a float64 vector as one NumPy sweep.

    Sums clip(v - b, 0, 1) at every breakpoint b at once (a 2n x n clip, so
    O(n^2) time and memory).  A sort-based O(n log n) sweep giving the same
    bits only wins for large n: against this code it took 83 vs 29 us at n=5,
    91 vs 33 us at n=26 and 0.12 vs 1.49 ms at n=251 (2-CPU Xeon, NumPy 2.4
    with one OpenBLAS thread).  It is the exact path for n >= 8 and the
    oracle of the scalar path below that.
    """
    target = float(budget)
    bps = np.sort(np.concatenate((v - 1.0, v)))
    sums = np.clip(v[None, :] - bps[:, None], 0.0, 1.0).sum(axis=1)
    # sums is non-increasing from n down to 0; locate the last bp with sum >= target
    i = int(np.searchsorted(-sums, -target, side="right")) - 1
    return np.clip(v - _shift(bps, sums, max(i, 0), target), 0.0, 1.0)
