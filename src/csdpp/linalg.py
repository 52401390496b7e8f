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


def symmetric_eigen(m: np.ndarray) -> SymmetricEigen:
    """Full spectral factorization of a small symmetric matrix.

    Args:
        m: square finite matrix, symmetric within ``TOL.symmetry`` (relative
            to its largest entry).

    Returns:
        SymmetricEigen with eigenvalues sorted descending (stable on ties) and
        each eigenvector signed so that its largest-magnitude entry (the first
        one on a tie) is positive.

    Raises:
        ValueError: if ``m`` is empty, not square, not finite or not symmetric
            within tolerance.
    """
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
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(-w, kind="stable")
    v = v[:, order]
    v *= np.sign(v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])])  # a unit vector's peak is nonzero
    return SymmetricEigen(values=w[order], vectors=np.ascontiguousarray(v))


def project_capped_simplex(v: np.ndarray, budget: int) -> np.ndarray:
    """Euclidean projection of v onto {w : 0 <= w <= 1, sum w = budget}.

    The optimum is w = clip(v - tau, 0, 1) for the unique shift tau solving
    sum_i clip(v_i - tau, 0, 1) = budget.  That sum is a piecewise-linear,
    non-increasing function of tau whose breakpoints are {v_i - 1} and {v_i},
    so tau is found exactly by sorting the 2n breakpoints and interpolating
    on the bracketing segment.  O(n log n), no iteration.

    Args:
        v: real vector.
        budget: required sum, integer with 0 < budget <= len(v).

    Raises:
        ValueError: if the budget is out of range.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    n = v.size
    if not 0 < budget <= n:
        raise ValueError(f"budget must satisfy 0 < budget <= {n}, got {budget}")
    target = float(budget)
    bps = np.sort(np.concatenate((v - 1.0, v)))
    sums = np.clip(v[None, :] - bps[:, None], 0.0, 1.0).sum(axis=1)
    # sums is non-increasing from n down to 0; locate the last bp with sum >= target
    i = int(np.searchsorted(-sums, -target, side="right")) - 1
    i = max(i, 0)
    if sums[i] <= target or i == 2 * n - 1:
        tau = bps[i]
    else:
        tau = bps[i] + (sums[i] - target) * (bps[i + 1] - bps[i]) / (sums[i] - sums[i + 1])
    return np.clip(v - tau, 0.0, 1.0)
