"""Capped online PCA over label vectors, kept in factored form.

The state tracks a symmetric matrix U = Q^T diag(sigma) Q with Q an
orthonormal (M+1) x K row frame and sigma in the capped simplex
{0 <= sigma_i <= 1, sum sigma_i = M}.  One observation y (||y|| <= 1) moves
the state by a rank-one step followed by the exact projection back onto the
feasible set:

    U  <-  Proj( U + eta_t * y y^T )

Everything happens in the small basis: y splits into its in-span coefficients
a = Q y plus an orthogonal residual (classical Gram-Schmidt applied twice,
which keeps the residual orthogonal to the frame at working precision), the
shifted spectrum is the eigensystem of an (M+2)-dimensional matrix
diag(sigma, 0) + eta [a; rho][a; rho]^T, the smallest eigenvalue is dropped to
keep rank <= M+1, the survivors are projected onto the capped simplex, and the
frame is rotated accordingly.  Cost per step is O(M^2 K + M^3).

Sampling a projection matrix P (M x K) removes exactly one row of Q, row i
with probability 1 - sigma_i (the removal probabilities sum to 1 because the
trace is pinned to M).  Over that draw, E[P^T P] = U exactly, which is what
makes the sampled encoder an unbiased proxy for the tracked subspace.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .linalg import TOL, project_capped_simplex, symmetric_eigen
from .stream import PURPOSE_ENCODER_INIT, substream

__all__ = ["EtaSchedule", "CappedMsgState"]


@dataclass(frozen=True)
class EtaSchedule:
    """Step size scale/sqrt(t) * (m/k); the package-wide default uses scale=2."""

    scale: float
    m: int
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.scale < math.inf:  # also rejects NaN
            raise ValueError(f"step-size scale must be non-negative and finite, got {self.scale}")

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        return self.scale / math.sqrt(t) * (self.m / self.k)  # np.sqrt's bits: both round correctly


class CappedMsgState:
    """Mutable factored state (Q, sigma) of the capped spectral tracker.

    Single-owner: not safe for concurrent mutation.
    """

    def __init__(self, q: np.ndarray, sigma: np.ndarray, m: int, schedule: Callable[[int], float]):
        self.q = np.array(q, dtype=np.float64)
        self.sigma = np.array(sigma, dtype=np.float64)
        self.m = int(m)
        self.schedule = schedule
        if self.q.ndim != 2 or self.q.shape[0] != self.m + 1:
            raise ValueError(f"frame must have {self.m + 1} rows, got shape {self.q.shape}")
        if self.sigma.shape != (self.m + 1,):
            raise ValueError("sigma length must be M+1")

    @property
    def k(self) -> int:
        return self.q.shape[1]

    @classmethod
    def initialize(
        cls, k: int, m: int, seed: int, schedule: Callable[[int], float] | None = None
    ) -> "CappedMsgState":
        """Uniform spectrum sigma_i = M/(M+1) on a seeded random orthonormal frame."""
        if not 1 <= m < k:
            raise ValueError(f"code dimension must satisfy 1 <= M < K, got M={m} K={k}")
        rng = substream(seed, PURPOSE_ENCODER_INIT)
        gauss = rng.standard_normal((k, m + 1))
        frame, _ = np.linalg.qr(gauss)
        sigma = np.full(m + 1, m / (m + 1), dtype=np.float64)
        if schedule is None:
            schedule = EtaSchedule(2.0, m, k)
        return cls(frame.T, sigma, m, schedule)

    def update(self, y: np.ndarray, t: int, *, _checked: bool = True) -> None:
        """Rank-one step with observation y at step index t (1-based).

        ``_checked=False`` is for the learner, whose observation is a contiguous
        float64 vector of shape (K,), finite and of norm <= 1 by construction:
        it skips the checks of y and of the step size, which then change no bit.
        """
        if _checked:
            y = np.asarray(y, dtype=np.float64)
            if y.shape != (self.k,):
                raise ValueError(f"observation must have shape ({self.k},), got {y.shape}")
            y = np.ascontiguousarray(y)
            peak = float(np.abs(y).max())  # ||y|| >= max|y_i|, so past this check the norm cannot overflow
            if not math.isfinite(peak):
                raise ValueError("observation must be finite")
            if peak > 1.0 + TOL.unit_norm_slack:
                raise ValueError(f"observation entry {peak} exceeds 1")
        ynorm = math.sqrt(y @ y)  # np.linalg.norm of a contiguous real vector, bit for bit
        if _checked and ynorm > 1.0 + TOL.unit_norm_slack:
            raise ValueError(f"observation norm {ynorm} exceeds 1")
        eta = float(self.schedule(t))
        if _checked and eta < 0:
            raise ValueError(f"step size must be non-negative, got {eta}")

        # split y = Q^T a + rho * q_new; the second classical Gram-Schmidt pass
        # scrubs the orthogonality the first one loses
        coeff = self.q @ y
        r = y - coeff @ self.q
        c = self.q @ r
        coeff += c
        r -= c @ self.q
        rho = math.sqrt(r @ r)

        rows = self.m + 1
        if rho <= TOL.in_span * max(ynorm, 1.0):  # in span: the frame does not grow
            aug, frame = coeff, self.q
        else:
            aug = np.empty(rows + 1)
            aug[:rows] = coeff
            aug[rows] = rho
            frame = np.empty_like(self.q, shape=(rows + 1, self.k))  # the frame's memory order, as vstack keeps it
            frame[:rows] = self.q
            np.divide(r, rho, out=frame[rows])
        # diag(sigma, 0) + eta aug aug^T: exactly symmetric and finite; adding 0.0
        # turns a -0.0 product into the +0.0 that a zero diagonal matrix plus it gives
        small = np.multiply.outer(aug, aug)
        small *= eta
        small += 0.0
        small.ravel()[: rows * (aug.size + 1) : aug.size + 1] += self.sigma

        eig = symmetric_eigen(small, _checked=False)
        top = eig.values[:rows]          # drop the smallest direction if M+2 present
        vecs = eig.vectors[:, :rows]
        # the eigenvalues of a finite matrix: finite, so the projection need not check them
        self.sigma = project_capped_simplex(top, self.m, _checked=False)
        self.q = vecs.T @ frame

    def removal_probabilities(self) -> np.ndarray:
        """Probability of deleting each frame row when sampling a projection."""
        return np.maximum(1.0 - self.sigma, 0.0)

    def sample_projection(self, rng: np.random.Generator) -> np.ndarray:
        """Draw P (M x K): the frame with one row removed; E[P^T P] equals U.

        Row i is removed where the running total of the removal probabilities
        first exceeds u, a uniform draw scaled by their total; a total that
        rounds below u falls through to the last row.  Below 8 rows the totals
        are taken on Python floats, which skips the NumPy calls that dominate
        at the tracker's sizes.  That gives the NumPy path's bits: NumPy sums
        fewer than 8 entries in order, and ``cumsum`` always adds in order.
        """
        if self.m < 7:
            running = list(accumulate(max(1.0 - s, 0.0) for s in self.sigma.tolist()))
            drop = bisect_right(running, float(rng.random()) * running[-1])
        else:
            probs = self.removal_probabilities()
            u = float(rng.random()) * float(probs.sum())
            drop = int(probs.cumsum().searchsorted(u, "right"))
        drop = min(drop, self.m)
        basis = np.empty_like(self.q, shape=(self.m, self.k))  # the frame's memory order, as np.delete keeps it
        basis[:drop] = self.q[:drop]
        basis[drop:] = self.q[drop + 1 :]
        return basis

    def reconstruct(self) -> np.ndarray:
        """Dense U = Q^T diag(sigma) Q (K x K); for diagnostics and tests."""
        return (self.q.T * self.sigma) @ self.q

    def validate(self) -> None:
        """Raise if the feasibility invariants drifted beyond tolerance."""
        gram = self.q @ self.q.T
        if float(np.max(np.abs(gram - np.eye(self.m + 1)))) > TOL.orthonormality:
            raise ValueError("frame rows lost orthonormality")
        if np.any(self.sigma < -TOL.trace) or np.any(self.sigma > 1.0 + TOL.trace):
            raise ValueError("spectrum left the box [0, 1]")
        if abs(float(self.sigma.sum()) - self.m) > TOL.trace:
            raise ValueError("spectrum trace drifted from the budget")
