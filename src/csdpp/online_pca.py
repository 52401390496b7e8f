"""Capped online PCA over label vectors, kept in factored form.

The state tracks a symmetric matrix U = Q^T diag(sigma) Q with Q an
orthonormal (M+1) x K row frame and sigma in the capped simplex
{0 <= sigma_i <= 1, sum sigma_i = M}.  One observation y (||y|| <= 1) moves
the state by a rank-one step followed by the exact projection back onto the
feasible set:

    U  <-  Proj( U + eta_t * y y^T )

Everything happens in the small basis: y splits into its in-span coefficients
a = Q y plus an orthogonal residual (modified Gram-Schmidt, one
re-orthogonalization pass when the residual is tiny relative to ||y||), the
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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import TOL, project_capped_simplex, symmetric_eigen
from .stream import PURPOSE_ENCODER_INIT, substream

__all__ = ["EtaSchedule", "CappedMsgState", "default_eta_schedule"]


@dataclass(frozen=True)
class EtaSchedule:
    """Step size scale/sqrt(t) * (m/k); the package-wide default uses scale=2."""

    scale: float
    m: int
    k: int

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        return self.scale / np.sqrt(t) * (self.m / self.k)


def default_eta_schedule(m: int, k: int, scale: float = 2.0) -> EtaSchedule:
    return EtaSchedule(scale, m, k)


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
            schedule = default_eta_schedule(m, k)
        return cls(frame.T, sigma, m, schedule)

    def update(self, y: np.ndarray, t: int) -> None:
        """Rank-one step with observation y at step index t (1-based)."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.k,):
            raise ValueError(f"observation must have shape ({self.k},), got {y.shape}")
        ynorm = float(np.linalg.norm(y))
        if ynorm > 1.0 + TOL.unit_norm_slack:
            raise ValueError(f"observation norm {ynorm} exceeds 1")
        eta = float(self.schedule(t))
        if eta < 0:
            raise ValueError(f"step size must be non-negative, got {eta}")

        # split y = Q^T a + rho * q_new by modified Gram-Schmidt
        r = y.copy()
        coeff = np.zeros(self.m + 1)
        for i in range(self.m + 1):
            c = float(self.q[i] @ r)
            coeff[i] += c
            r -= c * self.q[i]
        rho = float(np.linalg.norm(r))
        if 0.0 < rho < TOL.reorthogonalize * max(ynorm, 1.0):
            for i in range(self.m + 1):  # second pass scrubs lost orthogonality
                c = float(self.q[i] @ r)
                coeff[i] += c
                r -= c * self.q[i]
            rho = float(np.linalg.norm(r))

        in_span = rho <= TOL.in_span * max(ynorm, 1.0)
        if in_span:
            small = np.diag(self.sigma) + eta * np.outer(coeff, coeff)
            frame = self.q
        else:
            aug = np.append(coeff, rho)
            small = np.diag(np.append(self.sigma, 0.0)) + eta * np.outer(aug, aug)
            frame = np.vstack((self.q, r / rho))

        eig = symmetric_eigen(small)
        top = eig.values[: self.m + 1]          # drop the smallest direction if M+2 present
        vecs = eig.vectors[:, : self.m + 1]
        self.sigma = project_capped_simplex(top, self.m)
        self.q = vecs.T @ frame

    def removal_probabilities(self) -> np.ndarray:
        """Probability of deleting each frame row when sampling a projection."""
        return np.clip(1.0 - self.sigma, 0.0, None)

    def sample_projection(self, rng: np.random.Generator) -> np.ndarray:
        """Draw P (M x K): the frame with one row removed; E[P^T P] equals U."""
        probs = self.removal_probabilities()
        u = float(rng.random()) * float(probs.sum())
        acc = 0.0
        drop = self.m  # fall through to the last row on fp underflow
        for i in range(self.m + 1):
            acc += probs[i]
            if u < acc:
                drop = i
                break
        return np.delete(self.q, drop, axis=0)

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
