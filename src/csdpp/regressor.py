"""Online regressor mapping features to label-space or code-space targets.

The ridge step rule keeps the inverse of
A_t = lambda I + sum_{s<=t} x_s x_s^T, maintained by Sherman-Morrison rank-one
downdates.  The per-step weight correction

    W <- W - A_prev_inv x (prediction - target)^T / (1 + x^T A_prev_inv x)

uses the inverse from *before* absorbing x; expanding the recursion shows the
result equals the exact regularized least-squares solution that includes the
current pair, which is what the consistency tests pin down.  The exact A is
accumulated alongside and the inverse is recomputed from it on a fixed cadence
to stop fp drift on long streams.

One head class covers every algorithm through three settings: its width (K for
a head on label-space targets, M for a head on codes), whether it is rotated by
P_old P_new^T whenever the encoder basis changes, and its step rule (the ridge
step above, or plain SGD, W <- W - step * x (W^T x - target)^T, for the large
d*K regime).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RidgeAccumulator",
    "Head",
    "suggest_engine",
    "DEFAULT_REFRESH_EVERY",
    "ENGINE_AUTO_THRESHOLD",
]

DEFAULT_REFRESH_EVERY = 10_000
ENGINE_AUTO_THRESHOLD = 1_000_000


def suggest_engine(d: int, k: int, threshold: int = ENGINE_AUTO_THRESHOLD) -> str:
    """'sgd' when the d*K ridge bookkeeping would be oversized, else 'ridge'."""
    return "sgd" if d * k > threshold else "ridge"


class RidgeAccumulator:
    """Second-moment state behind the ridge step rule."""

    def __init__(self, d: int, lam: float = 1.0, refresh_every: int = DEFAULT_REFRESH_EVERY):
        if d < 1:
            raise ValueError(f"feature dimension must be positive, got {d}")
        if lam <= 0:
            raise ValueError(f"ridge strength must be positive, got {lam}")
        self.d = d
        self.lam = float(lam)
        self.refresh_every = int(refresh_every)
        self.a_inv = np.eye(d) / lam
        self.a = np.eye(d) * lam
        self.steps = 0

    def peek(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """(A_prev_inv x, gamma) for the pending instance; does not mutate."""
        ainv_x = self.a_inv @ x
        return ainv_x, float(x @ ainv_x)

    def absorb(self, x: np.ndarray, ainv_x: np.ndarray, gamma: float) -> None:
        """Rank-one downdate of the inverse; periodic exact refresh."""
        self.a_inv -= np.outer(ainv_x, ainv_x) / (1.0 + gamma)
        self.a += np.outer(x, x)
        self.steps += 1
        if self.refresh_every > 0 and self.steps % self.refresh_every == 0:
            self.a_inv = np.linalg.solve(self.a, np.eye(self.d))


class Head:
    """Linear head W (d x width) with prediction W^T x and one of two step rules.

    ``rule="ridge"`` takes Sherman-Morrison steps over a RidgeAccumulator, so W
    is always the exact regularized least-squares fit of every pair seen.
    ``rule="sgd"`` takes W <- W - s/sqrt(t) * x (W^T x - target)^T, with s the
    ``sgd_step_scale`` and t the number of updates so far.

    Given an initial ``basis`` (M x K, M = width) the head follows encoder basis
    changes: each update first rotates it, W <- W (P_old P_new^T), so its
    predictions chase the new code coordinates instead of stale ones; the
    ridge accumulator itself is basis-free and untouched.
    """

    def __init__(
        self,
        d: int,
        width: int,
        rule: str = "ridge",
        lam: float = 1.0,
        refresh_every: int = DEFAULT_REFRESH_EVERY,
        sgd_step_scale: float = 1.0,
        basis: np.ndarray | None = None,
    ):
        if rule == "ridge":
            self.acc = RidgeAccumulator(d, lam, refresh_every)
        elif rule == "sgd":
            if sgd_step_scale < 0:
                raise ValueError(f"step size must be non-negative, got {sgd_step_scale}")
            self.acc = None
        else:
            raise ValueError(f"unknown step rule {rule!r}")
        self.sgd_step_scale = sgd_step_scale
        self.w = np.zeros((d, width))
        self.t = 0
        self.basis = None
        if basis is not None:
            basis = np.asarray(basis, dtype=np.float64)
            if basis.ndim != 2 or basis.shape[0] != width:
                raise ValueError(f"basis must be an M x K matrix with M = width = {width}")
            self.basis = basis.copy()

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.w.T @ x

    def transform(self, new_basis: np.ndarray) -> None:
        new_basis = np.asarray(new_basis, dtype=np.float64)
        if new_basis.shape != self.basis.shape:
            raise ValueError(f"basis shape changed from {self.basis.shape} to {new_basis.shape}")
        self.w = self.w @ (self.basis @ new_basis.T)
        self.basis = new_basis.copy()

    def update(self, x: np.ndarray, target: np.ndarray, basis: np.ndarray | None = None) -> None:
        """Step toward ``target``, or toward ``basis @ target`` when a basis is given.

        A head that follows basis changes is rotated onto ``basis`` first.
        """
        if basis is not None:
            if self.basis is not None:
                self.transform(basis)
            target = basis @ target
        if target.shape != (self.w.shape[1],):
            raise ValueError(f"target must have shape ({self.w.shape[1]},), got {target.shape}")
        self.t += 1
        if self.acc is None:
            step = self.sgd_step_scale / np.sqrt(self.t)
            self.w -= step * np.outer(x, self.w.T @ x - target)
            return
        ainv_x, gamma = self.acc.peek(x)
        resid = self.w.T @ x - target
        self.w -= np.outer(ainv_x, resid) / (1.0 + gamma)
        self.acc.absorb(x, ainv_x, gamma)
