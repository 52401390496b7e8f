"""Online regressor mapping features to label-space or code-space targets.

The ridge step rule keeps the inverse of
A_t = lambda I + sum_{s<=t} x_s x_s^T through Sherman-Morrison rank-one
downdates.  The per-step weight correction

    W <- W - A_prev_inv x (prediction - target)^T / (1 + x^T A_prev_inv x)

uses the inverse from *before* absorbing x; expanding the recursion shows the
result equals the exact regularized least-squares solution that includes the
current pair, which is what the consistency tests pin down.

The downdates are delayed in a panel of at most 32 rows.  Step j's downdate is
c_j u_j u_j^T with u_j = A_{j-1}^-1 x_j and c_j = 1 / (1 + x_j^T u_j), so the
current inverse is the inverse stored at the last flush minus U^T diag(c) U
over the pending rows, and applying it to x costs O(d^2 + 32 d):

    A_t^-1 x = A_flush^-1 x - U^T (c * (U x))

When the panel fills, the pending rows are flushed with two matrix products,
A_flush^-1 -= (U^T c) U and A_flush += X^T X, in place of two d x d rank-one
passes per step.  Each product is taken one 64 x 64 tile at a time, small
enough that BLAS keeps it on one thread, so a flush rounds the same at any
BLAS thread count.  The exact A is recomputed into the inverse every
`REFRESH_EVERY` steps (after a flush) to stop fp drift on long streams.

The accumulator depends only on the feature stream and (d, lambda), never on
the targets, so any number of ridge heads fed the same features can share
one: a head holds its accumulator by reference, and the learner steps it once
per instance (`RidgeAccumulator.update`) and hands the resulting
(A_prev_inv x, gamma) to every head that reads it.  A bare head, handed no
gain, steps its own accumulator itself.

One head class covers every algorithm through two settings: its width (K for
a head on label-space targets, M for a head on codes) and its step rule (the
ridge step above, or plain SGD, W <- W - step * x (W^T x - target)^T, for the
large d*K regime).  A head knows nothing of label encoders: the learner owns
the basis, encodes the targets it hands over, and turns a *-pbt head onto each
new basis with `Head.transform`, W <- W (P_old P_new^T).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RidgeAccumulator",
    "Head",
    "suggest_engine",
    "REFRESH_EVERY",
    "ENGINE_AUTO_THRESHOLD",
]

REFRESH_EVERY = 10_000  # steps between exact refreshes of the inverse
ENGINE_AUTO_THRESHOLD = 1_000_000
_PANEL = 32  # delayed downdates flushed together
# OpenBLAS runs a product with m n k <= 2**18 on one thread; a 64 x 64 tile of a
# flush (k <= 32) stays well below that, so flushes round alike at any BLAS thread count
_TILE = 64


def suggest_engine(d: int, k: int) -> str:
    """'sgd' when the d*K ridge bookkeeping would be oversized, else 'ridge'."""
    return "sgd" if d * k > ENGINE_AUTO_THRESHOLD else "ridge"


def _add_gram(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """out += left^T right, one small matrix product per tile of out."""
    d = out.shape[0]
    for i in range(0, d, _TILE):
        for j in range(0, d, _TILE):
            out[i : i + _TILE, j : j + _TILE] += left[:, i : i + _TILE].T @ right[:, j : j + _TILE]


class RidgeAccumulator:
    """Second-moment state behind the ridge step rule.

    ``a_inv`` and ``a`` hold the state as of the last flush; rows ``:pending``
    of ``panel_u``, ``panel_c`` and ``panel_x`` hold the steps absorbed since.
    """

    def __init__(self, d: int, lam: float = 1.0):
        if d < 1:
            raise ValueError(f"feature dimension must be positive, got {d}")
        if not 0 < lam < np.inf:  # also rejects NaN
            raise ValueError(f"ridge strength must be positive and finite, got {lam}")
        self.d = d
        self.lam = float(lam)
        self.a_inv = np.zeros((d, d))  # the bits of np.eye(d) / lam and np.eye(d) * lam, no d x d temporary
        np.fill_diagonal(self.a_inv, 1.0 / self.lam)
        self.a = np.zeros((d, d))
        np.fill_diagonal(self.a, self.lam)
        self.panel_u = np.zeros((_PANEL, d))
        self.panel_c = np.zeros(_PANEL)
        self.panel_x = np.zeros((_PANEL, d))
        self.pending = 0
        self.steps = 0

    def peek(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """(A_prev_inv x, gamma) for the pending instance; does not mutate."""
        n = self.pending
        ainv_x = self.a_inv @ x
        if n:
            u = self.panel_u[:n]
            ainv_x -= u.T @ (self.panel_c[:n] * (u @ x))
        return ainv_x, float(x @ ainv_x)

    def absorb(self, x: np.ndarray, ainv_x: np.ndarray, gamma: float) -> None:
        """Queue the rank-one downdate; flush a full panel; periodic exact refresh."""
        row = self.pending
        self.panel_u[row] = ainv_x
        self.panel_c[row] = 1.0 / (1.0 + gamma)
        self.panel_x[row] = x
        self.pending = n = row + 1
        self.steps += 1
        refresh = self.steps % REFRESH_EVERY == 0
        if refresh or n == _PANEL:
            u, x_rows = self.panel_u[:n], self.panel_x[:n]
            _add_gram(self.a_inv, -self.panel_c[:n, None] * u, u)
            _add_gram(self.a, x_rows, x_rows)
            self.pending = 0
        if refresh:
            self.a_inv = np.linalg.solve(self.a, np.eye(self.d))

    def update(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """One instance: `peek` then `absorb`; returns the peeked (A_prev_inv x, gamma).

        Absorbing copies the pair into the panel, so every head fed x may step
        with it afterwards.
        """
        ainv_x, gamma = self.peek(x)
        self.absorb(x, ainv_x, gamma)
        return ainv_x, gamma


class Head:
    """Linear head W (d x width) with prediction W^T x and one of two step rules.

    ``rule="ridge"`` takes Sherman-Morrison steps over a RidgeAccumulator, so W
    is always the exact regularized least-squares fit of every pair seen.
    ``rule="sgd"`` takes W <- W - s/sqrt(t) * x (W^T x - target)^T, with s the
    ``sgd_step_scale`` and t the number of updates so far.

    The head regresses the targets it is handed and holds no basis.  When the
    encoder basis changes the learner may turn it onto the new one
    (`transform`), so its predictions chase the new code coordinates instead
    of stale ones; the ridge accumulator is basis-free and untouched.

    ``acc`` is the head's ridge accumulator; a learner steps it and hands its
    update's (A_prev_inv x, gamma) to the head (see `learners.Learner.step`).
    A ridge head given ``acc``, one built with its d and lambda, reads it
    instead of building its own.
    """

    def __init__(
        self,
        d: int,
        width: int,
        rule: str = "ridge",
        lam: float = 1.0,
        sgd_step_scale: float = 1.0,
        acc: RidgeAccumulator | None = None,
    ):
        if rule == "ridge":
            self.acc = RidgeAccumulator(d, lam) if acc is None else acc
        elif rule == "sgd":
            if not 0 <= sgd_step_scale < np.inf:  # also rejects NaN
                raise ValueError(f"step size must be non-negative and finite, got {sgd_step_scale}")
            self.acc = None
        else:
            raise ValueError(f"unknown step rule {rule!r}")
        self.sgd_step_scale = sgd_step_scale
        self.w = np.zeros((d, width))
        self.t = 0

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.w.T @ x

    def transform(self, old_basis: np.ndarray, new_basis: np.ndarray) -> None:
        """W <- W (old_basis new_basis^T): the head turned from one width x K basis onto another."""
        if old_basis.ndim != 2 or len(old_basis) != self.w.shape[1] or new_basis.shape != old_basis.shape:
            raise ValueError(f"bases must be M x K, M = {self.w.shape[1]}, got {old_basis.shape} and {new_basis.shape}")
        self.w = self.w @ (old_basis @ new_basis.T)

    def update(
        self,
        x: np.ndarray,
        target: np.ndarray,
        gain: tuple[np.ndarray, float] | None = None,
        raw: np.ndarray | None = None,
    ) -> None:
        """Step toward ``target``.

        A ridge head steps with ``gain``, the (A_prev_inv x, gamma) a learner
        hands over from its accumulator's update for x; without it, it updates
        its accumulator with x first.  ``raw`` is the prediction ``W^T x`` the
        caller has just made with the current W, or None to make it here.
        """
        if target.shape != (self.w.shape[1],):
            raise ValueError(f"target must have shape ({self.w.shape[1]},), got {target.shape}")
        self.t += 1
        resid = (self.w.T @ x if raw is None else raw) - target
        if self.acc is None:
            step = self.sgd_step_scale / np.sqrt(self.t)
            self.w -= step * np.outer(x, resid)
            return
        ainv_x, gamma = self.acc.update(x) if gain is None else gain
        step = np.multiply.outer(ainv_x, resid)  # np.outer / (1 + gamma), without a second d x width array
        step /= 1.0 + gamma
        self.w -= step
