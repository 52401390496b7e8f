"""Evaluation: cost traces, the offline reference model, and regret accounting.

The offline reference is the classical two-stage reduction computed in
hindsight on the whole prefix: the best rank-M projection of the scaled label
second-moment matrix (dense eigensolver; this is an offline diagnostic, the
online path never touches it) plus the ridge map fitted to the scaled labels,
composed into a code-space regressor.

Expected regret is exact, not sampled: with the tracker guaranteeing
E[P^T P] = U, the expected per-step encode+decode loss of the online learner is

    (H^T x - y_s)^T U (H^T x - y_s) + y_s^T (I - U) y_s        (y_s = y/sqrt(K))

and the reference pays ||W^T x - P* y_s||^2 + ||(I - P*^T P*) y_s||^2.  The
report also carries the subspace gap series ||U_t - P*^T P*||_2 and the
largest squared prediction residual, the two quantities appearing in the
closed-form regret budget `theorem2_bound`.

Output files are byte-deterministic: floats are serialized with repr (shortest
round-trip), JSON keys are sorted, and writes go through a temp file + rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .stream import Instance

__all__ = [
    "CostTrace",
    "OfflineReference",
    "RegretReport",
    "offline_plst",
    "run_with_snapshots",
    "expected_regret",
    "theorem2_bound",
    "write_cost_csv",
    "summarize_finals",
    "write_json",
    "atomic_write_text",
]


class CostTrace:
    """Append-only running averages of per-step costs."""

    def __init__(self) -> None:
        self.averages: list[float] = []
        self._sum = 0.0

    def track(self, cost: float) -> None:
        cost = float(cost)
        if not 0.0 <= cost <= 1.0:
            raise ValueError(f"cost must lie in [0, 1], got {cost}")
        self._sum += cost
        self.averages.append(self._sum / (len(self.averages) + 1))

    def __len__(self) -> int:
        return len(self.averages)

    @property
    def final_average(self) -> float:
        if not self.averages:
            raise ValueError("empty trace")
        return self.averages[-1]


@dataclass(frozen=True)
class OfflineReference:
    """Hindsight rank-M reduction: basis (M x K), ridge map h (d x K), w = h basis^T."""

    basis: np.ndarray
    h: np.ndarray
    w: np.ndarray
    scale: float


def offline_plst(instances: list[Instance], m: int) -> OfflineReference:
    """Top-M label subspace + ridge map on the scaled labels, fitted in hindsight."""
    if not instances:
        raise ValueError("empty stream")
    k = instances[0].labels.size
    d = instances[0].features.size
    if not 1 <= m <= k:
        raise ValueError(f"code dimension must satisfy 1 <= M <= K, got M={m} K={k}")
    scale = 1.0 / np.sqrt(k)
    x = np.stack([inst.features for inst in instances])
    ys = np.stack([inst.labels for inst in instances]).astype(np.float64) * scale
    second_moment = ys.T @ ys
    vals, vecs = np.linalg.eigh(second_moment)
    basis = vecs[:, ::-1][:, :m].T.copy()
    gram = x.T @ x + 1e-9 * np.eye(d)  # a tiny ridge keeps a rank-deficient Gram invertible
    h = np.linalg.solve(gram, x.T @ ys)
    return OfflineReference(basis=basis, h=h, w=h @ basis.T, scale=scale)


def run_with_snapshots(learner, instances: list[Instance]):
    """Drive the learner, snapshotting (frame, spectrum, head) entering each step.

    The learner must be a ridge dpp-pbc or cs-dpp-pbc one.  Returns (records,
    snapshots) where snapshots[i] = (i + 1, {"q", "sigma", "h"}), one per step,
    as exact regret accounting needs.
    """
    if learner.msg is None or not learner.label_head or learner.head.acc is None:
        raise ValueError("regret accounting needs the ridge label-space head")
    records = []
    snapshots = []
    for t, inst in enumerate(instances, start=1):
        state = {"q": learner.msg.q.copy(), "sigma": learner.msg.sigma.copy(), "h": learner.head.w.copy()}
        snapshots.append((t, state))
        records.append(learner.step(inst.features, inst.labels))
    return records, snapshots


@dataclass
class RegretReport:
    steps: list[int] = field(default_factory=list)
    expected_losses: list[float] = field(default_factory=list)
    reference_losses: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)          # ||U_t - P*^T P*||_2
    cumulative_regret: float = 0.0
    regret_encoder: float = 0.0    # spectral-tracking share
    regret_regressor: float = 0.0  # prediction share
    epsilon_hat: float = 0.0       # max_t ||H_t^T x_t - y_s,t||^2
    assumptions_ok: bool = True    # ||x|| <= 1 and ||y_s|| <= 1 held throughout

    @property
    def split_total(self) -> float:
        """Second route to the cumulative regret; must agree with the direct sum."""
        return self.regret_encoder + self.regret_regressor


def expected_regret(
    snapshots: list[tuple[int, dict]],
    instances: list[Instance],
    reference: OfflineReference,
) -> RegretReport:
    """Exact expected regret of the snapshotted run against the offline reference."""
    report = RegretReport()
    scale = reference.scale
    u_star = reference.basis.T @ reference.basis
    slack = 1.0 + 1e-9
    running = 0.0
    running_enc = 0.0
    running_reg = 0.0
    for t, snap in snapshots:
        inst = instances[t - 1]
        x = inst.features
        y_s = inst.labels.astype(np.float64) * scale
        if np.linalg.norm(x) > slack or np.linalg.norm(y_s) > slack:
            report.assumptions_ok = False
        u = (snap["q"].T * snap["sigma"]) @ snap["q"]
        err = snap["h"].T @ x - y_s
        sq_err = float(err @ err)
        report.epsilon_hat = max(report.epsilon_hat, sq_err)
        online_pred = float(err @ (u @ err))
        online_enc = float(y_s @ y_s - y_s @ (u @ y_s))
        ref_pred = float(np.sum((reference.w.T @ x - reference.basis @ y_s) ** 2))
        ref_enc = float(np.sum((y_s - reference.basis.T @ (reference.basis @ y_s)) ** 2))
        online = online_pred + online_enc
        ref = ref_pred + ref_enc
        running += online - ref
        running_enc += online_enc - ref_enc
        running_reg += online_pred - ref_pred
        report.steps.append(t)
        report.expected_losses.append(online)
        report.reference_losses.append(ref)
        report.deltas.append(float(np.max(np.abs(np.linalg.eigvalsh(u - u_star)))))
    report.cumulative_regret = running
    report.regret_encoder = running_enc
    report.regret_regressor = running_reg
    return report


def theorem2_bound(
    delta_sum: float, epsilon_hat: float, h_star: np.ndarray, m: int, d: int, t: int
) -> float:
    """Closed-form regret budget from the tracking gaps and the reference map.

    (1 + eps) * sum_t delta_t  +  M/2 * ||H*||_F^2  +  2 eps M d log(1 + T/d).
    """
    h_norm_sq = float(np.sum(np.asarray(h_star) ** 2))
    return (
        (1.0 + epsilon_hat) * delta_sum
        + 0.5 * m * h_norm_sq
        + 2.0 * epsilon_hat * m * d * np.log(1.0 + t / d)
    )


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_lines(header: dict | None) -> list[str]:
    if not header:
        return []
    return [f"# {key} = {header[key]}" for key in sorted(header)]


def write_cost_csv(path: str, trace: CostTrace, header: dict | None = None) -> None:
    lines = _header_lines(header)
    lines.append("t,avg_cost")
    lines.extend(f"{t},{avg!r}" for t, avg in enumerate(trace.averages, start=1))
    atomic_write_text(path, "\n".join(lines) + "\n")


def summarize_finals(finals: list[float]) -> dict:
    """Mean and standard error of the final average costs across repeats."""
    arr = np.asarray(finals, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no runs to summarize")
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {"runs": int(arr.size), "mean_final_avg_cost": float(arr.mean()), "stderr": stderr}


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
