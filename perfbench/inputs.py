"""Seeded inputs for the benchmark workloads.

Every workload's inputs are generated here from the workload seed, with the
benchmark's own generator, so no change to `csdpp.stream` can change a
workload.  The same (seed, workload) always gives the same bytes, and each
result carries a sha256 of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


@dataclass(frozen=True)
class DenseStream:
    """A stream of unit-norm feature rows (T x d) with +-1 label rows (T x K)."""

    x: np.ndarray
    y: np.ndarray
    sha256: str


def dense_stream(
    seed: int, tag: int, d: int, k: int, steps: int, prototypes: int, positives: int | None
) -> DenseStream:
    """Labels drawn from `prototypes` label vectors, each used equally often
    (to within one row) in a seeded order.

    With `positives` unset a prototype is a uniform random sign vector;
    otherwise it has exactly `positives` +1 entries, and each row then flips
    one random label with probability 1/2, which keeps the positive rate near
    positives/K.  Each prototype owns a random unit feature anchor; a row's
    features are its anchor plus Gaussian noise, scaled to unit norm.
    """
    rng = _rng(seed, tag)
    if positives is None:
        protos = rng.choice(np.array([-1, 1], dtype=np.int8), size=(prototypes, k))
    else:
        protos = np.full((prototypes, k), -1, dtype=np.int8)
        for row in protos:
            row[rng.choice(k, size=positives, replace=False)] = 1
    anchors = rng.standard_normal((prototypes, d))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    picks = rng.permutation(np.resize(np.arange(prototypes), steps))
    x = anchors[picks] + 0.1 * rng.standard_normal((steps, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = protos[picks].copy()
    if positives is not None:
        flip = rng.random(steps) < 0.5
        label = rng.integers(0, k, size=steps)
        y[flip, label[flip]] *= -1
    digest = hashlib.sha256()
    digest.update(f"{steps} {d} {k}\n".encode())
    digest.update(x.tobytes())
    digest.update(y.tobytes())
    return DenseStream(x, y, digest.hexdigest())


def sparse_labels_text(
    seed: int, tag: int, rows: int, d: int, k: int, nnz: int, prototypes: int
) -> str:
    """A dataset in csdpp's sparse-labels text format.

    Each prototype owns 1 to 4 positive labels and a topic of 60 feature
    indices.  A row takes about 3/4 of its `nnz` features from its prototype's
    topic and the rest uniformly, with values in (0, 1) written to 4 digits.
    """
    rng = _rng(seed, tag)
    labels = []
    topics = []
    for _ in range(prototypes):
        labels.append(np.sort(rng.choice(k, size=int(rng.integers(1, 5)), replace=False)))
        topics.append(rng.choice(d, size=60, replace=False))
    own = (3 * nnz) // 4
    lines = [f"{k} {d} {rows}"]
    for j in rng.integers(0, prototypes, size=rows):
        idx = np.union1d(
            rng.choice(topics[j], size=own, replace=False),
            rng.choice(d, size=nnz - own, replace=False),
        )
        vals = rng.random(idx.size)
        feats = " ".join(f"{i}:{v:.4f}" for i, v in zip(idx.tolist(), vals.tolist()))
        lines.append(",".join(str(i) for i in labels[j].tolist()) + " | " + feats)
    return "\n".join(lines) + "\n"
