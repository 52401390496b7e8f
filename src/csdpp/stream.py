"""Dataset ingestion and stream construction.

The native on-disk format ("sparse-labels") is line oriented, UTF-8, ``\n``
line endings, ``#`` starts a comment line:

    K d N                  <- header: label count, feature count, instance count
    3,7 | 1:0.5 4:-1.2     <- one instance per line: positive label indices,
                              a literal ``|``, then sparse idx:value features
    | 0:1.0                <- empty label field means all labels negative

All indices are 0-based.  Absent features are 0; non-finite values (nan, inf)
are rejected with their line number.  Labels materialize as dense vectors in
{-1,+1}.  `parse_sparse_labels` converts the whole file at once into one
(N, d) feature matrix and one (N, K) label matrix, whose rows become the
instances; a file that fails a whole-file check is parsed again line by line,
so an error names the first bad line.  ``parse_dataset`` also reads a small
ARFF subset (numeric attributes, dense or sparse data rows) with labels named
by a companion list, which is how Mulan-style corpora are distributed.

Dataset-level feature normalization (min-max to [0,1], then division by
sqrt(d), so ||x|| <= 1) is `normalize_features`, applied once to the parsed
dataset by the caller; it rejects a feature whose max - min overflows
float64.  Stream construction (`build_stream`) then applies, in order: seeded
permutation, truncation to a step budget, and seeded one-sided label noise
(each positive flips to negative independently with probability p).

All randomness in the package flows through `substream(seed, purpose)`:
independent named substreams of a single seed, so components never share or
race a generator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

__all__ = [
    "Instance",
    "StreamConfig",
    "ParseError",
    "SchemaError",
    "substream",
    "parse_dataset",
    "parse_sparse_labels",
    "serialize_sparse_labels",
    "parse_arff",
    "permute_stream",
    "inject_noise",
    "normalize_features",
    "build_stream",
    "planted_subspace_stream",
    "imbalanced_stream",
]

# named RNG substream purposes; every consumer of randomness picks one
PURPOSE_PERMUTE = 0
PURPOSE_NOISE = 1
PURPOSE_SAMPLER = 2
PURPOSE_ENCODER_INIT = 3
PURPOSE_RANDOM_PROJECTION = 4
PURPOSE_LABEL_ORDER = 5
PURPOSE_SYNTH = 6


def substream(seed: int, purpose: int) -> np.random.Generator:
    """Independent generator for (seed, purpose); same args, same stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(purpose,))))


class ParseError(ValueError):
    """Malformed dataset text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(ValueError):
    """Structurally valid text that contradicts its own header/schema."""


@dataclass
class Instance:
    """One stream element: features (float64, shape (d,)), labels in {-1,+1} (int8)."""

    features: np.ndarray
    labels: np.ndarray

    def copy(self) -> "Instance":
        return Instance(self.features.copy(), self.labels.copy())


@dataclass(frozen=True)
class StreamConfig:
    """How to turn a parsed dataset into a stream."""

    seed: int = 0
    noise_p: float = 0.0
    limit: int | None = None


def parse_sparse_labels(text: str) -> tuple[list[Instance], int, int]:
    """Parse the native format; returns (instances, d, K).

    The whole file is converted at once (`_parse_bulk`).  A file that fails any
    of its checks is parsed again line by line (`_parse_lines`), which is the
    one source of parse errors, so an error names the first bad line.
    """
    parsed = _parse_bulk(text)
    return _parse_lines(text) if parsed is None else parsed


def _parse_bulk(text: str) -> tuple[list[Instance], int, int] | None:
    """`_parse_lines`'s result for a file it accepts, or None where it might raise.

    Each row's label and feature fields are split with str methods, every
    index and value of the file converted by one int and one float map (the
    conversions `_parse_lines` makes), and the checks are whole-file NumPy
    reductions.  The feature text must be ASCII without control characters,
    so its only whitespace is " ", and its ":" and " " must alternate, so that
    every token is one idx:value pair; a file that is not is left to the checker.
    """
    rows = [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]
    try:
        k, d, n = map(int, rows[0].split())
    except (IndexError, ValueError):
        return None
    if k <= 0 or d <= 0 or n != len(rows) - 1:
        return None
    if n == 0:
        return [], d, k
    label_fields, bars, feature_fields = zip(*map(str.partition, rows[1:], repeat("|")))
    if "" in bars:
        return None
    labels = list(map(str.strip, label_fields))
    features = list(map(str.strip, feature_fields))
    feature_text = " ".join(filter(None, features))
    if not feature_text.isascii():
        return None
    raw = np.frombuffer(feature_text.encode(), dtype=np.uint8)
    seps = raw[(raw == ord(":")) | (raw == ord(" "))]
    if np.count_nonzero(raw < ord(" ")) or np.count_nonzero(seps[0::2] != ord(":")) \
            or np.count_nonzero(seps[1::2] != ord(" ")):
        return None
    pieces = feature_text.replace(":", " ").split(" ") if feature_text else []
    per_row = [field.count(":") for field in features]  # one colon per idx:value token
    pairs = sum(per_row)
    if len(pieces) != 2 * pairs:  # a last token without a colon
        return None
    label_tokens = ",".join(filter(None, labels)).split(",") if any(labels) else []
    labels_per_row = [field.count(",") + 1 if field else 0 for field in labels]
    try:
        idx = np.fromiter(map(int, pieces[0::2]), np.int64, pairs)
        values = np.fromiter(map(float, pieces[1::2]), np.float64, pairs)
        positive = np.fromiter(map(int, label_tokens), np.int64, len(label_tokens))
    except (ValueError, OverflowError):
        return None
    if np.count_nonzero((idx < 0) | (idx >= d)) or np.count_nonzero((positive < 0) | (positive >= k)) \
            or not np.isfinite(values).all():
        return None
    at = np.repeat(np.arange(n) * d, per_row) + idx
    seen = np.zeros(n * d, dtype=bool)
    seen[at] = True
    if np.count_nonzero(seen) != at.size:  # a duplicate feature index
        return None
    x = np.zeros((n, d))
    x.reshape(-1)[at] = values
    y = np.full((n, k), -1, dtype=np.int8)
    y.reshape(-1)[np.repeat(np.arange(n) * k, labels_per_row) + positive] = 1
    return [Instance(row, row_labels) for row, row_labels in zip(x, y)], d, k


def _parse_lines(text: str) -> tuple[list[Instance], int, int]:
    """`parse_sparse_labels` one line at a time, raising the error of the first bad line."""
    header = None
    declared_n = 0
    instances: list[Instance] = []
    k = d = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(line_no, f"header must be 'K d N', got {line!r}")
            try:
                k, d, declared_n = (int(p) for p in parts)
            except ValueError:
                raise ParseError(line_no, f"header fields must be integers, got {line!r}") from None
            if k <= 0 or d <= 0 or declared_n < 0:
                raise SchemaError(f"header values out of range: K={k} d={d} N={declared_n}")
            header = (k, d, declared_n)
            continue
        if "|" not in line:
            raise ParseError(line_no, "missing '|' separator between labels and features")
        label_field, _, feat_field = line.partition("|")
        labels = np.full(k, -1, dtype=np.int8)
        label_field = label_field.strip()
        if label_field:
            for tok in label_field.split(","):
                tok = tok.strip()
                try:
                    idx = int(tok)
                except ValueError:
                    raise ParseError(line_no, f"bad label index {tok!r}") from None
                if not 0 <= idx < k:
                    raise SchemaError(f"line {line_no}: label index {idx} outside [0, {k})")
                labels[idx] = 1
        features = np.zeros(d, dtype=np.float64)
        seen: set[int] = set()
        for tok in feat_field.split():
            if ":" not in tok:
                raise ParseError(line_no, f"bad feature token {tok!r}, expected idx:value")
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"bad feature token {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite feature value in {tok!r}")
            if not 0 <= idx < d:
                raise SchemaError(f"line {line_no}: feature index {idx} outside [0, {d})")
            if idx in seen:
                raise ParseError(line_no, f"duplicate feature index {idx}")
            seen.add(idx)
            features[idx] = val
        instances.append(Instance(features, labels))
    if header is None:
        raise SchemaError("empty dataset: no header line found")
    if len(instances) != declared_n:
        raise SchemaError(f"header declares N={declared_n} instances, found {len(instances)}")
    return instances, d, k


def serialize_sparse_labels(instances: list[Instance], d: int, k: int) -> str:
    """Inverse of parse_sparse_labels; parse(serialize(x)) == x."""
    lines = [f"{k} {d} {len(instances)}"]
    for inst in instances:
        if inst.labels.shape != (k,) or inst.features.shape != (d,):
            raise ValueError("instance shape disagrees with declared d/K")
        pos = ",".join(str(i) for i in np.flatnonzero(inst.labels == 1))
        nz = np.flatnonzero(inst.features != 0.0)
        feats = " ".join(f"{i}:{float(inst.features[i])!r}" for i in nz)
        lines.append(f"{pos} | {feats}".rstrip())
    return "\n".join(lines) + "\n"


def _arff_split_row(row: str) -> list[str]:
    return [tok.strip().strip("'\"") for tok in row.split(",")]


def parse_arff(text: str, label_names: list[str]) -> tuple[list[Instance], int, int]:
    """Minimal ARFF reader: numeric attributes, labels named in label_names.

    Supports dense rows and Mulan-style sparse rows ``{idx val, idx val}``.
    Label attribute values > 0 map to +1, otherwise -1.  Attribute names may
    be quoted.  An attribute declared twice, or a sparse index given twice in
    one row, is rejected.
    """
    attr_names: dict[str, None] = {}  # in declaration order
    instances: list[Instance] = []
    label_set = {name.strip() for name in label_names if name.strip()}
    if not label_set:
        raise SchemaError("label name list is empty")
    in_data = False
    label_pos: list[int] = []
    feat_pos: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if not in_data:
            if low.startswith("@relation"):
                continue
            if low.startswith("@attribute"):
                match = re.match(r"@attribute\s+('[^']*'|\"[^\"]*\"|\S+)\s+\S", line, re.IGNORECASE)
                if match is None:
                    raise ParseError(line_no, f"bad @attribute line {line!r}")
                name = match[1].strip("'\"")
                if name in attr_names:
                    raise ParseError(line_no, f"duplicate attribute {name!r}")
                attr_names[name] = None
                continue
            if low.startswith("@data"):
                in_data = True
                missing = label_set - set(attr_names)
                if missing:
                    raise SchemaError(f"labels not present as attributes: {sorted(missing)}")
                label_pos = [i for i, n in enumerate(attr_names) if n in label_set]
                feat_pos = [i for i, n in enumerate(attr_names) if n not in label_set]
                continue
            raise ParseError(line_no, f"unexpected line before @data: {line!r}")
        values = np.zeros(len(attr_names), dtype=np.float64)
        if line.startswith("{"):
            if not line.endswith("}"):
                raise ParseError(line_no, "unterminated sparse row")
            body = line[1:-1].strip()
            seen: set[int] = set()
            if body:
                for tok in body.split(","):
                    pair = tok.split()
                    if len(pair) != 2:
                        raise ParseError(line_no, f"bad sparse entry {tok!r}")
                    try:
                        idx = int(pair[0])
                        val = float(pair[1])
                    except ValueError:
                        raise ParseError(line_no, f"bad sparse entry {tok!r}") from None
                    if not 0 <= idx < values.size:
                        raise ParseError(line_no, f"sparse index {idx} outside [0, {values.size})")
                    if idx in seen:
                        raise ParseError(line_no, f"duplicate sparse index {idx}")
                    seen.add(idx)
                    values[idx] = val
        else:
            toks = _arff_split_row(line)
            if len(toks) != len(attr_names):
                raise SchemaError(
                    f"line {line_no}: row has {len(toks)} values, schema has {len(attr_names)}"
                )
            try:
                values[:] = [float(t) for t in toks]
            except ValueError:
                raise ParseError(line_no, "non-numeric value in data row") from None
        if not np.all(np.isfinite(values)):
            raise ParseError(line_no, "non-finite value in data row")
        labels = np.where(values[label_pos] > 0, 1, -1).astype(np.int8)
        instances.append(Instance(values[feat_pos].copy(), labels))
    if not in_data:
        raise SchemaError("no @data section found")
    return instances, len(feat_pos), len(label_pos)


def parse_dataset(
    text: str, fmt: str = "sparse-labels", label_names: list[str] | None = None
) -> tuple[list[Instance], int, int]:
    if fmt == "sparse-labels":
        return parse_sparse_labels(text)
    if fmt == "arff":
        if label_names is None:
            raise ValueError("arff format requires label_names")
        return parse_arff(text, label_names)
    raise ValueError(f"unknown dataset format {fmt!r}")


def permute_stream(instances: list[Instance], seed: int) -> list[Instance]:
    order = substream(seed, PURPOSE_PERMUTE).permutation(len(instances))
    return [instances[i] for i in order]


def inject_noise(instances: list[Instance], p: float, seed: int) -> list[Instance]:
    """Flip each positive label to negative independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must be in [0,1], got {p}")
    rng = substream(seed, PURPOSE_NOISE)
    out = []
    for inst in instances:
        draws = rng.random(inst.labels.size)
        labels = inst.labels.copy()
        labels[(labels == 1) & (draws < p)] = -1
        out.append(Instance(inst.features, labels))
    return out


def normalize_features(instances: list[Instance]) -> list[Instance]:
    """Dataset-level min-max to [0,1] per feature, then division by sqrt(d).

    Returns new instances whose features are the rows of one scaled matrix;
    the input is left untouched.  A feature whose max - min is not finite in
    float64 (finite values too far apart) is rejected with a ValueError.
    """
    if not instances:
        return []
    x = np.stack([inst.features for inst in instances])
    lo = x.min(axis=0)
    with np.errstate(over="ignore"):
        span = x.max(axis=0) - lo
    wide = np.flatnonzero(~np.isfinite(span))
    if wide.size:
        raise ValueError(f"feature {wide[0]} cannot be normalized: its max - min is not finite in float64")
    span[span == 0.0] = 1.0  # constant features map to 0
    x -= lo
    x /= span
    x /= np.sqrt(x.shape[1])
    return [Instance(row, inst.labels) for row, inst in zip(x, instances)]


def build_stream(instances: list[Instance], config: StreamConfig) -> list[Instance]:
    """permute -> truncate -> label noise, each step seeded."""
    out = permute_stream(instances, config.seed)
    if config.limit is not None:
        if config.limit < 0:
            raise ValueError("limit must be non-negative")
        out = out[: config.limit]
    if config.noise_p > 0.0:
        out = inject_noise(out, config.noise_p, config.seed)
    return out


def _distinct_sign_rows(rng: np.random.Generator, rows: int, k: int, full_rank: bool) -> np.ndarray:
    for _ in range(200):
        cand = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, k))
        if len({tuple(r) for r in cand}) < rows:
            continue
        if full_rank and np.linalg.matrix_rank(cand.astype(float)) < min(rows, k):
            continue
        return cand
    raise RuntimeError("could not draw distinct sign prototypes")


def planted_subspace_stream(
    d: int,
    k: int,
    t: int,
    seed: int,
    n_prototypes: int,
    prototype_probs: np.ndarray | None = None,
    feature_noise: float = 0.05,
) -> list[Instance]:
    """Stream whose labels live on a small set of +-1 prototypes.

    Each prototype owns a random unit feature anchor; an instance is a noisy
    copy of its prototype's anchor (renormalized so ||x|| = 1) paired with the
    prototype's label vector.  Label-space rank equals n_prototypes, so the
    planted code dimension is known exactly.
    """
    rng = substream(seed, PURPOSE_SYNTH)
    protos = _distinct_sign_rows(rng, n_prototypes, k, full_rank=True)
    if prototype_probs is None:
        w = 2.0 ** -np.arange(n_prototypes, dtype=np.float64)
        prototype_probs = w / w.sum()
    else:
        prototype_probs = np.asarray(prototype_probs, dtype=np.float64)
        if prototype_probs.shape != (n_prototypes,):
            raise ValueError("prototype_probs length must equal n_prototypes")
        prototype_probs = prototype_probs / prototype_probs.sum()
    anchors = rng.standard_normal((n_prototypes, d))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    picks = rng.choice(n_prototypes, size=t, p=prototype_probs)
    out = []
    for j in picks:
        x = anchors[j] + feature_noise * rng.standard_normal(d)
        x /= np.linalg.norm(x)
        out.append(Instance(x, protos[j].copy()))
    return out


def imbalanced_stream(
    d: int,
    k: int,
    t: int,
    seed: int,
    positive_rate: float = 0.1,
    n_patterns: int = 8,
    feature_noise: float = 0.05,
) -> list[Instance]:
    """Planted stream with sparse positives (about positive_rate * k per instance)."""
    rng = substream(seed, PURPOSE_SYNTH)
    pos_per = max(1, int(round(positive_rate * k)))
    patterns = np.full((n_patterns, k), -1, dtype=np.int8)
    seen: set[tuple[int, ...]] = set()
    row = 0
    for _ in range(1000):
        if row == n_patterns:
            break
        idx = tuple(sorted(rng.choice(k, size=pos_per, replace=False).tolist()))
        if idx in seen:
            continue
        seen.add(idx)
        patterns[row, list(idx)] = 1
        row += 1
    if row < n_patterns:
        raise RuntimeError("could not draw distinct positive patterns")
    anchors = rng.standard_normal((n_patterns, d))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    picks = rng.integers(0, n_patterns, size=t)
    out = []
    for j in picks:
        x = anchors[j] + feature_noise * rng.standard_normal(d)
        x /= np.linalg.norm(x)
        out.append(Instance(x, patterns[j].copy()))
    return out
