"""Dataset ingestion and stream construction.

The native on-disk format ("sparse-labels") is line oriented, UTF-8, ``\n``
line endings, ``#`` starts a comment line:

    K d N                  <- header: label count, feature count, instance count
    3,7 | 1:0.5 4:-1.2     <- one instance per line: positive label indices,
                              a literal ``|``, then sparse idx:value features
    | 0:1.0                <- empty label field means all labels negative

All indices are 0-based.  Absent features are 0; non-finite values (nan, inf)
are rejected with their line number.  Labels materialize as dense vectors in
{-1,+1}.  `parse_sparse_labels` converts the file in bulk into a
`RowStore`: the stored entries as CSR arrays and one (N, K) label matrix, a
read-only sequence whose instances are built, one dense row each, when they
are indexed.  A file that fails a bulk check is parsed again line by
line, so an error names the first bad line.  ``parse_dataset`` also reads a
small ARFF subset (numeric attributes, dense or sparse data rows) with labels
named by a companion list, which is how Mulan-style corpora are distributed;
it gives a list of dense instances.

Dataset-level feature normalization (min-max to [0,1], then division by
sqrt(d), so ||x|| <= 1) is `normalize_features`, applied once to the parsed
dataset by the caller; it rejects a feature whose max - min overflows
float64.  Of a store it takes the statistics from the stored entries and
returns a store that scales each row as it is built, bit for bit the row the
dense path gives.  Stream construction (`build_stream`) then applies, in
order: seeded permutation, truncation to a step budget, and seeded one-sided
label noise (each positive flips to negative independently with probability
p); the permutation is truncated before it is applied, so only the rows a
stream plays are ever built, and a store keeps each row it builds, so
streams that play a row share it.

All randomness in the package flows through `substream(seed, purpose)`:
independent named substreams of a single seed, so components never share or
race a generator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from collections.abc import Sequence
from itertools import islice, repeat

import numpy as np

__all__ = [
    "Instance",
    "RowStore",
    "StreamConfig",
    "ParseError",
    "SchemaError",
    "substream",
    "parse_dataset",
    "parse_sparse_labels",
    "serialize_sparse_labels",
    "parse_arff",
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


@dataclass(frozen=True)
class StreamConfig:
    """How to turn a parsed dataset into a stream."""

    seed: int = 0
    noise_p: float = 0.0
    limit: int | None = None


class RowStore(Sequence[Instance]):
    """Parsed instances kept compact: CSR feature rows and an (n, K) int8 label matrix.

    A read-only sequence of `Instance`.  Indexing builds that one dense
    feature row the first time, and keeps it: a row indexed again, by any
    stream, shares that feature array, as it would in a list, and gets its
    own copy of its labels.  A store `normalize_features` returned scales
    each row as it builds it.  Row i's features are
    ``values[indptr[i]:indptr[i + 1]]`` at ``idx[indptr[i]:indptr[i + 1]]``,
    no index twice in a row.
    """

    def __init__(self, indptr: np.ndarray, idx: np.ndarray, values: np.ndarray, labels: np.ndarray, d: int,
                 scale: tuple[np.ndarray, np.ndarray] | None = None):
        self.indptr, self.idx, self.values, self.labels, self.d = indptr, idx, values, labels, d
        self.scale = scale  # (min, span) per feature, from normalize_features
        self._rows: dict[int, np.ndarray] = {}  # the rows built so far

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # an int or NumPy integer; negative counts from the end
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._build(i)
        return Instance(row, self.labels[i].copy())

    def _build(self, i: int) -> np.ndarray:
        """Row i's dense features."""
        row = np.zeros(self.d)
        start, stop = self.indptr[i], self.indptr[i + 1]
        row[self.idx[start:stop]] = self.values[start:stop]
        if self.scale is not None:
            _scale(row, *self.scale)
        return row

    def _dense(self) -> np.ndarray:
        """The unscaled (n, d) feature matrix, built in one scatter, no row kept."""
        x = np.zeros((len(self), self.d))
        x.reshape(-1)[np.repeat(np.arange(len(self)) * self.d, np.diff(self.indptr)) + self.idx] = self.values
        return x


def parse_sparse_labels(text: str) -> tuple[RowStore, int, int]:
    """Parse the native format; returns (instances, d, K).

    The file is converted in bulk (`_parse_bulk`).  A file that fails any of
    its checks is parsed again line by line (`_parse_lines`), which is the
    one source of parse errors, so an error names the first bad line.
    """
    parsed = _parse_bulk(text)
    return _parse_lines(text) if parsed is None else parsed


_BLOCK = 1 << 14  # idx:value entries converted at a time, so the peak holds one block's token strings


def _parse_bulk(text: str) -> tuple[RowStore, int, int] | None:
    """`_parse_lines`'s result for a file it accepts, or None where it might raise.

    Each row's label and feature fields are split with str methods, and the
    indices and values converted by an int and a float map (the conversions
    `_parse_lines` makes), a block of rows with about `_BLOCK` entries at a
    time (`_convert_block`); the checks are NumPy reductions, so no dense
    matrix and no list of the whole file's tokens is ever built.
    """
    rows = [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]
    try:
        k, d, n = map(int, rows[0].split())
    except (IndexError, ValueError):
        return None
    if k <= 0 or d <= 0 or n != len(rows) - 1:
        return None
    if n == 0:
        return _store([0], [], [], [], d, k), d, k
    label_fields, bars, feature_fields = zip(*map(str.partition, rows[1:], repeat("|")))
    del rows
    if "" in bars:
        return None
    labels = list(map(str.strip, label_fields))
    features = list(map(str.strip, feature_fields))
    del label_fields, feature_fields
    label_tokens = ",".join(filter(None, labels)).split(",") if any(labels) else []
    labels_per_row = [field.count(",") + 1 if field else 0 for field in labels]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([field.count(":") for field in features], out=indptr[1:])  # one colon per idx:value token
    idx, values = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    cuts = np.searchsorted(indptr, np.arange(_BLOCK, indptr[-1], _BLOCK))
    edges = np.unique(np.concatenate(([0, n], cuts))).tolist()
    for first, last in zip(edges, edges[1:]):
        at = slice(indptr[first], indptr[last])
        if not _convert_block(" ".join(filter(None, features[first:last])), idx[at], values[at]):
            return None
    del features
    try:
        positive = np.fromiter(map(int, label_tokens), np.int64, len(label_tokens))
    except (ValueError, OverflowError):
        return None
    if np.count_nonzero((idx < 0) | (idx >= d)) or np.count_nonzero((positive < 0) | (positive >= k)) \
            or not np.isfinite(values).all():
        return None
    at = np.repeat(np.arange(n) * d, np.diff(indptr)) + idx
    at.sort()
    if np.count_nonzero(at[1:] == at[:-1]):  # a duplicate feature index
        return None
    y = np.full((n, k), -1, dtype=np.int8)
    y.reshape(-1)[np.repeat(np.arange(n) * k, labels_per_row) + positive] = 1
    return RowStore(indptr, idx, values, y, d), d, k


def _convert_block(feature_text: str, idx: np.ndarray, values: np.ndarray) -> bool:
    """Fill idx and values from some rows' feature fields, joined by " "; False where
    the checker must read them.

    The text must be ASCII without control characters, so its only whitespace
    is " ", and its ":" and " " must alternate, so that every token is one
    idx:value pair, one per entry of idx.
    """
    if not feature_text.isascii():
        return False
    raw = np.frombuffer(feature_text.encode(), dtype=np.uint8)
    seps = raw[(raw == ord(":")) | (raw == ord(" "))]
    if np.count_nonzero(raw < ord(" ")) or np.count_nonzero(seps[0::2] != ord(":")) \
            or np.count_nonzero(seps[1::2] != ord(" ")):
        return False
    pieces = feature_text.replace(":", " ").split(" ") if feature_text else []
    if len(pieces) != 2 * idx.size:  # a last token without a colon
        return False
    try:
        idx[:] = np.fromiter(map(int, islice(pieces, 0, None, 2)), np.int64, idx.size)
        values[:] = np.fromiter(map(float, islice(pieces, 1, None, 2)), np.float64, values.size)
    except (ValueError, OverflowError):
        return False
    return True


def _store(indptr: list[int], idx: list[int], values: list[float], labels: list[np.ndarray], d: int,
           k: int) -> RowStore:
    return RowStore(np.array(indptr, dtype=np.int64), np.array(idx, dtype=np.int64),
                    np.array(values, dtype=np.float64), np.array(labels, dtype=np.int8).reshape(-1, k), d)


def _parse_lines(text: str) -> tuple[RowStore, int, int]:
    """`parse_sparse_labels` one line at a time, raising the error of the first bad line."""
    header = None
    declared_n = 0
    indptr, feature_idx, feature_values, label_rows = [0], [], [], []
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
            feature_idx.append(idx)
            feature_values.append(val)
        indptr.append(len(feature_idx))
        label_rows.append(labels)
    if header is None:
        raise SchemaError("empty dataset: no header line found")
    if len(label_rows) != declared_n:
        raise SchemaError(f"header declares N={declared_n} instances, found {len(label_rows)}")
    return _store(indptr, feature_idx, feature_values, label_rows, d, k), d, k


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


def normalize_features(instances: Sequence[Instance]) -> Sequence[Instance]:
    """Dataset-level min-max to [0,1] per feature, then division by sqrt(d).

    The input is left untouched.  A list gives new instances whose features
    are the rows of one scaled matrix.  A `RowStore` gives a store that scales
    each row as it builds it; its statistics come from the stored entries and
    an implicit 0 for each row a feature is missing from, unless a stored
    value is -0.0, whose min or max against +0.0 only the dense reduction
    decides.  A feature whose max - min is not finite in float64 (finite
    values too far apart) is rejected with a ValueError.
    """
    if not len(instances):
        return []
    store = instances if isinstance(instances, RowStore) and instances.scale is None else None
    if store is not None and not np.count_nonzero(np.signbit(store.values) & (store.values == 0.0)):
        n, idx = len(store), store.idx
        lo, hi = np.zeros(store.d), np.zeros(store.d)  # a feature missing from some row has a 0 there
        present = np.bincount(idx, minlength=store.d) == n  # stored in every row
        lo[present], hi[present] = np.inf, -np.inf
        np.minimum.at(lo, idx, store.values)
        np.maximum.at(hi, idx, store.values)
    else:
        x = np.stack([inst.features for inst in instances]) if store is None else store._dense()
        lo, hi = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = np.flatnonzero(~np.isfinite(span))
    if wide.size:
        raise ValueError(f"feature {wide[0]} cannot be normalized: its max - min is not finite in float64")
    span[span == 0.0] = 1.0  # constant features map to 0
    if store is not None:
        return RowStore(store.indptr, store.idx, store.values, store.labels, store.d, (lo, span))
    _scale(x, lo, span)
    return [Instance(row, inst.labels) for row, inst in zip(x, instances)]


def _scale(x: np.ndarray, lo: np.ndarray, span: np.ndarray) -> None:
    """Min-max then division by sqrt(d), in place and elementwise: a row rounds as in a matrix."""
    x -= lo
    x /= span
    x /= np.sqrt(x.shape[-1])


def build_stream(instances: Sequence[Instance], config: StreamConfig) -> list[Instance]:
    """permute -> truncate -> label noise, each step seeded.

    The permutation is truncated before it is applied, so a `RowStore`
    builds only the rows the stream plays.
    """
    if config.limit is not None and config.limit < 0:
        raise ValueError("limit must be non-negative")
    order = substream(config.seed, PURPOSE_PERMUTE).permutation(len(instances))
    out = [instances[i] for i in order[: config.limit]]
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
