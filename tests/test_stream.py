import tracemalloc
import warnings

import numpy as np
import pytest

from csdpp import stream
from csdpp.stream import (
    Instance,
    ParseError,
    RowStore,
    SchemaError,
    StreamConfig,
    build_stream,
    imbalanced_stream,
    inject_noise,
    normalize_features,
    parse_arff,
    parse_dataset,
    parse_sparse_labels,
    planted_subspace_stream,
    serialize_sparse_labels,
    substream,
)

SAMPLE = """\
# tiny corpus
10 5 3
3,7 | 1:0.5 4:-1.2
| 1:1.0
0,1,2 |
"""


class TestSparseLabelsFormat:
    def test_basic_parse(self):
        instances, d, k = parse_sparse_labels(SAMPLE)
        assert (d, k) == (5, 10)
        assert len(instances) == 3
        labels = np.full(10, -1)
        labels[[3, 7]] = 1
        np.testing.assert_array_equal(instances[0].labels, labels)
        feats = np.zeros(5)
        feats[1] = 0.5
        feats[4] = -1.2
        np.testing.assert_array_equal(instances[0].features, feats)

    def test_empty_label_field_all_negative(self):
        instances, _, _ = parse_sparse_labels(SAMPLE)
        assert np.all(instances[1].labels == -1)

    def test_feature_index_out_of_range(self):
        with pytest.raises(SchemaError, match="feature index"):
            parse_sparse_labels("2 3 1\n0 | 5:1.0\n")

    def test_label_index_out_of_range(self):
        with pytest.raises(SchemaError, match="label index"):
            parse_sparse_labels("2 3 1\n4 | 0:1.0\n")

    def test_count_mismatch(self):
        with pytest.raises(SchemaError, match="declares N=2"):
            parse_sparse_labels("2 3 2\n0 | 0:1.0\n")

    def test_missing_separator(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_sparse_labels("2 3 1\n0 0:1.0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_sparse_labels("2 3\n")

    def test_duplicate_feature_index(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_sparse_labels("2 3 1\n0 | 1:1.0 1:2.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_value(self, value):
        with pytest.raises(ParseError, match="line 3: non-finite"):
            parse_sparse_labels(f"2 3 2\n0 | 0:1.0\n1 | 2:{value}\n")

    def test_round_trip(self):
        instances, d, k = parse_sparse_labels(SAMPLE)
        text = serialize_sparse_labels(instances, d, k)
        back, d2, k2 = parse_sparse_labels(text)
        assert (d2, k2) == (d, k)
        for a, b in zip(instances, back):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_round_trip_preserves_float_bits(self):
        rng = np.random.default_rng(5)
        instances = [Instance(rng.standard_normal(4), np.array([1, -1, 1], dtype=np.int8))]
        back, _, _ = parse_sparse_labels(serialize_sparse_labels(instances, 4, 3))
        assert np.array_equal(instances[0].features, back[0].features)


MALFORMED = [  # (file, exception type, its exact message)
    ("2 3 1\n0 | 1\n", ParseError, "line 2: bad feature token '1', expected idx:value"),
    ("2 3 1\n0 | 1:2:3\n", ParseError, "line 2: bad feature token '1:2:3'"),
    ("2 5 1\n0 | 1:2:3 4\n", ParseError, "line 2: bad feature token '1:2:3'"),
    ("2 3 1\n0 | 1\t:0.5\n", ParseError, "line 2: bad feature token '1', expected idx:value"),
    ("2 3 1\n0 | 1\u00a0:0.5\n", ParseError, "line 2: bad feature token '1', expected idx:value"),
    ("2 3 1\n0 | 1:0.5 2\n", ParseError, "line 2: bad feature token '2', expected idx:value"),
    ("2 3 1\n0 | :2\n", ParseError, "line 2: bad feature token ':2'"),
    ("2 3 1\n0 | 2:\n", ParseError, "line 2: bad feature token '2:'"),
    ("3 3 1\n1,,2 | 0:1.0\n", ParseError, "line 2: bad label index ''"),
    ("2 3 2\n0 | 0:1.0\n2 | 1:1.0\n", SchemaError, "line 3: label index 2 outside [0, 2)"),
    ("2 3 2\n0 | 0:1.0\n-1 | 1:1.0\n", SchemaError, "line 3: label index -1 outside [0, 2)"),
    ("2 3 2\n0 | 0:1.0\n1 | 3:1.0\n", SchemaError, "line 3: feature index 3 outside [0, 3)"),
    ("2 3 2\n0 | 0:1.0\n1 | -1:1.0\n", SchemaError, "line 3: feature index -1 outside [0, 3)"),
    ("2 3 1\n0 | 99999999999999999999:1.0\n", SchemaError,
     "line 2: feature index 99999999999999999999 outside [0, 3)"),
    ("2 3 1\n0 | 1:1.0 2:0.5 1:2.0\n", ParseError, "line 2: duplicate feature index 1"),
    ("2 3 1\n0 | 0:nan\n", ParseError, "line 2: non-finite feature value in '0:nan'"),
    ("2 3 1\n0 | 0:1.0 1:inf\n", ParseError, "line 2: non-finite feature value in '1:inf'"),
    ("2 3 1\n0 | 2:1e400\n", ParseError, "line 2: non-finite feature value in '2:1e400'"),
    ("2 3 1\n0 0:1.0\n", ParseError, "line 2: missing '|' separator between labels and features"),
    ("2 3 1\n1\n", ParseError, "line 2: missing '|' separator between labels and features"),
    ("2 3 3\n0 | 0:1\n1 | 1:1\n", SchemaError, "header declares N=3 instances, found 2"),
    ("2 3 1\n0 | 0:1\n1 | 1:1\n", SchemaError, "header declares N=1 instances, found 2"),
    ("2 3 x\n", ParseError, "line 1: header fields must be integers, got '2 3 x'"),
    ("# only a comment\n", SchemaError, "empty dataset: no header line found"),
    # two bad lines: the earlier one is named, whichever check each fails
    ("2 3 3\n0 | 0:1\n1 | 1:nan\n5 | 0:1\n", ParseError, "line 3: non-finite feature value in '1:nan'"),
    ("2 3 3\n0 | 0:1\n5 | 0:1\n1 | 1:nan\n", SchemaError, "line 3: label index 5 outside [0, 2)"),
    ("2 3 3\n# note\n0 | 0:1 0:2\n1 | 7:1\n1 | 1:1\n", ParseError, "line 3: duplicate feature index 0"),
]


def random_corpus(seed, n=60):
    """Random instances in the native format: some rows without labels or features, any finite value."""
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 40)), int(rng.integers(1, 12))
    instances = []
    for _ in range(n):
        features = np.zeros(d)
        at = rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False)
        features[at] = rng.standard_normal(at.size) * 10.0 ** rng.integers(-300, 300, size=at.size)
        labels = np.where(rng.random(k) < rng.random(), 1, -1).astype(np.int8)
        instances.append(Instance(features, labels))
    return instances, d, k


def grid_sparse_text(seed, rows=300, d=500, k=20, nnz=25):
    """A file shaped like the benchmark's grid-sparse corpus: 1 to 4 positives, 4-digit values."""
    rng = np.random.default_rng(seed)
    lines = [f"{k} {d} {rows}"]
    for _ in range(rows):
        labels = np.sort(rng.choice(k, size=int(rng.integers(1, 5)), replace=False))
        feats = " ".join(f"{i}:{v:.4f}" for i, v in zip(np.sort(rng.choice(d, nnz, replace=False)), rng.random(nnz)))
        lines.append(",".join(map(str, labels)) + " | " + feats)
    return "\n".join(lines) + "\n"


def assert_same_parse(got, want):
    (instances, d, k), (expected, d2, k2) = got, want
    assert (d, k, len(instances)) == (d2, k2, len(expected))
    for a, b in zip(instances, expected):
        assert a.features.dtype == b.features.dtype and a.features.tobytes() == b.features.tobytes()
        assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()


class TestBulkParse:
    @pytest.mark.parametrize("text, error, message", MALFORMED)
    def test_malformed_file_names_its_first_bad_line(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_sparse_labels(text)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", range(6))
    def test_bulk_path_matches_the_line_checker_bit_for_bit(self, seed):
        instances, d, k = random_corpus(seed)
        text = serialize_sparse_labels(instances, d, k)
        bulk = stream._parse_bulk(text)
        assert bulk is not None
        assert_same_parse(bulk, stream._parse_lines(text))
        assert_same_parse(bulk, (instances, d, k))

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_any_block_of_entries_converts_alike(self, block, monkeypatch):
        monkeypatch.setattr(stream, "_BLOCK", block)
        for seed in range(3):
            instances, d, k = random_corpus(seed)
            assert_same_parse(stream._parse_bulk(serialize_sparse_labels(instances, d, k)), (instances, d, k))
        for text, error, message in MALFORMED:
            with pytest.raises(error) as exc:
                parse_sparse_labels(text)
            assert str(exc.value) == message
        # the bad token in the last block of a long file
        text = grid_sparse_text(5, rows=40)
        bad = text[:-8] + "x" + text[-7:]
        assert stream._parse_bulk(text) is not None and stream._parse_bulk(bad) is None

    @pytest.mark.parametrize("text", [
        "2 3 1\n0 | 0:1_0\n",             # literals int() and float() accept
        "2 3 1\n+1 , 0 |\t2:+.5   0:-0.0\n",
        "2 3 1\n1 | 0:1\u00a02:3\n",      # a non-ASCII space separates tokens too
        "# head\n\n2 3 0\n",
    ])
    def test_literals_parse_as_the_line_checker_parses_them(self, text):
        assert_same_parse(parse_sparse_labels(text), stream._parse_lines(text))

    def test_underscored_value_parses_as_float_reads_it(self):
        (inst,), _, _ = parse_sparse_labels("2 3 1\n0 | 0:1_0\n")
        assert inst.features[0] == 10.0

    def test_valid_file_never_enters_the_line_checker(self, monkeypatch):
        calls = []
        check = stream._parse_lines

        def counting(text):
            calls.append(text)
            return check(text)

        monkeypatch.setattr(stream, "_parse_lines", counting)
        text = grid_sparse_text(3)
        instances, d, k = parse_dataset(text, "sparse-labels")
        assert (len(instances), d, k) == (300, 500, 20)
        assert calls == []
        with pytest.raises(ParseError):
            parse_sparse_labels(text.replace(":0.", ":nan", 1))
        assert len(calls) == 1


def explicit_corpus(seed, negative_zero, rows=40, d=9, k=5):
    """A sparse-labels file that writes explicit entries, with the dense rows it stands for.

    Feature 0 is stored in every row, feature 1 in every row with one value,
    feature 2 in no row; the others take some rows, with explicit 0.0,
    negative values and, if ``negative_zero``, a -0.0.
    """
    rng = np.random.default_rng(seed)
    dense = []
    lines = [f"{k} {d} {rows}"]
    for r in range(rows):
        tokens = {0: repr(float(rng.standard_normal())), 1: "3.25"}
        for i in rng.choice(np.arange(3, d), size=int(rng.integers(0, d - 2)), replace=False):
            tokens[int(i)] = rng.choice(["0.0", "-2.5", repr(float(rng.standard_normal() * 1e3))])
        if negative_zero and r == rows // 2:
            tokens[4] = "-0.0"
        features = np.zeros(d)
        for i, text in tokens.items():
            features[i] = float(text)
        labels = np.where(rng.random(k) < 0.3, 1, -1).astype(np.int8)
        dense.append(Instance(features, labels))
        order = rng.permutation(list(tokens))  # a row's entries in any order
        lines.append(",".join(map(str, np.flatnonzero(labels == 1))) + " | "
                     + " ".join(f"{i}:{tokens[i]}" for i in order))
    return "\n".join(lines) + "\n", dense


def stream_bytes(instances):
    return [(inst.features.tobytes(), inst.labels.tobytes()) for inst in instances]


class TestRowStore:
    @pytest.mark.parametrize("negative_zero", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_stream_rows_equal_the_dense_path_bit_for_bit(self, seed, negative_zero):
        text, dense = explicit_corpus(seed, negative_zero)
        for store, d, k in (parse_sparse_labels(text), stream._parse_lines(text)):
            assert isinstance(store, RowStore) and (len(store), d, k) == (40, 9, 5)
            assert stream_bytes(store) == stream_bytes(dense)
            scaled, reference = normalize_features(store), normalize_features(dense)
            assert isinstance(scaled, RowStore)
            for config in (StreamConfig(seed=1), StreamConfig(seed=2, limit=7), StreamConfig(seed=3, noise_p=0.5)):
                # with normalization, and as --no-normalize plays the parsed rows
                assert stream_bytes(build_stream(scaled, config)) == stream_bytes(build_stream(reference, config))
                assert stream_bytes(build_stream(store, config)) == stream_bytes(build_stream(dense, config))
        columns = np.stack([inst.features for inst in scaled])
        assert np.all(columns[:, 1:3] == 0.0)  # the constant and the absent feature map to 0

    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_normalization_builds_no_row(self, negative_zero, monkeypatch):
        # its statistics come from the entries, or, for a -0.0, from one unscaled matrix
        text, _ = explicit_corpus(4, negative_zero)
        store, _, _ = parse_sparse_labels(text)
        calls = []
        for name in ("_build", "_dense"):
            method = getattr(RowStore, name)
            monkeypatch.setattr(RowStore, name, lambda self, *i, name=name, method=method: calls.append(name)
                                or method(self, *i))
        assert isinstance(normalize_features(store), RowStore)
        assert calls == (["_dense"] if negative_zero else [])

    def test_overflow_names_the_feature_the_dense_path_names(self):
        text = "1 4 3\n0 | 1:1e308 3:1e308\n | 1:-1e308 3:-1e308\n0 | 0:2\n"
        store, _, _ = parse_sparse_labels(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as dense_error:
                normalize_features(list(store))
            with pytest.raises(ValueError, match="^feature 1 cannot be normalized") as store_error:
                normalize_features(store)
        assert str(store_error.value) == str(dense_error.value)

    def test_is_a_read_only_sequence(self):
        text, dense = explicit_corpus(5, False, rows=6)
        store, _, _ = parse_sparse_labels(text)
        assert stream_bytes([store[-1], store[np.int64(2)]]) == stream_bytes([dense[-1], dense[2]])
        assert stream_bytes(store[1:4]) == stream_bytes(dense[1:4])
        with pytest.raises(IndexError):
            store[6]
        store[0].labels[:] = 1  # an instance's labels are a copy
        assert stream_bytes([store[0]]) == stream_bytes([dense[0]])
        assert store[3].features is store[-3].features  # a row is built once and shared

    def test_streams_share_the_rows_they_play(self):
        text, dense = explicit_corpus(6, False, rows=30)
        store = normalize_features(parse_sparse_labels(text)[0])
        streams = [build_stream(store, StreamConfig(seed=seed, noise_p=0.5)) for seed in range(3)]
        assert len(store._rows) == 30
        rows = {id(row) for row in store._rows.values()}
        assert all(id(inst.features) in rows for played in streams for inst in played)
        assert stream_bytes(streams[2]) == stream_bytes(build_stream(normalize_features(dense),
                                                                     StreamConfig(seed=2, noise_p=0.5)))

    def test_parse_keeps_no_dense_copy(self):
        # grid-sparse's shape: 4,000 rows, d = 500, 25 entries a row
        text = grid_sparse_text(8, rows=4000)
        dense_copy = 4000 * 500 * 8
        tracemalloc.start()
        try:
            parsed = parse_dataset(text, "sparse-labels")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parsed[0]) == 4000
        assert retained <= dense_copy / 4
        assert peak <= 1.5 * dense_copy


ARFF = """\
% comment
@relation demo
@attribute f0 numeric
@attribute f1 numeric
@attribute lab_a numeric
@attribute lab_b numeric
@data
0.5,1.5,1,0
{1 2.0, 3 1}
"""


class TestArff:
    def test_dense_and_sparse_rows(self):
        instances, d, k = parse_arff(ARFF, ["lab_a", "lab_b"])
        assert (d, k) == (2, 2)
        np.testing.assert_array_equal(instances[0].features, [0.5, 1.5])
        np.testing.assert_array_equal(instances[0].labels, [1, -1])
        np.testing.assert_array_equal(instances[1].features, [0.0, 2.0])
        np.testing.assert_array_equal(instances[1].labels, [-1, 1])

    def test_unknown_label_name(self):
        with pytest.raises(SchemaError, match="not present"):
            parse_arff(ARFF, ["nope"])

    @pytest.mark.parametrize("row", ["nan,1.5,1,0", "{0 inf, 3 1}"])
    def test_non_finite_value(self, row):
        bad = ARFF.replace("0.5,1.5,1,0", row)
        with pytest.raises(ParseError, match="line 8: non-finite"):
            parse_arff(bad, ["lab_a", "lab_b"])

    @pytest.mark.parametrize("entry,message", [("-1 1", "sparse index -1"), ("4 1", "sparse index 4")])
    def test_sparse_index_out_of_range(self, entry, message):
        bad = ARFF.replace("0.5,1.5,1,0", "{%s}" % entry)
        with pytest.raises(ParseError, match=f"line 8: {message} outside"):
            parse_arff(bad, ["lab_a", "lab_b"])

    def test_duplicate_sparse_index(self):
        bad = ARFF.replace("0.5,1.5,1,0", "{0 1.5, 0 2.5, 2 1}")
        with pytest.raises(ParseError, match="line 8: duplicate sparse index 0"):
            parse_arff(bad, ["lab_a", "lab_b"])

    @pytest.mark.parametrize("name,line", [("f0", 4), ("lab_a", 6)])
    def test_duplicate_attribute(self, name, line):
        declared = f"@attribute {name} numeric\n"
        bad = ARFF.replace(declared, declared + f"@attribute '{name}' numeric\n")
        with pytest.raises(ParseError, match=f"line {line}: duplicate attribute '{name}'"):
            parse_arff(bad, ["lab_a", "lab_b"])

    def test_quoted_names_may_hold_spaces(self):
        spaced = ARFF.replace("f0", "'feat a'").replace("f1", "\"feat b\"").replace("lab_b", "'lab b'")
        instances, d, k = parse_arff(spaced, ["lab_a", "lab b"])
        assert (d, k) == (2, 2)
        np.testing.assert_array_equal(instances[1].labels, [-1, 1])

    def test_row_width_mismatch(self):
        bad = ARFF.replace("0.5,1.5,1,0", "0.5,1.5,1")
        with pytest.raises(SchemaError, match="row has 3"):
            parse_arff(bad, ["lab_a"])

    def test_dispatch(self):
        with pytest.raises(ValueError, match="unknown dataset format"):
            parse_dataset("x", "csv")
        with pytest.raises(ValueError, match="label_names"):
            parse_dataset(ARFF, "arff")


class TestStreamOps:
    def _instances(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        return [
            Instance(rng.standard_normal(4), rng.choice(np.array([-1, 1], dtype=np.int8), 6))
            for _ in range(n)
        ]

    def test_permutation_is_bijection(self):
        instances = self._instances()
        out = build_stream(instances, StreamConfig(seed=3))
        assert sorted(id(i) for i in out) == sorted(id(i) for i in instances)

    def test_permutation_deterministic_and_seed_sensitive(self):
        instances = self._instances()
        a = build_stream(instances, StreamConfig(seed=3))
        b = build_stream(instances, StreamConfig(seed=3))
        c = build_stream(instances, StreamConfig(seed=4))
        assert [id(i) for i in a] == [id(i) for i in b]
        assert [id(i) for i in a] != [id(i) for i in c]

    def test_noise_zero_and_one(self):
        instances = self._instances()
        same = inject_noise(instances, 0.0, seed=1)
        for a, b in zip(instances, same):
            np.testing.assert_array_equal(a.labels, b.labels)
        gone = inject_noise(instances, 1.0, seed=1)
        assert all(np.all(i.labels == -1) for i in gone)

    def test_noise_only_hits_positives(self):
        instances = self._instances()
        noised = inject_noise(instances, 0.6, seed=2)
        for a, b in zip(instances, noised):
            assert np.all(b.labels[a.labels == -1] == -1)

    def test_noise_rate_concentrates(self):
        rng = np.random.default_rng(9)
        instances = [Instance(np.zeros(1), np.ones(100, dtype=np.int8)) for _ in range(100)]
        noised = inject_noise(instances, 0.5, seed=7)
        flipped = sum(int(np.count_nonzero(i.labels == -1)) for i in noised)
        assert 0.47 <= flipped / 10_000 <= 0.53

    def test_noise_validates_probability(self):
        with pytest.raises(ValueError, match="probability"):
            inject_noise(self._instances(2), 1.5, seed=0)

    def test_normalization_bounds_norm(self):
        out = normalize_features(self._instances())
        for inst in out:
            assert np.all(inst.features >= 0.0)
            assert np.linalg.norm(inst.features) <= 1.0 + 1e-12

    def test_normalization_constant_feature(self):
        instances = [Instance(np.array([2.0, 1.0]), np.array([1], dtype=np.int8)),
                     Instance(np.array([2.0, 3.0]), np.array([1], dtype=np.int8))]
        out = normalize_features(instances)
        assert out[0].features[0] == 0.0 == out[1].features[0]

    def test_normalization_leaves_its_input_untouched(self):
        instances = self._instances()
        before = [(inst.features.copy(), inst.labels.copy()) for inst in instances]
        out = normalize_features(instances)
        for inst, (features, labels) in zip(instances, before):
            assert inst.features.tobytes() == features.tobytes() and inst.labels.tobytes() == labels.tobytes()
        x = np.stack([f for f, _ in before])
        lo = x.min(axis=0)
        expected = (x - lo) / (x.max(axis=0) - lo) / np.sqrt(x.shape[1])
        assert np.stack([inst.features for inst in out]).tobytes() == expected.tobytes()

    def test_normalization_rejects_a_range_that_overflows(self):
        instances = [Instance(np.array([1.0, 1e308, 1.0]), np.array([1], dtype=np.int8)),
                     Instance(np.array([2.0, -1e308, 0.0]), np.array([1], dtype=np.int8))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^feature 1 cannot be normalized: its max - min is not finite"):
                normalize_features(instances)

    def test_build_stream_limit(self):
        out = build_stream(self._instances(), StreamConfig(seed=0, limit=7))
        assert len(out) == 7

    def test_substream_purposes_independent(self):
        a = substream(0, 1).random(5)
        b = substream(0, 2).random(5)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, substream(0, 1).random(5))


class TestSyntheticStreams:
    def test_planted_rank(self):
        stream = planted_subspace_stream(8, 6, 200, seed=1, n_prototypes=3)
        ys = np.stack([i.labels for i in stream]).astype(float)
        assert np.linalg.matrix_rank(ys) == 3
        assert all(abs(np.linalg.norm(i.features) - 1.0) < 1e-9 for i in stream)

    def test_planted_probs_validation(self):
        with pytest.raises(ValueError, match="prototype_probs"):
            planted_subspace_stream(4, 4, 10, seed=0, n_prototypes=2, prototype_probs=np.ones(3))

    def test_imbalanced_positive_rate(self):
        stream = imbalanced_stream(8, 10, 500, seed=2, positive_rate=0.1)
        rate = np.mean([np.count_nonzero(i.labels == 1) for i in stream]) / 10
        assert abs(rate - 0.1) < 0.03
