import numpy as np
import pytest

from csdpp.stream import (
    Instance,
    ParseError,
    SchemaError,
    StreamConfig,
    build_stream,
    imbalanced_stream,
    inject_noise,
    normalize_features,
    parse_arff,
    parse_dataset,
    parse_sparse_labels,
    permute_stream,
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
        out = permute_stream(instances, seed=3)
        assert sorted(id(i) for i in out) == sorted(id(i) for i in instances)

    def test_permutation_deterministic_and_seed_sensitive(self):
        instances = self._instances()
        a = permute_stream(instances, seed=3)
        b = permute_stream(instances, seed=3)
        c = permute_stream(instances, seed=4)
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
