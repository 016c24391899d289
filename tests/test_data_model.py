"""Tests for the core types, accuracy primitives, and file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compresslens.data_model import (
    CompressionSpec,
    ExampleRecord,
    LabeledDataset,
    PredictionLog,
    class_recall_matrix,
    model_accuracy,
    read_dataset,
    read_prediction_log,
    write_dataset,
    write_prediction_log,
)
from compresslens.errors import (
    ConfigError,
    MissingClassSupport,
    ParseError,
    RankDepthExceeded,
    SchemaError,
)


def make_log(preds, truth, ids=None, topk=None, population_id="pop", spec=None):
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.ndim == 2:
        preds = preds[:, :, np.newaxis]
    if ids is None:
        ids = np.arange(truth.size)
    return PredictionLog(
        population_id=population_id,
        compression=spec or CompressionSpec("none"),
        example_ids=np.asarray(ids, dtype=np.int64),
        truth=truth,
        predictions=preds,
    )


class TestCompressionSpec:
    def test_prune_requires_sparsity(self):
        with pytest.raises(ConfigError):
            CompressionSpec("magnitude_prune", 0.0)

    def test_quant_carries_no_sparsity(self):
        with pytest.raises(ConfigError):
            CompressionSpec("quant_float16", 0.5)

    def test_none_is_zero(self):
        assert CompressionSpec("none").sparsity == 0.0

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            CompressionSpec("prune")

    def test_labels(self):
        assert CompressionSpec("magnitude_prune", 0.9).label == "prune_0.9"
        assert CompressionSpec("quant_dynamic_int8").label == "dynamic_int8"


class TestDatasetValidation:
    def test_duplicate_ids_rejected(self):
        exs = [
            ExampleRecord(0, np.zeros(2), 0),
            ExampleRecord(0, np.zeros(2), 1),
        ]
        with pytest.raises(ConfigError):
            LabeledDataset(examples=tuple(exs), num_classes=2)

    def test_label_out_of_range(self):
        with pytest.raises(ConfigError):
            LabeledDataset(
                examples=(ExampleRecord(0, np.zeros(2), 5),), num_classes=2
            )

    def test_inconsistent_feature_length(self):
        exs = [
            ExampleRecord(0, np.zeros(2), 0),
            ExampleRecord(1, np.zeros(3), 1),
        ]
        with pytest.raises(ConfigError):
            LabeledDataset(examples=tuple(exs), num_classes=2)

    def test_caller_array_stays_writeable(self):
        a = np.zeros(3)
        ex = ExampleRecord(0, a, 0)
        assert a.flags.writeable
        assert not ex.features.flags.writeable
        assert np.shares_memory(ex.features, a)  # frozen as a view, not a copy

    def test_layout_must_match(self):
        with pytest.raises(ConfigError):
            ExampleRecord(0, np.zeros(5), 0, layout=(2, 2))

    def test_missing_classes_reported(self):
        ds = LabeledDataset(
            examples=(ExampleRecord(0, np.zeros(2), 0),), num_classes=3
        )
        assert ds.missing_classes() == [1, 2]

    def test_from_arrays_rejects_bad_columns(self):
        ids, labels, feats = np.arange(3), np.zeros(3, dtype=int), np.zeros((3, 4))
        with pytest.raises(ConfigError):
            LabeledDataset.from_arrays([0, -1, 2], labels, feats, 2)
        with pytest.raises(ConfigError):
            LabeledDataset.from_arrays(ids, labels[:2], feats, 2)
        with pytest.raises(ConfigError):
            LabeledDataset.from_arrays(ids, labels, feats, 2, layout=(3, 1))
        with pytest.raises(ConfigError):
            LabeledDataset.from_arrays(
                ids, labels, feats, 2,
                attribute_names=("a", "a"), attributes=np.ones((3, 2), dtype=bool),
            )


class TestDatasetColumns:
    def test_records_and_arrays_agree(self):
        feats = np.arange(12.0).reshape(3, 4)
        records = LabeledDataset(
            examples=tuple(
                ExampleRecord(i, feats[i], i % 2, frozenset(["b"] if i else []),
                              layout=(2, 2))
                for i in range(3)
            ),
            num_classes=2,
        )
        arrays = LabeledDataset.from_arrays(
            np.arange(3), [0, 1, 0], feats, 2,
            attribute_names=("unused", "b"),
            attributes=[[False, False], [False, True], [False, True]],
            layout=(2, 2),
        )
        for ds in (records, arrays):
            np.testing.assert_array_equal(ds.example_ids, [0, 1, 2])
            np.testing.assert_array_equal(ds.labels, [0, 1, 0])
            np.testing.assert_array_equal(ds.feature_matrix, feats)
            assert ds.attribute_names == ("b",)
            np.testing.assert_array_equal(ds.attribute_mask("b"), [False, True, True])
            assert ds.layout == (2, 2)
        assert [ex.attributes for ex in arrays.examples] == [
            ex.attributes for ex in records.examples
        ]


class TestClassRecall:
    def test_all_correct_gives_ones(self):
        truth = [0, 1, 2, 0, 1]
        preds = [truth, truth]
        recalls = class_recall_matrix(make_log(preds, truth))
        for c in range(3):
            np.testing.assert_array_equal(recalls[c], [1.0, 1.0])

    def test_hand_counted_example(self):
        # class 0 has examples e0, e1; model 0 right on both, model 1 on e0 only
        truth = [0, 0, 1]
        preds = [[0, 0, 1], [0, 1, 1]]
        recalls = class_recall_matrix(make_log(preds, truth))
        np.testing.assert_allclose(recalls[0], [1.0, 0.5])

    def test_zero_support_class_raises(self):
        truth = [0, 0, 1]
        preds = [[0, 2, 1]]  # class 2 predicted but never true
        with pytest.raises(MissingClassSupport):
            class_recall_matrix(make_log(preds, truth))

    def test_purity(self):
        truth = [0, 1, 0, 1]
        preds = [[0, 1, 1, 0], [1, 1, 0, 1]]
        log = make_log(preds, truth)
        first = class_recall_matrix(log)
        second = class_recall_matrix(log)
        for c in first:
            np.testing.assert_array_equal(first[c], second[c])


class TestModelAccuracy:
    def test_all_correct(self):
        truth = [0, 1]
        log = make_log([truth, truth], truth)
        np.testing.assert_array_equal(model_accuracy(log, 1), [1.0, 1.0])

    def test_hand_count(self):
        truth = [0, 1, 2, 0]
        preds = [[0, 1, 2, 1]]  # 3 of 4 right
        assert model_accuracy(make_log(preds, truth), 1)[0] == pytest.approx(0.75)

    def test_topk_counts_rank3(self):
        truth = [2]
        preds = np.array([[[0, 1, 2, 3, 4]]])  # true label at rank 3
        log = make_log(preds, truth)
        assert model_accuracy(log, 1)[0] == 0.0
        assert model_accuracy(log, 5)[0] == 1.0

    def test_rank_depth_exceeded(self):
        log = make_log([[0, 1]], [0, 1])
        with pytest.raises(RankDepthExceeded):
            model_accuracy(log, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_support_weighted_recall_equals_top1(self, data):
        C = data.draw(st.integers(2, 5))
        N = data.draw(st.integers(C, 30))
        K = data.draw(st.integers(1, 4))
        # every class gets at least one example
        truth = list(range(C)) + data.draw(
            st.lists(st.integers(0, C - 1), min_size=N - C, max_size=N - C)
        )
        preds = data.draw(
            st.lists(
                st.lists(st.integers(0, C - 1), min_size=N, max_size=N),
                min_size=K,
                max_size=K,
            )
        )
        log = make_log(preds, truth)
        recalls = class_recall_matrix(log)
        support = np.bincount(log.truth, minlength=C)
        weighted = sum(support[c] * recalls[c] for c in range(C)) / N
        np.testing.assert_allclose(weighted, model_accuracy(log, 1), atol=1e-12)


class TestLogValidation:
    def test_duplicate_ranked_labels_rejected(self):
        preds = np.array([[[0, 0]]])
        with pytest.raises(ConfigError):
            make_log(preds, [0])

    def test_rows_sorted_by_example_id(self):
        log = make_log([[1, 0]], [1, 0], ids=[5, 2])
        np.testing.assert_array_equal(log.example_ids, [2, 5])
        np.testing.assert_array_equal(log.truth, [0, 1])

    def test_duplicate_example_ids_rejected(self):
        with pytest.raises(ConfigError):
            make_log([[0, 1]], [0, 1], ids=[3, 3])

    def test_caller_arrays_stay_writeable(self):
        ids, truth, preds = np.array([2, 5]), np.array([0, 1]), np.array([[[0], [1]]])
        log = PredictionLog("pop", CompressionSpec("none"), ids, truth, preds)
        assert all(a.flags.writeable for a in (ids, truth, preds))
        assert not any(
            a.flags.writeable for a in (log.example_ids, log.truth, log.predictions)
        )


class TestLogRoundtrip:
    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        K, N, topk, C = 3, 17, 4, 6
        preds = np.stack(
            [
                np.stack([rng.permutation(C)[:topk] for _ in range(N)])
                for _ in range(K)
            ]
        )
        truth = rng.integers(0, C, N)
        log = make_log(
            preds,
            truth,
            ids=rng.permutation(1000)[:N],
            spec=CompressionSpec("magnitude_prune", 0.7),
        )
        path = tmp_path / "log.csv"
        write_prediction_log(log, path)
        back = read_prediction_log(path)
        assert back.population_id == log.population_id
        assert back.compression == log.compression
        np.testing.assert_array_equal(back.example_ids, log.example_ids)
        np.testing.assert_array_equal(back.truth, log.truth)
        np.testing.assert_array_equal(back.predictions, log.predictions)

    def test_write_is_deterministic(self, tmp_path):
        log = make_log([[0, 1], [1, 0]], [0, 1])
        write_prediction_log(log, tmp_path / "a.csv")
        write_prediction_log(log, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_missing_rank_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "population_id,compression_method,sparsity,model_id,example_id,"
            "predicted_label,true_label\n"
        )
        with pytest.raises(SchemaError, match="rank"):
            read_prediction_log(path)

    def test_duplicate_row_raises_with_line(self, tmp_path):
        header = (
            "population_id,compression_method,sparsity,model_id,example_id,"
            "rank,predicted_label,true_label"
        )
        row = "p,none,0.0,0,1,1,0,0"
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n{row}\n{row}\n")
        with pytest.raises(ParseError, match="line 3"):
            read_prediction_log(path)

    def test_rows_in_any_order(self, tmp_path):
        log = make_log([[0, 1], [1, 0]], [0, 1])
        path = tmp_path / "log.csv"
        write_prediction_log(log, path)
        lines = path.read_text().strip().split("\n")
        shuffled = [lines[0]] + lines[1:][::-1]
        path.write_text("\n".join(shuffled) + "\n")
        back = read_prediction_log(path)
        np.testing.assert_array_equal(back.predictions, log.predictions)


class TestDatasetRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        examples = tuple(
            ExampleRecord(
                example_id=i,
                features=rng.normal(size=4),
                true_label=int(rng.integers(0, 3)),
                attributes=frozenset(["blond"]) if i % 2 else frozenset(),
            )
            for i in range(9)
        )
        ds = LabeledDataset(examples=examples, num_classes=3)
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.num_classes == 3
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.example_ids, ds.example_ids)
        np.testing.assert_allclose(back.feature_matrix, ds.feature_matrix, rtol=0)
        assert back.attribute_names == ("blond",)
        np.testing.assert_array_equal(
            back.attribute_mask("blond"), ds.attribute_mask("blond")
        )

    def test_layout_roundtrip(self, tmp_path):
        examples = tuple(
            ExampleRecord(i, np.arange(6, dtype=float), 0, layout=(2, 3))
            for i in range(2)
        )
        ds = LabeledDataset(examples=examples, num_classes=1)
        write_dataset(ds, tmp_path / "img.csv")
        back = read_dataset(tmp_path / "img.csv")
        assert back.examples[0].layout == (2, 3)

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "x.csv").write_text("example_id,true_label,f0\n0,0,1.0\n")
        with pytest.raises(SchemaError):
            read_dataset(tmp_path / "x.csv")

    @pytest.mark.parametrize("meta", [
        "{}",
        '{"num_classes": "x"}',
        '{"num_classes": true}',
        '{"num_classes": 1, "height": 1.5, "width": 1}',
        '{"num_classes": 1, "class_names": 5}',
        "[1]",
        "{",
    ])
    def test_bad_sidecar_names_it(self, tmp_path, meta):
        (tmp_path / "x.csv").write_text("example_id,true_label,f0\n0,0,1.0\n")
        (tmp_path / "x.meta.json").write_text(meta)
        with pytest.raises(SchemaError, match="x.meta.json"):
            read_dataset(tmp_path / "x.csv")
