"""Tests for the core types, accuracy primitives, and file formats."""

import dataclasses
import math
import os
import re
import shutil
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compresslens import data_model
from compresslens.data_model import (
    LOG_HEADER,
    TABLE_BLOCK_CELLS,
    AuditConfig,
    CompressionSpec,
    ExampleRecord,
    LabeledDataset,
    PredictionLog,
    check_class_support,
    class_recall_matrix,
    int64_array,
    model_accuracy,
    read_dataset,
    read_prediction_log,
    write_dataset,
    write_prediction_log,
    write_table,
)
from compresslens.errors import (
    CompressLensError,
    ConfigError,
    MissingClassSupport,
    ParseError,
    RankDepthExceeded,
    SchemaError,
)
from compresslens.pie_audit import (
    PIESet,
    read_pie_report,
    write_attribute_report,
    write_pie_report,
)
from compresslens.pipeline import ExperimentConfig, write_report
from compresslens.robustness import (
    CorruptionSpec,
    RobustnessRow,
    corrupt_features,
    write_robustness_report,
)
from compresslens.stats_audit import ClassAuditRow, read_audit_csv, write_audit_csv
from compresslens.synth import SynthLongTailSpec
from compresslens.trainer import MLPModel, PruneSchedule, TrainConfig, sparsity_at_step


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

    @pytest.mark.parametrize("sparsity", [False, "0.5", None])
    def test_sparsity_must_be_a_number(self, sparsity):
        with pytest.raises(ConfigError, match="sparsity"):
            CompressionSpec("none", sparsity=sparsity)

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

    @pytest.mark.parametrize("layout", [(-4, -4), (0, 16), (2.0, 8), (True, 16), (4, 4, 1)])
    def test_layout_is_two_integers_from_one(self, layout):
        with pytest.raises(ConfigError, match="layout"):
            LabeledDataset.from_arrays(np.arange(2), [0, 1], np.zeros((2, 16)), 2, layout=layout)
        with pytest.raises(ConfigError, match="layout"):
            ExampleRecord(0, np.zeros(16), 0, layout=layout)

    def test_missing_classes_reported(self):
        ds = LabeledDataset(
            examples=tuple(ExampleRecord(i, np.zeros(2), 0) for i in range(3)), num_classes=3
        )
        with pytest.raises(MissingClassSupport, match=r"^classes with zero test support: \[1, 2]$"):
            check_class_support(ds.labels, ds.num_classes, "test")

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
            np.testing.assert_array_equal(ds.attribute_mask("unused"), [False, False, False])
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

    @pytest.mark.parametrize("label", [5, 3 * 10**9, 2**63 - 1])
    def test_more_classes_than_examples_raises(self, label):
        log = make_log([[0, 1, label]], [0, 1, 2])  # C = label + 1 > 3 examples
        with pytest.raises(MissingClassSupport, match="3 examples"):
            class_recall_matrix(log)

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

    @pytest.mark.parametrize("ids, truth, shape, message", [
        ([0, 1], [0, 1], (1, 2), "predictions must have shape (K, N, topk)"),
        ([0, 1, 2], [0, 1, 0], (1, 2, 1), "example_ids/truth must align with predictions"),
        ([0, 1], [0], (1, 2, 1), "example_ids/truth must align with predictions"),
        ([0, 1], [0, 1], (0, 2, 1), "log needs K >= 1 models and topk >= 1"),
        ([0, 1], [0, 1], (1, 2, 0), "log needs K >= 1 models and topk >= 1"),
    ], ids=["two axes", "more ids", "fewer labels", "no model", "no rank"])
    def test_bad_shape_rejected(self, ids, truth, shape, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PredictionLog("p", CompressionSpec("none"), ids, truth, np.zeros(shape, dtype=int))

    def test_rows_sorted_by_example_id(self):
        log = make_log([[1, 0]], [1, 0], ids=[5, 2])
        np.testing.assert_array_equal(log.example_ids, [2, 5])
        np.testing.assert_array_equal(log.truth, [0, 1])

    def test_duplicate_example_ids_rejected(self):
        with pytest.raises(ConfigError):
            make_log([[0, 1]], [0, 1], ids=[3, 3])

    @pytest.mark.parametrize("preds, truth, message", [
        ([[0, -1]], [0, 1], "example 1: predicted label -1 outside"),
        ([[0, 1]], [0, -2], "example 1: true label -2 outside"),
    ])
    def test_negative_labels_rejected(self, preds, truth, message):
        with pytest.raises(ConfigError, match=message):
            make_log(preds, truth)

    @pytest.mark.parametrize("preds, truth", [([[0, 2]], [0, 1]), ([[0, 1]], [0, 2])])
    def test_labels_beyond_explicit_class_count_rejected(self, preds, truth):
        with pytest.raises(ConfigError, match=r"label 2 outside \[0, 2\)"):
            PredictionLog("p", CompressionSpec("none"), [0, 1], truth,
                          np.array(preds)[:, :, np.newaxis], explicit_num_classes=2)

    @pytest.mark.parametrize("labels, explicit", [
        ([0, 1, 2], 2), ([1, 0, -1], 2), ([0, 1, -1], None),
    ])
    def test_topk_beyond_class_count_rejected(self, labels, explicit):
        """Three distinct ranked labels never all lie in [0, 2): the range check refuses them."""
        with pytest.raises(ConfigError):
            PredictionLog("p", CompressionSpec("none"), [0], [0], np.array([[labels]]),
                          explicit_num_classes=explicit)

    def test_caller_arrays_stay_writeable(self):
        ids, truth, preds = np.array([2, 5]), np.array([0, 1]), np.array([[[0], [1]]])
        log = PredictionLog("pop", CompressionSpec("none"), ids, truth, preds)
        assert all(a.flags.writeable for a in (ids, truth, preds))
        assert not any(
            a.flags.writeable for a in (log.example_ids, log.truth, log.predictions)
        )


# where each entry point takes a class count
CLASS_COUNT_ENTRY_POINTS = {
    "from_arrays": lambda c: LabeledDataset.from_arrays([0], [0], np.zeros((1, 1)), c),
    "PredictionLog": lambda c: PredictionLog("p", CompressionSpec("none"), [0], [0],
                                             [[[0]]], explicit_num_classes=c),
}


class TestClassCountRule:
    """A class count is an int >= 1 at every entry point: never a float, a bool or below 1."""

    @pytest.mark.parametrize("entry", CLASS_COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("count", [2.5, True, 0, -1, 1.0, "2"])
    def test_refused(self, entry, count):
        with pytest.raises(ConfigError, match=re.escape(f"must be an integer >= 1, got {count!r}")):
            CLASS_COUNT_ENTRY_POINTS[entry](count)

    @pytest.mark.parametrize("entry", CLASS_COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("count", [1, 3, np.int64(3)])
    def test_taken_as_int(self, entry, count):
        made = CLASS_COUNT_ENTRY_POINTS[entry](count)
        assert made.num_classes == count and type(made.num_classes) is int


def _initialize(d):
    return MLPModel.initialize((16, d, 10), np.random.default_rng(0))


def _ramp_at(step):
    return sparsity_at_step(PruneSchedule(0.5, 0, 10, 1), step)


# each one-sided integer bound: (its name in the message, the bound, a value
# below it, what checks it)
INTEGER_BOUNDS = {
    "TrainConfig.steps": ("steps", 0, -1, lambda v: TrainConfig(steps=v)),
    "TrainConfig.seed": ("seed", 0, -1, lambda v: TrainConfig(seed=v)),
    "TrainConfig.batch_size": ("batch_size", 1, 0, lambda v: TrainConfig(batch_size=v)),
    "TrainConfig.population_size": ("population_size", 1, 0,
                                    lambda v: TrainConfig(population_size=v)),
    "TrainConfig.lr_decay_steps": ("lr_decay_steps", 1, 0,
                                   lambda v: TrainConfig(lr_decay_steps=v)),
    "TrainConfig.hidden_dims": ("each of hidden_dims", 1, 0,
                                lambda v: TrainConfig(hidden_dims=(8, v))),
    "PruneSchedule.prune_every": ("prune_every", 1, 0, lambda v: PruneSchedule(0.5, 0, 10, v)),
    "SynthLongTailSpec.seed": ("seed", 0, -1, lambda v: SynthLongTailSpec(seed=v)),
    "SynthLongTailSpec.num_classes": ("num_classes", 2, 1,
                                      lambda v: SynthLongTailSpec(num_classes=v)),
    "SynthLongTailSpec.dim": ("dim", 1, 0, lambda v: SynthLongTailSpec(dim=v)),
    "ExperimentConfig.seed": ("seed", 0, -1, lambda v: ExperimentConfig(seed=v)),
    "ExperimentConfig.topk": ("topk", 1, 0, lambda v: ExperimentConfig(topk=v)),
    "CorruptionSpec.seed": ("seed", 0, -1, lambda v: CorruptionSpec("brightness", 1, v)),
    "MLPModel.initialize": ("each of layer_dims", 1, 0, _initialize),
    "MLPModel.initialize, a float": ("each of layer_dims", 1, 2.5, _initialize),
    "sparsity_at_step": ("step", 0, -1, _ramp_at),
}


@pytest.mark.parametrize("entry", INTEGER_BOUNDS)
def test_integer_below_its_bound_is_refused(entry):
    """Each one-sided integer bound is `int_at_least`: its message names field, bound and value."""
    what, low, value, check = INTEGER_BOUNDS[entry]
    message = f"{what} must be an integer >= {low}, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        check(value)
    check(low)  # the bound itself is taken


# each bound a config checks on a number itself: (what checks it, a value
# outside, its message, a value inside)
NUMBER_BOUNDS = {
    "AuditConfig.alpha": (lambda v: AuditConfig(alpha=v), 1.5,
                          "alpha must be in (0, 1), got 1.5", 0.999),
    "TrainConfig.learning_rate": (lambda v: TrainConfig(learning_rate=v), 0,
                                  "learning_rate must be positive", 1e-9),
    "TrainConfig.weight_decay": (lambda v: TrainConfig(weight_decay=v), -1,
                                 "weight_decay must be non-negative", 0),
}


@pytest.mark.parametrize("entry", NUMBER_BOUNDS)
def test_number_outside_its_range_is_refused(entry):
    check, value, message, inside = NUMBER_BOUNDS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        check(value)
    check(inside)


# where each entry point takes the ids or labels `seq`, two of them, the second bad
INTEGER_ENTRY_POINTS = {
    "from_arrays ids": lambda seq: LabeledDataset.from_arrays(seq, [0, 0], np.zeros((2, 1)), 1),
    "from_arrays labels": lambda seq: LabeledDataset.from_arrays([0, 1], seq, np.zeros((2, 1)), 9),
    "log ids": lambda seq: PredictionLog("p", CompressionSpec("none"), seq, [0, 0],
                                         [[[0], [0]]], explicit_num_classes=9),
    "log truth": lambda seq: PredictionLog("p", CompressionSpec("none"), [0, 1], seq,
                                           [[[0], [0]]], explicit_num_classes=9),
    "log predictions": lambda seq: PredictionLog(
        "p", CompressionSpec("none"), [0, 1], [0, 0],
        seq.reshape(1, 2, 1) if isinstance(seq, np.ndarray) else [[[v] for v in seq]],
        explicit_num_classes=9,
    ),
    "ExampleRecord": lambda seq: ExampleRecord(seq[1], np.zeros(1), 0),
    "is_pie": lambda seq: PIESet(np.array([0, 1]), np.zeros(2, int), np.ones(2, int)).is_pie(seq),
    "corrupt_features": lambda seq: corrupt_features(
        np.zeros((2, 4)), CorruptionSpec("gaussian_noise", 1), seq
    ),
}
NOT_INT64 = [
    [0, 0.5], [0, 2.0], [0, True], [0, "3"], [0, -1], [0, 2**63],
    np.array([0.0, 2.0]), np.array([False, True]), np.array(["0", "3"]), np.array([0, -1]),
    np.array([0, 2**63], dtype=np.uint64),
]


def _seq_id(seq) -> str:
    return f"{seq.dtype}{seq.tolist()}" if isinstance(seq, np.ndarray) else repr(seq)


class TestIntegerRule:
    """Every entry point reads ids and labels by `int64_array`: nothing is cast or wrapped."""

    @pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
    @pytest.mark.parametrize("seq", NOT_INT64, ids=_seq_id)
    def test_entry_points_refuse(self, entry, seq):
        with pytest.raises(ConfigError):
            INTEGER_ENTRY_POINTS[entry](seq)

    @pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "seq", [[1, 0], [np.int32(1), 0], np.array([1, 0], dtype=np.uint8)], ids=_seq_id
    )
    def test_entry_points_take_integers(self, entry, seq):
        INTEGER_ENTRY_POINTS[entry](seq)

    def test_signed_array_is_taken_as_it_is(self):
        # every signed value is an int64, so none is compared with a lower bound
        extremes = np.array([np.iinfo(np.int64).min, -1, np.iinfo(np.int64).max])
        assert int64_array(extremes, "labels") is extremes
        assert int64_array(np.array([-128], dtype=np.int8), "labels").tolist() == [-128]


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

    @pytest.mark.parametrize("rows, message", [
        # example 1 has true label 0 under model 0 and 1 under model 1
        (["p,none,0.0,0,1,1,0,0", "p,none,0.0,1,1,1,0,1"],
         "line 3: conflicting true_label for example 1"),
        (["p,none,0.0,0,1,1,0,0", "p,none,0.0,0,1,3,1,0"],
         "ranks must be contiguous from 1, got [1, 3]"),
    ], ids=["two true labels", "rank gap"])
    def test_cross_row_fault(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(LOG_HEADER), *rows]) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_prediction_log(path)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            oracles.read_prediction_log(path)

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

    @pytest.mark.parametrize("features", ["f1", "f0,f2", "f1,f0", "g0"])
    def test_feature_columns_numbered_from_0(self, tmp_path, features):
        (tmp_path / "x.csv").write_text(f"example_id,true_label,attr_a,{features}\n")
        (tmp_path / "x.meta.json").write_text('{"num_classes": 1}')
        message = f"{tmp_path / 'x.csv'}: feature columns must be f0..f{{d-1}}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            read_dataset(tmp_path / "x.csv")

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "x.csv").write_text("example_id,true_label,f0\n0,0,1.0\n")
        with pytest.raises(SchemaError):
            read_dataset(tmp_path / "x.csv")

    @pytest.mark.parametrize("meta", [
        "{}",
        '{"num_classes": "x"}',
        '{"num_classes": true}',
        '{"num_classes": 1, "height": 1.5, "width": 1}',
        '{"num_classes": 1, "height": -1, "width": -1}',
        '{"num_classes": 1, "height": 1}',
        '{"num_classes": 1, "width": 1}',
        "[1]",
        "{",
    ])
    def test_bad_sidecar_names_it(self, tmp_path, meta):
        (tmp_path / "x.csv").write_text("example_id,true_label,f0\n0,0,1.0\n")
        (tmp_path / "x.meta.json").write_text(meta)
        with pytest.raises(SchemaError, match="x.meta.json"):
            read_dataset(tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# the column-wise readers against the former row-by-row ones (tests/oracles.py)
# ---------------------------------------------------------------------------

@st.composite
def small_logs(draw, max_models=4, max_examples=6, pid_excludes="", label_gaps=False):
    """A log of C labels; with `label_gaps`, labels that may skip values, below a
    class count that may lie far above every one of them."""
    C = draw(st.integers(1, 6))
    topk = draw(st.integers(1, C))
    K = draw(st.integers(1, max_models))
    N = draw(st.integers(1, max_examples))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=N, max_size=N, unique=True))
    preds = [[draw(st.permutations(range(C)))[:topk] for _ in range(N)] for _ in range(K)]
    truth = draw(st.lists(st.integers(0, C - 1), min_size=N, max_size=N))
    num_classes = None
    if label_gaps:  # label j becomes the j-th smallest of C drawn values
        labels = np.sort(draw(st.lists(st.integers(0, 2**40 - 1), min_size=C, max_size=C,
                                       unique=True)))
        preds, truth = labels[preds], labels[truth]
        num_classes = draw(st.none() | st.integers(int(labels[-1]) + 1, 2**40))
    spec = draw(
        st.sampled_from([CompressionSpec("none"), CompressionSpec("quant_dynamic_int8")])
        | st.floats(0, 1, exclude_min=True, exclude_max=True).map(
            lambda s: CompressionSpec("magnitude_prune", s)
        )
    )
    # any text a field holds: no comma, no line break (a quote is a plain character)
    pid = draw(st.text(
        st.characters(blacklist_characters=",\n\r" + pid_excludes, blacklist_categories=("Cs",)),
        max_size=8,
    ))
    return PredictionLog(pid, spec, ids, truth, np.array(preds).reshape(K, N, topk), num_classes)


def _outcome(read, path):
    """What a reader makes of a file: the log's contents, or the exception raised."""
    try:
        log = read(path)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return (
        log.population_id, log.compression, log.example_ids.tolist(),
        log.truth.tolist(), log.predictions.tolist(),
    )


def _newly_rejected(text: str) -> bool:
    """A log the former reader read that the grammar now rejects: a numeric cell
    that int() reads but that is quoted, holds `_` or non-ASCII characters, or is
    outside the 64-bit range; or a carriage return that does not end a line."""
    if re.search("\r(?!\n)", text):
        return True
    for line in re.split("\r?\n", text)[1:]:  # a cell that ends a CRLF line is classified too
        for cell in line.split(",")[3:]:
            try:
                value = int(cell.strip('"'))
            except ValueError:
                continue
            if '"' in cell or "_" in cell or not cell.isascii() or not -(2**63) <= value < 2**63:
                return True
    return False


MUTATIONS = ["drop", "add", "dup", "rank0", "population", "sparsity", "blank", "crlf",
             "huge", "nonint", "truncate"]
HUGE = ["99999999999999999999", "-99999999999999999999", "9223372036854775808",
        "-9223372036854775809", "9223372036854775807", "4611686018427387904"]
NONINT = ["x", "1.5", "", " 2", "2\t", "+1", "01", "1e3", '"3"', "1_0", "٣", "3\x1c", "\x0b4"]


def _mutate(data, lines: list[str]) -> list[str]:
    """One mutation of a log's lines (header first), as drawn by Hypothesis."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    i = data.draw(st.integers(1, max(1, len(lines) - 1)))
    if i >= len(lines):
        return lines
    fields = lines[i].split(",")
    if kind == "drop" and fields:
        fields.pop(data.draw(st.integers(0, len(fields) - 1)))
    elif kind == "add":
        fields.insert(data.draw(st.integers(0, len(fields))), data.draw(st.sampled_from(["1", "", "x"])))
    elif kind == "dup":
        return lines[:i] + [lines[i]] + lines[i:]
    elif kind == "rank0" and len(fields) > 5:
        fields[5] = data.draw(st.sampled_from(["0", "-1"]))
    elif kind == "population" and fields:
        fields[0] += "x"
    elif kind == "sparsity" and len(fields) > 2:
        s = fields[2]
        try:
            digits = f"{float(s):.20g}"  # the same number in other words
        except ValueError:  # an earlier "add" or "drop" put a text cell here
            digits = s
        fields[2] = data.draw(st.sampled_from([s + "0", digits, "0.5", "nan", "x"]))
    elif kind == "blank":
        return lines[:i] + [data.draw(st.sampled_from(["", "\r", " "]))] + lines[i:]
    elif kind == "crlf":
        return [line + "\r" if line else line for line in lines]
    elif kind == "huge" and len(fields) > 3:
        fields[data.draw(st.integers(3, len(fields) - 1))] = data.draw(st.sampled_from(HUGE))
    elif kind == "nonint" and len(fields) > 3:
        fields[data.draw(st.integers(3, len(fields) - 1))] = data.draw(st.sampled_from(NONINT))
    elif kind == "truncate":
        text = "\n".join(lines)
        return text[: data.draw(st.integers(0, len(text)))].split("\n")
    lines[i] = ",".join(fields)
    return lines


class _Draws:
    """Stands in for `st.data()` in an `@example`: each draw returns the next value given."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


class TestColumnarLogReader:
    @settings(max_examples=150, deadline=None)
    @given(log=small_logs())
    def test_roundtrip(self, tmp_path_factory, log):
        path = tmp_path_factory.mktemp("rt") / "log.csv"
        write_prediction_log(log, path)
        back = read_prediction_log(path)
        assert back.population_id == log.population_id
        assert back.compression == log.compression
        np.testing.assert_array_equal(back.example_ids, log.example_ids)
        np.testing.assert_array_equal(back.truth, log.truth)
        np.testing.assert_array_equal(back.predictions, log.predictions)

    @settings(max_examples=150, deadline=None)
    @given(log=small_logs() | small_logs(label_gaps=True))
    def test_writer_matches_former_writer(self, tmp_path_factory, log):
        root = tmp_path_factory.mktemp("w")
        write_prediction_log(log, root / "new.csv")
        oracles.write_prediction_log(log, root / "old.csv")
        assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()

    @settings(max_examples=400, deadline=None)
    # the former reader took a leading quote for CSV quoting, which the writer
    # never writes: quotes are left out of the population ids here
    @given(log=small_logs(max_models=3, max_examples=4, pid_excludes='"'), data=st.data())
    # a quoted integer that ends a CRLF line: two mutations, "nonint" on line
    # 1 ('"3"', drawn before its field, the last), then "crlf"
    @example(
        log=PredictionLog("p", CompressionSpec("none"), [0], [0], [[[0]]]),
        data=_Draws(2, "nonint", 1, '"3"', 7, "crlf", 1),
    )
    def test_mutations_match_former_reader(self, tmp_path_factory, log, data):
        path = tmp_path_factory.mktemp("fz") / "log.csv"
        write_prediction_log(log, path)
        lines = path.read_text().split("\n")
        for _ in range(data.draw(st.integers(1, 2))):
            lines = _mutate(data, lines)
        text = "\n".join(lines)
        path.write_bytes(text.encode())
        got = _outcome(read_prediction_log, path)
        if _newly_rejected(text):
            assert got[0] is ParseError and got[1].startswith("line "), got
        else:
            assert got == _outcome(oracles.read_prediction_log, path)

    @pytest.mark.parametrize("cell, message", [
        ("99999999999999999999", "64-bit range"),
        ("-9223372036854775809", "64-bit range"),
        ('"1"', "invalid literal"),
        ("1_0", "ASCII decimal integer"),
        ("١", "ASCII decimal integer"),
    ])
    def test_newly_rejected_cells_name_the_line(self, tmp_path, cell, message):
        rows = ["p,none,0.0,0,1,1,0,0", f"p,none,0.0,0,2,1,{cell},0"]
        path = tmp_path / "log.csv"
        path.write_text("\n".join([",".join(LOG_HEADER), *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 3: .*{message}"):
            read_prediction_log(path)

    def test_crlf_and_blank_lines(self, tmp_path):
        log = make_log([[0, 1], [1, 0]], [0, 1])
        path = tmp_path / "log.csv"
        write_prediction_log(log, path)
        lines = path.read_text().split("\n")
        path.write_bytes("\r\n".join(lines[:2] + ["", ""] + lines[2:]).encode())
        np.testing.assert_array_equal(read_prediction_log(path).predictions, log.predictions)


def _dataset_csv(path, rows, attrs=("a",), dim=2):
    header = ["example_id", "true_label", *(f"attr_{a}" for a in attrs), *(f"f{j}" for j in range(dim))]
    path.write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")
    path.with_suffix(".meta.json").write_text('{"num_classes": 3}')


class TestColumnarDatasetReader:
    @settings(max_examples=100, deadline=None)
    @given(feats=st.lists(st.floats(width=64), min_size=1, max_size=24))
    def test_floats_match_float_bit_for_bit(self, tmp_path_factory, feats):
        feats += [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, float("inf"), float("nan")]
        n = len(feats)
        ds = LabeledDataset.from_arrays(
            np.arange(n), np.arange(n) % 3, np.array(feats).reshape(n, 1), 3, ("a",),
            (np.arange(n) % 2 == 0)[:, np.newaxis],
        )
        path = tmp_path_factory.mktemp("ds") / "d.csv"
        write_dataset(ds, path)
        back, old = read_dataset(path), oracles.read_dataset(path)
        bits = back.feature_matrix.view(np.int64)
        np.testing.assert_array_equal(bits, old.feature_matrix.view(np.int64))
        finite = ~np.isnan(ds.feature_matrix)
        np.testing.assert_array_equal(bits[finite], ds.feature_matrix.view(np.int64)[finite])
        np.testing.assert_array_equal(back.attributes, ds.attributes)
        np.testing.assert_array_equal(back.example_ids, old.example_ids)

    @pytest.mark.parametrize("cell", ["yes", "01", "", " 1", "true", "1\x00"])
    def test_attribute_cells_are_0_or_1(self, tmp_path, cell):
        _dataset_csv(tmp_path / "d.csv", ["0,0,1,0.5,1.5", f"1,1,{cell},0.5,1.5"])
        with pytest.raises(ParseError, match="line 3: attribute cells must be 0 or 1"):
            read_dataset(tmp_path / "d.csv")

    @pytest.mark.parametrize("row, message", [
        ("99999999999999999999,1,0,0.5,1.5", "64-bit range"),
        ("1_0,1,0,0.5,1.5", "ASCII decimal integer"),
        ("1,1,0,0_5,1.5", "ASCII decimal number"),
    ])
    def test_newly_rejected_cells_name_the_line(self, tmp_path, row, message):
        _dataset_csv(tmp_path / "d.csv", ["0,0,1,0.5,1.5", row])
        with pytest.raises(ParseError, match=f"line 3: .*{message}"):
            read_dataset(tmp_path / "d.csv")

    @pytest.mark.parametrize("row", [
        "1,1,0,0.5", "1,1,0,0.5,1.5,2", "x,1,0,0.5,1.5", "1,1.0,0,0.5,1.5",
        "1,1,0,0.5,abc", "1,1,0,0.5,1.5\x1c", " ", "1,1,0,0.5,1.5\r\r",
    ])
    def test_bad_rows_report_as_before(self, tmp_path, row):
        _dataset_csv(tmp_path / "d.csv", ["0,0,1,0.5,1.5", row, "2,2,0,1,2"])
        with pytest.raises(ParseError) as new:
            read_dataset(tmp_path / "d.csv")
        if "\r" in row:  # a carriage return inside a line is newly rejected
            assert str(new.value) == "line 3: carriage return inside a line"
            return
        with pytest.raises(ParseError) as old:
            oracles.read_dataset(tmp_path / "d.csv")
        assert str(new.value) == str(old.value)

    def test_crlf_blank_lines_and_no_rows(self, tmp_path):
        _dataset_csv(tmp_path / "d.csv", ["0,0,1,0.5,1.5\r", "", "\r", "1,2,0,-1,2e3\r"])
        ds = read_dataset(tmp_path / "d.csv")
        np.testing.assert_array_equal(ds.feature_matrix, [[0.5, 1.5], [-1.0, 2000.0]])
        _dataset_csv(tmp_path / "e.csv", [])
        assert len(read_dataset(tmp_path / "e.csv")) == 0


# ---------------------------------------------------------------------------
# the table readers (datasets, class audits, PIE reports) under mutation
# ---------------------------------------------------------------------------

# cells that break the row grammar, and cells that keep it, by column kind
BAD_CELLS = {
    "int": ["x", "1.5", "", '"3"', "1_0", "٣", "3\x1c", "99999999999999999999"],
    "float": ["x", "", '"0.5"', "0_5", "١", "1e", "0x1p-2"],
    "flag": ["yes", "01", "", " 1", "true", "1\x00", '"1"', "2"],
}
GOOD_CELLS = {
    "int": ["0", "7", "-1", " 2", "+3"],
    "float": ["0.5", "-inf", "nan", "1e3", " 2"],
    "flag": ["0", "1"],
}
# each mutation of a data row that breaks the row grammar; the others keep it
ROW_FAULTS = ["drop", "add", "bad", "cr"]
KEEPS_GRAMMAR = ["dup", "blank", "crlf", "good"]


def _column_kind(name: str) -> str:
    """The kind of a column of a dataset, class-audit or PIE CSV, from its name."""
    if name in ("example_id", "true_label", "class", "modal_base", "modal_comp"):
        return "int"
    if name in ("significant", "is_pie") or name.startswith("attr_"):
        return "flag"
    return "float"


def _mutate_table(data, lines: list[str], kind: str) -> list[str]:
    """One mutation of a data row of a table CSV's lines (header first)."""
    rows = [i for i, line in enumerate(lines) if i and line.strip("\r")]
    if not rows:
        return lines
    i = data.draw(st.sampled_from(rows))
    fields, header = lines[i].split(","), lines[0].rstrip("\r").split(",")
    j = data.draw(st.integers(0, min(len(fields), len(header)) - 1))
    cell_kind = _column_kind(header[j])
    if kind == "drop":
        fields.pop(j)
    elif kind == "add":
        fields.insert(j, data.draw(st.sampled_from(["0", "1", "", "x"])))
    elif kind == "bad":
        fields[j] = data.draw(st.sampled_from(BAD_CELLS[cell_kind]))
    elif kind == "good":
        fields[j] = data.draw(st.sampled_from(GOOD_CELLS[cell_kind]))
    elif kind == "cr":  # a carriage return before one of the line's characters
        k = data.draw(st.integers(0, len(lines[i]) - 1))
        return lines[:i] + [lines[i][:k] + "\r" + lines[i][k:]] + lines[i + 1:]
    elif kind == "dup":
        return lines[:i] + [lines[i]] + lines[i:]
    elif kind == "blank":
        return lines[:i] + [data.draw(st.sampled_from(["", "\r"]))] + lines[i:]
    elif kind == "crlf":
        return [line if line.endswith("\r") or not line else line + "\r" for line in lines]
    elif kind == "truncate":
        text = "\n".join(lines)
        return text[: data.draw(st.integers(0, len(text)))].split("\n")
    lines[i] = ",".join(fields)
    return lines


def _fuzz_table(data, path, read) -> None:
    """Mutate a table CSV the toolkit wrote once or twice, then read it.

    A row fault, not undone by a later mutation, must be a ParseError naming
    its line; a file that keeps the row grammar must not be one. The reader
    raises no exception that is not a CompressLensError.
    """
    first = data.draw(st.sampled_from(ROW_FAULTS + KEEPS_GRAMMAR + ["truncate"]))
    kinds = [first] + data.draw(st.lists(st.sampled_from(KEEPS_GRAMMAR + ["truncate"]), max_size=1))
    lines = path.read_text().split("\n")
    for kind in kinds:
        lines = _mutate_table(data, lines, kind)
    path.write_bytes("\n".join(lines).encode())
    try:
        read(path)
        error = None
    except CompressLensError as exc:  # anything else fails the test
        error = exc
    if first in ROW_FAULTS and set(kinds[1:]) <= {"dup", "blank", "crlf"}:
        assert isinstance(error, ParseError) and str(error).startswith("line "), (kinds, error)
    elif first in KEEPS_GRAMMAR and "truncate" not in kinds:
        assert not isinstance(error, ParseError), (kinds, error)


# the floats a writer formats: any float64, and often -0.0, +-inf, nan, subnormals and 1e16
CELL_FLOATS = st.floats(width=64) | st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e16, -1e16]
)
# text a cell holds: no comma, no line break, no surrogate
TEXT_CELLS = st.text(st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
                     max_size=6)
# any text, surrogates included
ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)
NOT_IN_CELL = re.compile("[,\r\n\ud800-\udfff]")


@st.composite
def small_datasets(draw, min_rows=1, names=st.lists(st.sampled_from("abc"), max_size=2, unique=True),
                   floats=st.floats(width=64)):
    n, d, C = draw(st.integers(min_rows, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    names = draw(names)
    return LabeledDataset.from_arrays(
        draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n, unique=True)),
        draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)),
        np.reshape(draw(st.lists(floats, min_size=n * d, max_size=n * d)), (n, d)),
        C,
        names,
        np.reshape(draw(st.lists(st.booleans(), min_size=n * len(names), max_size=n * len(names))),
                   (n, len(names))),
    )


@st.composite
def audit_rows(draw, min_rows=1, floats=st.floats(width=64)):
    n = draw(st.integers(min_rows, 5))
    return [
        ClassAuditRow(c, *draw(st.lists(floats, min_size=6, max_size=6)),
                      draw(st.booleans()))
        for c in draw(st.permutations(range(n)))
    ]


@st.composite
def pie_reports(draw, min_rows=1):
    n = draw(st.integers(min_rows, 5))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n, unique=True))
    base, comp, truth = (
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(3)
    )
    return PIESet(np.array(ids), np.array(base), np.array(comp)), truth


class TestTableReaders:
    """Datasets, class audits and PIE reports are read by one table reader."""

    @settings(max_examples=100, deadline=None)
    @given(rows=audit_rows())
    def test_audit_roundtrip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("a") / "audit.csv"
        write_audit_csv(rows, path)
        back = read_audit_csv(path)
        np.testing.assert_array_equal(back["class"], [r.class_id for r in rows])
        np.testing.assert_array_equal(back["significant"], [r.significant for r in rows])
        for name in ("mean_recall_base", "mean_recall_comp", "norm_recall_diff",
                     "t_stat", "df", "p_value"):
            want = [float(f"{getattr(r, name):.6f}") for r in rows]
            np.testing.assert_array_equal(back[name], want)

    @settings(max_examples=100, deadline=None)
    @given(report=pie_reports())
    def test_pie_roundtrip(self, tmp_path_factory, report):
        pies, truth = report
        path = tmp_path_factory.mktemp("p") / "pie.csv"
        write_pie_report(pies, truth, path)
        back = read_pie_report(path)
        np.testing.assert_array_equal(back["example_id"], pies.example_ids)
        np.testing.assert_array_equal(back["true_label"], truth)
        np.testing.assert_array_equal(back["modal_base"], pies.modal_base)
        np.testing.assert_array_equal(back["modal_comp"], pies.modal_comp)
        np.testing.assert_array_equal(back["is_pie"], np.isin(pies.example_ids, pies.pie_ids))

    @settings(max_examples=300, deadline=None)
    @given(dataset=small_datasets(), data=st.data())
    def test_dataset_mutations(self, tmp_path_factory, dataset, data):
        path = tmp_path_factory.mktemp("d") / "d.csv"
        write_dataset(dataset, path)
        _fuzz_table(data, path, read_dataset)

    @settings(max_examples=300, deadline=None)
    @given(rows=audit_rows(), data=st.data())
    def test_audit_mutations(self, tmp_path_factory, rows, data):
        path = tmp_path_factory.mktemp("a") / "audit.csv"
        write_audit_csv(rows, path)
        _fuzz_table(data, path, read_audit_csv)

    @settings(max_examples=300, deadline=None)
    @given(report=pie_reports(), data=st.data())
    def test_pie_mutations(self, tmp_path_factory, report, data):
        path = tmp_path_factory.mktemp("p") / "pie.csv"
        write_pie_report(*report, path)
        _fuzz_table(data, path, read_pie_report)

    @pytest.mark.parametrize("read, text", [
        (read_audit_csv, "class,x\n"),
        (read_pie_report, "example_id,true_label,modal_base,modal_comp\n"),
    ])
    def test_other_header_is_a_schema_error(self, tmp_path, read, text):
        (tmp_path / "t.csv").write_text(text)
        with pytest.raises(SchemaError, match="unexpected .* header"):
            read(tmp_path / "t.csv")

    @pytest.mark.parametrize("read", [read_prediction_log, read_dataset, read_audit_csv,
                                      read_pie_report])
    @pytest.mark.parametrize("fault, error, message", [
        # a byte that starts no UTF-8 sequence, at the start of the first row
        (lambda lines: [lines[0], b"\xff" + lines[1], *lines[2:]], ParseError,
         r"^line 2: not UTF-8 text \(invalid start byte\)$"),
        # a carriage return inside the header's first cell, which csv refuses
        (lambda lines: [lines[0].replace(b"_", b"\r", 1), *lines[1:]], SchemaError,
         r"t\.csv: unreadable header \(new-line character seen in unquoted field"),
    ], ids=["not UTF-8", "unreadable header"])
    def test_undecodable_file_is_refused(self, tmp_path, read, fault, error, message):
        path = tmp_path / "t.csv"
        if read is read_prediction_log:
            write_prediction_log(make_log([[0, 1]], [0, 1]), path)
        elif read is read_dataset:
            _dataset_csv(path, ["0,0,1,0.5,1.5"])
        elif read is read_audit_csv:
            write_audit_csv([ClassAuditRow(0, 0.5, 0.5, 0.0, 0.0, 2.0, 1.0, False)], path)
        else:
            write_pie_report(PIESet(np.array([0]), np.zeros(1, int), np.ones(1, int)),
                             np.zeros(1, int), path)
        path.write_bytes(b"\n".join(fault(path.read_bytes().split(b"\n"))))
        with pytest.raises(error, match=message):
            read(path)

    def test_trailing_carriage_return_names_the_line(self, tmp_path):
        """np.loadtxt takes a carriage return that ends the file for a line end."""
        log = make_log([[0, 1], [1, 0]], [0, 1])
        write_prediction_log(log, tmp_path / "log.csv")
        text = (tmp_path / "log.csv").read_text()
        (tmp_path / "log.csv").write_text(text.rstrip("\n") + "\r")
        with pytest.raises(ParseError, match="line 5: carriage return inside a line"):
            read_prediction_log(tmp_path / "log.csv")
        _dataset_csv(tmp_path / "d.csv", ["0,0,1,0.5,1.5"])
        (tmp_path / "d.csv").write_text((tmp_path / "d.csv").read_text().rstrip("\n") + "\r")
        with pytest.raises(ParseError, match="line 2: carriage return inside a line"):
            read_dataset(tmp_path / "d.csv")


def _same_bytes(root, paths) -> None:
    for path in paths:
        assert (root / "new" / path).read_bytes() == (root / "old" / path).read_bytes(), path


class TestTableWriters:
    """Each `write_table` writer against its former per-row writer, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(dataset=small_datasets(
        min_rows=0, names=st.lists(TEXT_CELLS, max_size=2, unique=True), floats=CELL_FLOATS
    ))
    def test_dataset(self, tmp_path_factory, dataset):
        root = tmp_path_factory.mktemp("w")
        write_dataset(dataset, root / "new" / "d.csv")
        oracles.write_dataset(dataset, root / "old" / "d.csv")
        _same_bytes(root, ["d.csv", "d.meta.json"])

    def test_dataset_of_several_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 2345
        ds = LabeledDataset.from_arrays(
            rng.permutation(10**6)[:n], rng.integers(0, 3, n), rng.normal(size=(n, 3)), 3,
            ("a", "b"), rng.random((n, 2)) < 0.5, layout=(1, 3),
        )
        write_dataset(ds, tmp_path / "new" / "d.csv")
        oracles.write_dataset(ds, tmp_path / "old" / "d.csv")
        _same_bytes(tmp_path, ["d.csv", "d.meta.json"])

    def test_log_of_several_blocks(self, tmp_path):
        """Each model's rows span several blocks, the last one short."""
        rng = np.random.default_rng(6)
        K, topk, C = 2, 3, 7
        n = 2 * TABLE_BLOCK_CELLS // (5 * topk) + 10
        log = make_log(np.argsort(rng.random((K, n, C)), axis=2)[:, :, :topk],
                       rng.integers(0, C, n), ids=rng.permutation(10**6)[:n],
                       spec=CompressionSpec("magnitude_prune", 0.9))
        write_prediction_log(log, tmp_path / "new" / "log.csv")
        oracles.write_prediction_log(log, tmp_path / "old" / "log.csv")
        _same_bytes(tmp_path, ["log.csv"])

    @pytest.mark.parametrize("n", [0, 3])
    def test_log_with_percent_signs(self, tmp_path, n):
        """A `%` of the population id is part of the row format: it must stay a character."""
        log = PredictionLog("p%s%%d", CompressionSpec("magnitude_prune", 5e-324), np.arange(n),
                            np.zeros(n, int), np.zeros((2, n, 1), int), explicit_num_classes=1)
        write_prediction_log(log, tmp_path / "new" / "log.csv")
        oracles.write_prediction_log(log, tmp_path / "old" / "log.csv")
        _same_bytes(tmp_path, ["log.csv"])

    @settings(max_examples=100, deadline=None)
    @given(report=pie_reports(min_rows=0))
    def test_pie_report(self, tmp_path_factory, report):
        root = tmp_path_factory.mktemp("w")
        write_pie_report(*report, root / "new" / "pie.csv")
        oracles.write_pie_report(*report, root / "old" / "pie.csv")
        _same_bytes(root, ["pie.csv"])

    @settings(max_examples=100, deadline=None)
    @given(shares=st.dictionaries(TEXT_CELLS, st.tuples(CELL_FLOATS, CELL_FLOATS, CELL_FLOATS),
                                  max_size=4))
    def test_attribute_report(self, tmp_path_factory, shares):
        root = tmp_path_factory.mktemp("w")
        write_attribute_report(shares, root / "new" / "attr.csv")
        oracles.write_attribute_report(shares, root / "old" / "attr.csv")
        _same_bytes(root, ["attr.csv"])

    @settings(max_examples=100, deadline=None)
    @given(rows=audit_rows(min_rows=0, floats=CELL_FLOATS))
    def test_audit_csv_and_chart(self, tmp_path_factory, rows):
        root = tmp_path_factory.mktemp("w")
        write_audit_csv(rows, root / "new" / "audit.csv")
        oracles.write_audit_csv(rows, root / "old" / "audit.csv")
        doc = write_report(root / "new" / "audit.csv", root / "new", chart=True)
        oracles.write_chart(doc["rows"], root / "old" / "chart.csv")
        _same_bytes(root, ["audit.csv", "chart.csv"])

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.builds(RobustnessRow, TEXT_CELLS, *[CELL_FLOATS] * 5), max_size=4))
    def test_robustness_report(self, tmp_path_factory, rows):
        root = tmp_path_factory.mktemp("w")
        write_robustness_report(rows, root / "new" / "rob.csv")
        oracles.write_robustness_report(rows, root / "old" / "rob.csv")
        _same_bytes(root, ["rob.csv"])


class TestStreamingWrites:
    """`write_table` formats and writes one block at a time, through a renamed temporary file."""

    def test_log_write_holds_one_block(self, tmp_path):
        rng = np.random.default_rng(3)
        K, N, topk, C = 10, 6000, 3, 10
        log = make_log(np.argsort(rng.random((K, N, C)), axis=2)[:, :, :topk],
                       rng.integers(0, C, N), population_id="baseline")
        tracemalloc.start()
        try:
            write_prediction_log(log, tmp_path / "log.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.predictions.size == 180_000
        assert (tmp_path / "log.csv").stat().st_size > 5 * 2**20
        assert peak < 1.5 * 2**20  # blocks of TABLE_BLOCK_CELLS cells, not of one model's rows

    def test_log_write_is_not_sized_by_the_class_count(self, tmp_path):
        """A class count far above a few labels that skip values builds no per-class table."""
        rng = np.random.default_rng(4)
        K, N, topk = 10, 6000, 3
        labels = np.array([0, 7, 2**20, 2**39 + 5, 2**40 - 1])
        preds = labels[np.argsort(rng.random((K, N, labels.size)), axis=2)[:, :, :topk]]
        log = PredictionLog("baseline", CompressionSpec("none"), np.arange(N),
                            labels[rng.integers(0, labels.size, N)], preds,
                            explicit_num_classes=2**40)
        tracemalloc.start()
        try:
            write_prediction_log(log, tmp_path / "log.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        oracles.write_prediction_log(log, tmp_path / "old.csv")
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("old", [b"a\n1\n", None])
    def test_failing_block_leaves_the_target_alone(self, tmp_path, old):
        path = tmp_path / "t.csv"
        if old is not None:
            path.write_bytes(old)

        def blocks():
            yield [1, 2]
            raise RuntimeError("no more rows")

        with pytest.raises(RuntimeError, match="no more rows"):
            write_table(path, ["a"], "%d", blocks())
        assert (path.read_bytes() if path.exists() else None) == old
        assert list(tmp_path.glob("*.tmp")) == []


class TestTextCells:
    """A text cell the constructors accept is one the readers give back as it was."""

    @pytest.mark.parametrize("text", ["a,b", "a\rb", "a\nb", "\ud800"])
    def test_population_id_rejected(self, text):
        with pytest.raises(ConfigError, match="population_id must be UTF-8 text"):
            make_log([[0, 1]], [0, 1], population_id=text)

    @pytest.mark.parametrize("text", ["x,y", "x\ry", "x\ny", "\udfff"])
    def test_attribute_name_rejected(self, text):
        with pytest.raises(ConfigError, match="an attribute name must be UTF-8 text"):
            LabeledDataset.from_arrays([0], [0], [[0.5]], 1, (text,), [[True]])

    @settings(max_examples=150, deadline=None)
    @given(log=small_logs(), pid=ANY_TEXT)
    def test_any_accepted_log_reads_back(self, tmp_path_factory, log, pid):
        try:
            log = dataclasses.replace(log, population_id=pid)
        except ConfigError:
            assert NOT_IN_CELL.search(pid)
            return
        path = tmp_path_factory.mktemp("rt") / "log.csv"
        write_prediction_log(log, path)
        assert _outcome(read_prediction_log, path) == _outcome(lambda _: log, path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_accepted_dataset_reads_back(self, tmp_path_factory, data):
        names = data.draw(st.lists(ANY_TEXT, max_size=2, unique=True))
        try:
            ds = data.draw(small_datasets(min_rows=0, names=st.just(names), floats=CELL_FLOATS))
        except ConfigError:
            assert any(NOT_IN_CELL.search(name) for name in names)
            return
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert (back.num_classes, back.attribute_names, back.layout) == (
            ds.num_classes, ds.attribute_names, ds.layout
        )
        for name in ("example_ids", "labels", "attributes", "feature_matrix"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
        assert (np.signbit(back.feature_matrix) == np.signbit(ds.feature_matrix))[
            ~np.isnan(ds.feature_matrix)
        ].all()


# ---------------------------------------------------------------------------
# the readers keep what they parsed, by content
# ---------------------------------------------------------------------------

class TestParsedReuse:
    @pytest.fixture(autouse=True)
    def parses(self, monkeypatch):
        """A table of parsed files that starts empty; the list counts each parse."""
        monkeypatch.setattr(data_model, "_parsed", OrderedDict())
        counted, parse_rows = [], data_model._parse_rows

        def counting(*args, **kwargs):
            counted.append(1)
            return parse_rows(*args, **kwargs)

        monkeypatch.setattr(data_model, "_parse_rows", counting)
        return counted

    @staticmethod
    def no_parse(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("bytes already parsed were parsed again")

        monkeypatch.setattr(data_model, "_parse_rows", fail)

    @staticmethod
    def write_log(path, population_id="pop"):
        write_prediction_log(make_log([[0, 1], [1, 0]], [0, 1], population_id=population_id), path)

    @staticmethod
    def write_split(path, meta='{"num_classes": 3}'):
        _dataset_csv(path, ["0,0,1,0.5,1.5", "1,2,0,-1,2"])
        path.with_suffix(".meta.json").write_text(meta)

    def test_same_log_bytes_give_the_same_object(self, tmp_path, monkeypatch):
        self.write_log(tmp_path / "a.csv")
        first = read_prediction_log(tmp_path / "a.csv")
        shutil.copyfile(tmp_path / "a.csv", tmp_path / "copy.csv")
        self.no_parse(monkeypatch)
        assert read_prediction_log(tmp_path / "a.csv") is first
        assert read_prediction_log(tmp_path / "copy.csv") is first

    def test_same_split_bytes_give_the_same_object(self, tmp_path, monkeypatch):
        self.write_split(tmp_path / "a.csv")
        first = read_dataset(tmp_path / "a.csv")
        (tmp_path / "b").mkdir()
        self.write_split(tmp_path / "b" / "a.csv")
        self.no_parse(monkeypatch)
        assert read_dataset(tmp_path / "a.csv") is first
        assert read_dataset(tmp_path / "b" / "a.csv") is first

    def test_one_changed_byte_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "a.csv"
        self.write_log(path)
        first = read_prediction_log(path)
        data = path.read_bytes()
        at = data.rindex(b",0,1\n")  # the last row's prediction, 0 -> 1
        path.write_bytes(data[:at] + b",1,1\n" + data[at + 5:])
        again = read_prediction_log(path)
        assert len(parses) == 2 and again is not first
        assert again.predictions[-1, -1, 0] == 1 and first.predictions[-1, -1, 0] == 0

    def test_same_size_rewrite_at_the_same_mtime_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "a.csv"
        self.write_log(path, "pop")
        first = read_prediction_log(path)
        stat = path.stat()
        self.write_log(path, "top")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        assert read_prediction_log(path).population_id == "top"
        assert first.population_id == "pop" and len(parses) == 2

    def test_a_failed_read_keeps_nothing(self, tmp_path, parses):
        path = tmp_path / "a.csv"
        self.write_log(path)
        good = path.read_bytes()
        path.write_bytes(good.replace(b",1,", b",0,", 1))  # the first row's rank 1 -> 0
        for _ in range(2):
            with pytest.raises(ParseError, match="line 2: ranks are 1-based, got 0"):
                read_prediction_log(path)
        assert len(parses) == 2 and not data_model._parsed
        path.write_bytes(good)
        assert read_prediction_log(path).num_models == 2

    def test_a_bad_file_names_its_own_path_each_time(self, tmp_path):
        self.write_log(tmp_path / "good.csv")
        bad = (tmp_path / "good.csv").read_bytes().replace(b"population_id", b"population", 1)
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_bytes(bad)
        for name in ("a.csv", "b.csv", "a.csv", "b.csv"):
            with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / name}:")):
                read_prediction_log(tmp_path / name)
        assert not data_model._parsed

    @pytest.mark.parametrize("read, write", [
        (read_prediction_log, write_log),
        (read_dataset, write_split),
        (read_audit_csv, lambda path: write_audit_csv(
            [ClassAuditRow(0, 0.5, 0.5, 0.0, 0.0, 2.0, 1.0, False)], path)),
    ], ids=["log", "dataset", "table"])
    @pytest.mark.parametrize("fault", [b"\xff", b"x"], ids=["not UTF-8", "bad cell"])
    def test_a_parse_error_names_its_own_path_each_time(self, tmp_path, read, write, fault):
        """Two copies of one bad file: each read names the copy it read; the
        message and the line stay the parse's."""
        for name in ("a.csv", "b.csv"):
            write(tmp_path / name)
            data = (tmp_path / name).read_bytes()
            end = data.index(b"\n", data.index(b"\n") + 1)  # the end of line 2
            (tmp_path / name).write_bytes(data[:end] + fault + data[end:])
        for name in ("a.csv", "b.csv", "a.csv", "b.csv"):
            with pytest.raises(ParseError, match="^line 2: ") as err:
                read(tmp_path / name)
            assert (err.value.path, err.value.line) == (tmp_path / name, 2)
        assert not data_model._parsed

    def test_a_kept_split_under_a_bad_sidecar_fails(self, tmp_path):
        self.write_split(tmp_path / "a.csv")
        read_dataset(tmp_path / "a.csv")
        (tmp_path / "b").mkdir()
        for _ in range(2):
            self.write_split(tmp_path / "b" / "a.csv", '{"num_classes": 2}')
            with pytest.raises(ConfigError, match="example 1: label 2 outside"):
                read_dataset(tmp_path / "b" / "a.csv")
            self.write_split(tmp_path / "b" / "a.csv", '{"num_classes": 0}')
            with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / 'b' / 'a.meta.json'}:")):
                read_dataset(tmp_path / "b" / "a.csv")

    def test_a_split_under_another_sidecar_is_another_dataset(self, tmp_path, parses):
        self.write_split(tmp_path / "a.csv")
        plain = read_dataset(tmp_path / "a.csv")
        outcomes = {}
        for meta in ('{"num_classes": 4}', '{"num_classes": 3, "height": 1, "width": 2}'):
            self.write_split(tmp_path / "a.csv", meta)
            outcomes[meta] = read_dataset(tmp_path / "a.csv")
        four, laid_out = outcomes.values()
        assert (plain.num_classes, plain.layout) == (3, None)
        assert (four.num_classes, four.layout) == (4, None)
        assert (laid_out.num_classes, laid_out.layout) == (3, (1, 2))
        assert len(parses) == 3 and len({id(plain), id(four), id(laid_out)}) == 3

    def test_least_recently_used_goes_first_past_the_cap(self, tmp_path, monkeypatch, parses):
        for name in "abc":
            self.write_log(tmp_path / f"{name}.csv", name)
        size = lambda log: log.example_ids.nbytes + log.truth.nbytes + log.predictions.nbytes
        monkeypatch.setattr(data_model, "_PARSED_CAP_BYTES", 2 * size(read_prediction_log(tmp_path / "a.csv")))
        read_prediction_log(tmp_path / "b.csv")
        read_prediction_log(tmp_path / "a.csv")  # a hit: now b is the least recently used
        read_prediction_log(tmp_path / "c.csv")
        assert len(parses) == 3
        kept = [log.population_id for log, _ in data_model._parsed.values()]
        assert kept == ["a", "c"]
        assert sum(size for _, size in data_model._parsed.values()) <= data_model._PARSED_CAP_BYTES
        read_prediction_log(tmp_path / "b.csv")
        assert len(parses) == 4

    def test_a_result_above_the_cap_is_not_kept(self, tmp_path, monkeypatch, parses):
        self.write_log(tmp_path / "a.csv")
        monkeypatch.setattr(data_model, "_PARSED_CAP_BYTES", 8)
        first = read_prediction_log(tmp_path / "a.csv")
        assert read_prediction_log(tmp_path / "a.csv") is not first
        assert len(parses) == 2 and not data_model._parsed

    def test_threads_reading_at_once(self, tmp_path):
        paths = []
        for name in "abc":
            self.write_log(tmp_path / f"{name}.csv", name)
            paths.append(tmp_path / f"{name}.csv")
        results, errors = [], []

        def read_all():
            try:
                for _ in range(20):
                    results.extend((p.stem, read_prediction_log(p)) for p in paths)
            except Exception as exc:  # recorded, and the test fails on it below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 8 * 20 * 3
        for stem, log in results:
            assert log.population_id == stem
            np.testing.assert_array_equal(log.predictions, [[[0], [1]], [[1], [0]]])
        assert len(data_model._parsed) == 3
