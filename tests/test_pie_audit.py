"""Tests for PIE detection, subset accuracy, and attribute representation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compresslens.data_model import (
    CompressionSpec,
    ExampleRecord,
    LabeledDataset,
    PredictionLog,
)
from compresslens.errors import EmptyPIESet, ExampleSetMismatch
from compresslens.pie_audit import (
    attribute_relative_representation,
    attribute_shares,
    identify_pies,
    modal_labels,
    subset_accuracy,
    write_pie_report,
)

from oracles import pie_brute_force, vote_counts


def rank1_log(preds, truth, ids=None, population_id="p"):
    preds = np.asarray(preds, dtype=np.int64)[:, :, np.newaxis]
    n = preds.shape[1]
    return PredictionLog(
        population_id=population_id,
        compression=CompressionSpec("none"),
        example_ids=np.arange(n) if ids is None else np.asarray(ids),
        truth=np.asarray(truth, dtype=np.int64),
        predictions=preds,
    )


def modal_of(*votes):
    """Modal label of each example, given each example's rank-1 votes (one per model)."""
    log = rank1_log(np.asarray(votes).T, np.zeros(len(votes)))
    return modal_labels(log).tolist()


class TestModalLabel:
    def test_unanimous(self):
        assert modal_of([3, 3, 3, 3]) == [3]

    def test_majority(self):
        assert modal_of([1, 1, 2]) == [1]

    def test_tie_goes_to_lowest(self):
        assert modal_of([1, 2], [2, 1]) == [1, 1]
        assert modal_of([4, 2, 4, 2]) == [2]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_vote_histogram(self, data):
        """The former (N, C) histogram's argmax, with C below and above N."""
        K, N = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 12))
        C = data.draw(st.integers(1, 2 * N + 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a few labels drawn from all C, so that ties are common
        labels = rng.choice(C, data.draw(st.integers(1, min(C, 4))), replace=False)
        preds = labels[rng.integers(0, len(labels), (K, N))]
        log = PredictionLog("p", CompressionSpec("none"), np.arange(N), np.zeros(N, int),
                            preds[:, :, np.newaxis], explicit_num_classes=C)
        got = modal_labels(log)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, vote_counts(log).argmax(axis=1))

    def test_memory_does_not_scale_with_labels(self):
        """Two examples, a label of 10**7: the histogram held 152.6 MiB."""
        log = rank1_log([[10**7, 0], [3, 0], [10**7, 1]], [0, 0])
        tracemalloc.start()
        try:
            pies = identify_pies(log, rank1_log([[0, 0]], [0, 0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        np.testing.assert_array_equal(pies.modal_base, [10**7, 0])


class TestIdentifyPies:
    def test_self_comparison_empty(self):
        log = rank1_log([[0, 1, 2], [0, 1, 1]], [0, 1, 2])
        assert identify_pies(log, log).pie_ids == ()

    def test_definition(self):
        base = rank1_log([[3, 0]], [0, 0], ids=[7, 8])
        comp = rank1_log([[5, 0]], [0, 0], ids=[7, 8])
        pies = identify_pies(base, comp)
        assert pies.pie_ids == (7,)
        np.testing.assert_array_equal(pies.example_ids, [7, 8])
        np.testing.assert_array_equal(pies.modal_base, [3, 0])
        np.testing.assert_array_equal(pies.modal_comp, [5, 0])
        np.testing.assert_array_equal(vote_counts(base), [[0, 0, 0, 1], [1, 0, 0, 0]])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rank1_log(rng.integers(0, 4, (5, 30)), rng.integers(0, 4, 30))
        b = rank1_log(rng.integers(0, 4, (5, 30)), a.truth)
        assert identify_pies(a, b).pie_ids == identify_pies(b, a).pie_ids

    def test_never_reads_truth(self):
        rng = np.random.default_rng(1)
        preds_a = rng.integers(0, 3, (4, 20))
        preds_b = rng.integers(0, 3, (4, 20))
        truth = rng.integers(0, 3, 20)
        scrambled = rng.permutation(truth)
        first = identify_pies(rank1_log(preds_a, truth), rank1_log(preds_b, truth))
        second = identify_pies(
            rank1_log(preds_a, scrambled), rank1_log(preds_b, scrambled)
        )
        assert first.pie_ids == second.pie_ids

    def test_model_order_invariance(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 4, (6, 25))
        truth = rng.integers(0, 4, 25)
        base = rank1_log(preds, truth)
        shuffled = rank1_log(preds[::-1].copy(), truth)
        comp = rank1_log(rng.integers(0, 4, (6, 25)), truth)
        assert identify_pies(base, comp).pie_ids == identify_pies(shuffled, comp).pie_ids

    def test_example_set_mismatch(self):
        a = rank1_log([[0, 1]], [0, 1], ids=[0, 1])
        b = rank1_log([[0, 1]], [0, 1], ids=[0, 2])
        with pytest.raises(ExampleSetMismatch):
            identify_pies(a, b)

    def test_true_label_mismatch(self):
        """Logs of the same ids that disagree on one true label are not of one split."""
        a = rank1_log([[0, 1, 2]], [0, 1, 2])
        b = rank1_log([[0, 1, 2]], [0, 1, 0])
        with pytest.raises(ExampleSetMismatch, match="logs disagree on true labels"):
            identify_pies(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        C = data.draw(st.integers(2, 5))
        N = data.draw(st.integers(1, 50))
        K = data.draw(st.integers(1, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base_preds = rng.integers(0, C, (K, N))
        comp_preds = rng.integers(0, C, (K, N))
        truth = rng.integers(0, C, N)
        base = rank1_log(base_preds, truth)
        comp = rank1_log(comp_preds, truth)
        expected = pie_brute_force(
            {i: base_preds[:, i].tolist() for i in range(N)},
            {i: comp_preds[:, i].tolist() for i in range(N)},
        )
        assert list(identify_pies(base, comp).pie_ids) == expected


class TestSubsetAccuracy:
    def test_empty_pie_set(self):
        log = rank1_log([[0, 1, 1]], [0, 1, 2])
        pies = identify_pies(log, log)
        acc_pie, acc_non, acc_all = subset_accuracy(log, pies, 1)
        assert acc_pie is None
        assert acc_non == acc_all == pytest.approx(2 / 3)

    def test_weighted_recombination(self):
        rng = np.random.default_rng(3)
        N, K, C = 40, 5, 4
        truth = rng.integers(0, C, N)
        base = rank1_log(rng.integers(0, C, (K, N)), truth)
        comp = rank1_log(rng.integers(0, C, (K, N)), truth)
        pies = identify_pies(base, comp)
        acc_pie, acc_non, acc_all = subset_accuracy(base, pies, 1)
        n_pie = len(pies.pie_ids)
        n_non = N - n_pie
        assert n_pie > 0 and n_non > 0
        assert n_pie * acc_pie + n_non * acc_non == pytest.approx(N * acc_all, abs=1e-9)

    def test_subset_must_be_contained(self):
        log = rank1_log([[0, 1]], [0, 1], ids=[0, 1])
        other = rank1_log([[1, 0]], [0, 1], ids=[0, 1])
        pies = identify_pies(log, other)
        eval_log = rank1_log([[0]], [0], ids=[5])
        if pies.pie_ids:
            with pytest.raises(ExampleSetMismatch):
                subset_accuracy(eval_log, pies, 1)

    @pytest.mark.parametrize("ids", [[0, 1, 2], [1], [0, 2]], ids=["superset", "subset", "other"])
    def test_eval_log_must_cover_exactly_the_pie_set(self, ids):
        """A log holding every PIE and more examples is refused too, not scored on a subset."""
        pies = identify_pies(rank1_log([[0, 1]], [0, 1]), rank1_log([[1, 1]], [0, 1]))
        assert pies.pie_ids == (0,)
        eval_log = rank1_log([[0] * len(ids)], [0] * len(ids), ids=ids)
        with pytest.raises(ExampleSetMismatch, match="do not match the 2 of the PIE set"):
            subset_accuracy(eval_log, pies, 1)


def attr_dataset(flags_per_example, num_classes=2):
    examples = tuple(
        ExampleRecord(
            example_id=i,
            features=np.zeros(2),
            true_label=i % num_classes,
            attributes=frozenset(flags),
        )
        for i, flags in enumerate(flags_per_example)
    )
    return LabeledDataset(examples=examples, num_classes=num_classes)


def pies_with_ids(ids, all_ids):
    base = rank1_log([[0] * len(all_ids)], [0] * len(all_ids), ids=all_ids)
    comp_preds = [[1 if i in ids else 0 for i in all_ids]]
    comp = rank1_log(comp_preds, [0] * len(all_ids), ids=all_ids)
    return identify_pies(base, comp)


class TestIsPie:
    def test_flags_follow_the_given_order(self):
        pies = pies_with_ids({3, 8}, [1, 3, 5, 8])
        np.testing.assert_array_equal(pies.is_pie([8, 1, 5, 3]), [True, False, False, True])
        np.testing.assert_array_equal(pies.is_pie(np.array([1, 3, 5, 8])), [0, 1, 0, 1])

    @pytest.mark.parametrize("ids", [
        [1, 3, 5], [1, 3, 5, 8, 9], [1, 3, 5, 9], [1, 3, 3, 5, 8], [8, 5, 3, 1, 1], [],
    ])
    def test_anything_but_the_set_is_a_mismatch(self, ids):
        with pytest.raises(ExampleSetMismatch):
            pies_with_ids({3, 8}, [1, 3, 5, 8]).is_pie(ids)


class TestAttributeRepresentation:
    def test_matching_composition_is_one(self):
        ds = attr_dataset([["a"], [], ["a"], []])
        pies = pies_with_ids({0, 1}, [0, 1, 2, 3])  # 50% "a" in PIEs and overall
        ratios = attribute_relative_representation(pies, ds)
        assert ratios["a"] == pytest.approx(1.0)

    def test_enrichment_ratio(self):
        # attribute in 10% of dataset, 30% of PIEs -> 3.0
        flags = [["x"] if i < 2 else [] for i in range(20)]
        ds = attr_dataset(flags)
        pies = pies_with_ids({0, 1, 3, 5, 7, 9, 11, 13, 15, 17}, list(range(20)))
        # PIE ids include both x-examples (ids 0,1) among 10 pies -> share 0.2 vs 0.1
        ratios = attribute_relative_representation(pies, ds)
        assert ratios["x"] == pytest.approx(2.0)

    def test_absent_attribute_omitted(self):
        ds = attr_dataset([["a"], []])
        object.__setattr__(
            ds, "examples", ds.examples
        )  # no-op, dataset already built
        pies = pies_with_ids({0}, [0, 1])
        ratios = attribute_relative_representation(pies, ds)
        assert "zero_share" not in ratios

    def test_empty_pie_set_raises(self):
        ds = attr_dataset([["a"], []])
        log = rank1_log([[0, 0]], [0, 1])
        with pytest.raises(EmptyPIESet):
            attribute_relative_representation(identify_pies(log, log), ds)

    @pytest.mark.parametrize("flags", [
        [["a"], [], ["a"]],  # examples 0-2: a superset
        [["a"]],  # example 0: a subset
    ])
    def test_dataset_must_hold_exactly_the_pie_set(self, flags):
        pies = pies_with_ids({0}, [0, 1])
        with pytest.raises(ExampleSetMismatch):
            attribute_shares(pies, attr_dataset(flags))

    def test_dataset_row_order_does_not_matter(self):
        ds = attr_dataset([["x"] if i % 3 == 0 else [] for i in range(9)])
        reverse = slice(None, None, -1)
        backwards = LabeledDataset.from_arrays(
            ds.example_ids[reverse], ds.labels[reverse], ds.feature_matrix[reverse],
            ds.num_classes, ds.attribute_names, ds.attributes[reverse],
        )
        pies = pies_with_ids({0, 1, 4}, list(range(9)))
        assert attribute_shares(pies, backwards) == attribute_shares(pies, ds)
        assert attribute_shares(pies, ds)["x"] == (1 / 3, 1 / 3, 1.0)


class TestPieReport:
    def test_csv_shape(self, tmp_path):
        base = rank1_log([[3, 0]], [0, 0], ids=[7, 8])
        comp = rank1_log([[5, 0]], [0, 0], ids=[7, 8])
        pies = identify_pies(base, comp)
        path = tmp_path / "pie.csv"
        write_pie_report(pies, base.truth, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "example_id,true_label,modal_base,modal_comp,is_pie"
        assert lines[1] == "7,0,3,5,1"
        assert lines[2] == "8,0,0,0,0"
