"""Tests for the synthetic long-tail generator."""

import numpy as np
import pytest

from compresslens.data_model import check_class_support, read_dataset
from compresslens.errors import ConfigError
from compresslens.synth import SynthLongTailSpec, generate, synthesize, zipf_allocate

from oracles import reference_synthesize


class TestZipfAllocate:
    def test_balanced_counts_equal_within_one(self):
        counts = zipf_allocate(1000, 7, 0.0)
        assert sum(counts) == 1000
        assert max(counts) - min(counts) <= 1

    def test_harmonic_allocation(self):
        # ideal counts 1100 * (1/c)/H_10; largest-remainder rounding
        counts = zipf_allocate(1100, 10, 1.0)
        weights = [1.0 / (c + 1) for c in range(10)]
        total_w = sum(weights)
        ideal = [1100 * w / total_w for w in weights]
        floors = [int(np.floor(x)) for x in ideal]
        remainder = 1100 - sum(floors)
        order = sorted(range(10), key=lambda c: (-(ideal[c] - floors[c]), c))
        for c in order[:remainder]:
            floors[c] += 1
        assert counts == floors
        assert sum(counts) == 1100

    def test_every_class_gets_one(self):
        counts = zipf_allocate(12, 10, 3.0)
        assert all(c >= 1 for c in counts)
        assert sum(counts) == 12


class TestSynthesize:
    def test_shapes_and_flags(self):
        spec = SynthLongTailSpec(train_count=600, test_count=300, seed=5)
        train, test = synthesize(spec)
        assert len(train) == 600
        assert len(test) == 300
        assert train.num_classes == 10
        assert train.dim == 16
        assert set(train.attribute_names) == {"atypical", "minority", "noisy"}
        # ids unique across the union of splits
        ids = set(train.example_ids) | set(test.example_ids)
        assert len(ids) == 900

    def test_counts_follow_zipf(self):
        spec = SynthLongTailSpec(train_count=2000, test_count=500, seed=1)
        train, _ = synthesize(spec)
        counts = np.bincount(train.labels, minlength=10).tolist()
        assert counts == zipf_allocate(2000, 10, 1.0)

    def test_minority_flags_below_median(self):
        spec = SynthLongTailSpec(train_count=1000, test_count=200, seed=2)
        train, _ = synthesize(spec)
        counts = np.bincount(train.labels, minlength=10)
        median = np.median(counts)
        minority = train.attribute_mask("minority")
        for ex, is_min in zip(train.examples, minority):
            assert is_min == (counts[ex.true_label] < median)

    def test_noise_fractions_close(self):
        spec = SynthLongTailSpec(train_count=4000, test_count=200, seed=3)
        train, _ = synthesize(spec)
        assert train.attribute_mask("noisy").mean() == pytest.approx(0.05, abs=0.02)
        assert train.attribute_mask("atypical").mean() == pytest.approx(0.08, abs=0.02)

    def test_no_missing_classes(self):
        spec = SynthLongTailSpec(train_count=200, test_count=100, seed=4)
        train, test = synthesize(spec)
        check_class_support(train.labels, train.num_classes, "training")
        check_class_support(test.labels, test.num_classes, "test")

    @pytest.mark.parametrize("spec", [
        SynthLongTailSpec(train_count=700, test_count=300, seed=0),
        SynthLongTailSpec(train_count=500, test_count=200, seed=11),
        SynthLongTailSpec(num_classes=7, dim=3, train_count=300, test_count=90, seed=4),
        SynthLongTailSpec(num_classes=2, dim=1, train_count=40, test_count=20, seed=6),
        SynthLongTailSpec(train_count=400, test_count=100, zipf_exponent=0.0, seed=2),
        SynthLongTailSpec(
            train_count=400, test_count=100, noisy_fraction=0.0, atypical_fraction=0.0, seed=8
        ),
        SynthLongTailSpec(
            train_count=400, test_count=100, noisy_fraction=0.0, atypical_fraction=0.3, seed=9
        ),
        SynthLongTailSpec(
            num_classes=5, train_count=400, test_count=100, noisy_fraction=0.4,
            atypical_fraction=0.0, seed=10,
        ),
    ])
    def test_matches_per_example_oracle(self, spec):
        """Every column equals the per-example sampler's, bit for bit."""
        for got, want in zip(synthesize(spec), reference_synthesize(spec)):
            for column in ("example_ids", "labels", "feature_matrix", "attributes"):
                np.testing.assert_array_equal(getattr(got, column), getattr(want, column))
            assert got.attribute_names == want.attribute_names
            assert got.num_classes == want.num_classes

    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthLongTailSpec(num_classes=1)
        with pytest.raises(ConfigError):
            SynthLongTailSpec(zipf_exponent=-0.5)
        with pytest.raises(ConfigError):
            SynthLongTailSpec(noisy_fraction=1.0)


class TestGenerate:
    def test_files_roundtrip(self, tmp_path):
        spec = SynthLongTailSpec(train_count=150, test_count=60, seed=9)
        train_path, test_path = generate(spec, tmp_path)
        train = read_dataset(train_path)
        test = read_dataset(test_path)
        mem_train, mem_test = synthesize(spec)
        np.testing.assert_array_equal(train.labels, mem_train.labels)
        np.testing.assert_allclose(train.feature_matrix, mem_train.feature_matrix, rtol=0)
        np.testing.assert_array_equal(test.example_ids, mem_test.example_ids)

    def test_byte_identical_across_runs(self, tmp_path):
        spec = SynthLongTailSpec(train_count=120, test_count=50, seed=10)
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate(spec, a)
        generate(spec, b)
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()
        assert (a / "train.meta.json").read_bytes() == (b / "train.meta.json").read_bytes()

    def test_seed_changes_data(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate(SynthLongTailSpec(train_count=120, test_count=50, seed=0), a)
        generate(SynthLongTailSpec(train_count=120, test_count=50, seed=1), b)
        assert (a / "train.csv").read_bytes() != (b / "train.csv").read_bytes()
