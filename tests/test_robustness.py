"""Tests for corruption generation and the normalized robustness metrics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compresslens import robustness
from compresslens.data_model import CompressionSpec, ExampleRecord, LabeledDataset
from compresslens.errors import ConfigError, LayoutRequired, ShapeError, ZeroBaseline
from compresslens.robustness import (
    _KIND_INDEX,
    CORRUPTION_KINDS,
    CorruptionSpec,
    _example_rngs,
    corrupt,
    corrupt_features,
    relative_accuracy,
    robustness_report,
    write_robustness_report,
)
from compresslens.trainer import MLPModel, TrainConfig, train_population

from oracles import reference_hit_rates


def example(features, layout=None, eid=0):
    return ExampleRecord(
        example_id=eid, features=np.asarray(features, float), true_label=0, layout=layout
    )


class TestCorruptions:
    def test_severity_bounds(self):
        with pytest.raises(ConfigError):
            CorruptionSpec("brightness", 0)
        with pytest.raises(ConfigError):
            CorruptionSpec("brightness", 6)
        with pytest.raises(ConfigError):
            CorruptionSpec("fog", 1)
        for severity in (2.5, True):  # another type is rejected, not used as is
            with pytest.raises(ConfigError, match="severity"):
                CorruptionSpec("brightness", severity)

    def test_brightness_severity1(self):
        ex = example([0.0, 0.5, 0.98])
        out = corrupt(ex, CorruptionSpec("brightness", 1))
        np.testing.assert_allclose(out.features, [0.05, 0.55, 1.0])

    def test_contrast_shrinks_toward_mean(self):
        ex = example([0.2, 0.8])
        out = corrupt(ex, CorruptionSpec("contrast", 1))  # scale 0.75
        mean = 0.5
        np.testing.assert_allclose(
            out.features, mean + (ex.features - mean) * 0.75
        )

    def test_determinism(self):
        ex = example(np.linspace(0, 1, 32), eid=11)
        for kind in ("gaussian_noise", "shot_noise", "impulse_noise"):
            spec = CorruptionSpec(kind, 3, seed=5)
            a = corrupt(ex, spec).features
            b = corrupt(ex, spec).features
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_noise(self):
        ex = example(np.linspace(0.2, 0.8, 32), eid=4)
        a = corrupt(ex, CorruptionSpec("gaussian_noise", 3, seed=1)).features
        b = corrupt(ex, CorruptionSpec("gaussian_noise", 3, seed=2)).features
        assert not np.array_equal(a, b)

    def test_example_id_changes_noise(self):
        feats = np.linspace(0.2, 0.8, 32)[None, :]
        a = corrupt_features(feats, CorruptionSpec("gaussian_noise", 3), [0])
        b = corrupt_features(feats, CorruptionSpec("gaussian_noise", 3), [1])
        assert not np.array_equal(a, b)

    def test_clamped_to_range(self):
        ex = example([0.0, 1.0, 0.5], eid=2)
        for kind in ("gaussian_noise", "impulse_noise", "brightness", "shot_noise"):
            for sev in (1, 5):
                out = corrupt(ex, CorruptionSpec(kind, sev, seed=3))
                assert out.features.min() >= 0.0
                assert out.features.max() <= 1.0

    def test_impulse_sets_extremes(self):
        feats = np.full((1, 4000), 0.5)
        out = corrupt_features(feats, CorruptionSpec("impulse_noise", 5, seed=0), [0])
        changed = out != 0.5
        assert set(np.unique(out[changed])) <= {0.0, 1.0}
        # severity 5 hits about 17% of coordinates
        assert 0.12 <= changed.mean() <= 0.22

    def test_pixelate_requires_layout(self):
        with pytest.raises(LayoutRequired):
            corrupt(example(np.zeros(6)), CorruptionSpec("pixelate", 1))

    def test_pixelate_block_average(self):
        img = np.arange(16, dtype=float).reshape(4, 4) / 16.0
        ex = example(img.ravel(), layout=(4, 4))
        out = corrupt(ex, CorruptionSpec("pixelate", 1))  # block size 2
        got = out.features.reshape(4, 4)
        for r in (0, 2):
            for c in (0, 2):
                np.testing.assert_allclose(
                    got[r : r + 2, c : c + 2], img[r : r + 2, c : c + 2].mean()
                )

    def test_shot_noise_zero_floor(self):
        # features at the lower bound map to rate 0 and stay there
        feats = np.zeros((1, 8))
        out = corrupt_features(feats, CorruptionSpec("shot_noise", 3, seed=1), [0])
        np.testing.assert_array_equal(out, 0.0)


# keys whose uint32 encoding has one word, the largest one-word value, and two and three words
EDGE_KEYS = (0, 2**32 - 1, 2**32, 2**70)
keys = st.sampled_from(EDGE_KEYS) | st.integers(0, 2**80)
# the same edges for example ids, which stop below 2**63 (two words)
ID_EDGES = (0, 2**32 - 1, 2**32, 2**63 - 1)
id_keys = st.sampled_from(ID_EDGES) | st.integers(0, 2**63 - 1)


class TestBatchedCorruption:
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("severity", range(1, 6))
    @settings(max_examples=8, deadline=None)
    @given(
        seed=keys,
        ids=st.lists(id_keys, min_size=1, max_size=5, unique=True),
        per_coordinate=st.booleans(),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_single_calls(self, kind, severity, seed, ids, per_coordinate, data_seed):
        x = np.random.default_rng(data_seed).random((len(ids), 64)) * 3.0 - 1.0
        lo, hi = (x.min(axis=0), x.max(axis=0)) if per_coordinate else (-1.0, 2.0)
        spec = CorruptionSpec(kind, severity, seed)
        batch = corrupt_features(x, spec, ids, lo, hi, (8, 8))
        assert batch.shape == x.shape
        for i, example_id in enumerate(ids):
            single = corrupt_features(x[i : i + 1], spec, [example_id], lo, hi, (8, 8))
            assert batch[i].tobytes() == single[0].tobytes()

    @pytest.mark.parametrize("seed", EDGE_KEYS)
    @pytest.mark.parametrize("example_id", ID_EDGES)
    def test_stream_equals_default_rng(self, seed, example_id):
        for kind in CORRUPTION_KINDS:
            for severity in range(1, 6):
                (rng,) = _example_rngs(CorruptionSpec(kind, severity, seed), [example_id])
                want = np.random.default_rng([seed, _KIND_INDEX[kind], severity, example_id])
                assert rng.random(4).tobytes() == want.random(4).tobytes()

    def test_negative_id_is_config_error(self):
        cases = [
            (np.zeros((1, 4)), [-1]),
            (np.zeros((1, 4)), [1.5]),  # a float id
            (np.zeros((1, 4)), [2.0]),  # a float id, even a whole one
            (np.zeros((1, 4)), [True]),
            (np.zeros((3, 4)), [0, -1, 2]),  # a negative id mid-batch
            (np.zeros((3, 4)), np.array([0, -1, 2])),
            (np.zeros((3, 4)), [0, 1.0, 2]),
            (np.zeros((3, 4)), np.array([0.0, 1.0, 2.0])),
            (np.zeros((3, 4)), ["0", "1", "2"]),
            # no id is 2**63 or more: no dataset, log or CSV can hold one
            (np.zeros((2, 4)), [0, 2**63]),
            (np.zeros((2, 4)), [2**64, 0]),
            (np.zeros((2, 4)), np.array([0, 2**63], dtype=np.uint64)),
        ]
        for kind in CORRUPTION_KINDS:  # every kind checks its ids, not only the noise kinds
            for features, ids in cases:
                with pytest.raises(ConfigError, match="example ids must be non-negative integers"):
                    corrupt_features(features, CorruptionSpec(kind, 1), ids, layout=(2, 2))

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_features_are_config_error(self, kind, bad):
        spec = CorruptionSpec(kind, 1)
        x = np.zeros((3, 4))
        x[1, 2] = bad
        for features, ids in [(x[1:2], [1]), (x, [0, 1, 2])]:
            with pytest.raises(ConfigError, match="features must be finite"):
                corrupt_features(features, spec, ids, layout=(2, 2))
        with pytest.raises(ConfigError, match="features must be finite"):
            corrupt(example(x[1], layout=(2, 2)), spec)

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_id_count_must_match_rows(self, kind):
        spec = CorruptionSpec(kind, 1)
        x = np.zeros((3, 4))
        for features, ids in [
            (x, [0, 1]),  # too few ids
            (x, [0, 1, 2, 3]),  # too many
            (x, 0),  # one id for a matrix
            (x[0], [0]),  # a list of ids for a vector
            (np.zeros((3, 2, 2)), [0, 1, 2]),  # not a vector or a matrix
        ]:
            with pytest.raises(ShapeError):
                corrupt_features(features, spec, ids, layout=(2, 2))

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("layout", [(-4, -4), (2.0, 8), (True, 16), (4, 4, 1), (0, 16)])
    def test_bad_layout_refused_before_drawing(self, kind, layout, monkeypatch):
        """Every kind checks a given layout by `checked_layout`, before any stream is seeded."""

        def no_draws(*args):
            raise AssertionError("a bad layout is refused before anything is drawn")

        monkeypatch.setattr(robustness, "_example_rngs", no_draws)
        with pytest.raises(ConfigError, match="layout"):
            corrupt_features(np.zeros((2, 16)), CorruptionSpec(kind, 1), [0, 1], layout=layout)

    def test_pixelate_matrix_requires_layout(self):
        spec = CorruptionSpec("pixelate", 2)
        with pytest.raises(LayoutRequired):
            corrupt_features(np.zeros((2, 4)), spec, [0, 1])
        with pytest.raises(ConfigError, match="layout 3x3 does not match 4 features"):
            corrupt_features(np.zeros((2, 4)), spec, [0, 1], layout=(3, 3))

    def test_empty_matrix(self):
        for kind in CORRUPTION_KINDS:
            out = corrupt_features(np.zeros((0, 4)), CorruptionSpec(kind, 1), [], layout=(2, 2))
            assert out.shape == (0, 4)


# seeds of one, two and three uint32 words, and the edges between them
ONE_WORD = st.integers(0, 2**32 - 1)
TWO_WORDS = st.integers(2**32, 2**64 - 1)
THREE_WORDS = st.integers(2**64, 2**80)
batch_seeds = (
    st.sampled_from((0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**80))
    | ONE_WORD | TWO_WORDS | THREE_WORDS
)
# ids of one and two words, which stop below 2**63
batch_ids = st.sampled_from(ID_EDGES) | ONE_WORD | st.integers(2**32, 2**63 - 1)


def draws(rng) -> bytes:
    """The bytes of one `normal`, one `poisson` and one `random` draw, in that order."""
    return rng.normal(size=3).tobytes() + rng.poisson(7.5, 3).tobytes() + rng.random(3).tobytes()


class TestBatchedSeeding:
    """Batches of two or more ids seed their streams through the column hash."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=batch_seeds,
        kind=st.sampled_from(CORRUPTION_KINDS),
        severity=st.integers(1, 5),
        ids=st.lists(batch_ids, min_size=2, max_size=40),
    )
    def test_streams_equal_default_rng(self, seed, kind, severity, ids):
        rngs = list(_example_rngs(CorruptionSpec(kind, severity, seed), ids))
        assert len(rngs) == len(ids)
        for example_id, rng in zip(ids, rngs):
            want = np.random.default_rng([seed, _KIND_INDEX[kind], severity, example_id])
            assert draws(rng) == draws(want)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=batch_seeds,
        ids=st.lists(ONE_WORD | st.integers(0, 2**63 - 1) | st.just(2**63 - 1), min_size=2,
                     max_size=40),
    )
    def test_int64_array_equals_list(self, seed, ids):
        for kind in ("gaussian_noise", "shot_noise", "impulse_noise"):
            spec = CorruptionSpec(kind, 3, seed)
            from_list = [draws(rng) for rng in _example_rngs(spec, ids)]
            from_array = [draws(rng) for rng in _example_rngs(spec, np.array(ids, dtype=np.int64))]
            assert from_array == from_list


class TestRelativeAccuracy:
    def test_no_difference_is_zero(self):
        assert relative_accuracy(43.82, 43.82) == 0.0

    def test_reference_rows_within_tolerance(self):
        assert relative_accuracy(30.80, 43.82) == pytest.approx(-29.71, abs=0.05)
        assert relative_accuracy(38.04, 42.30) == pytest.approx(-10.06, abs=0.05)
        assert relative_accuracy(32.88, 45.43) == pytest.approx(-27.64, abs=0.05)
        assert relative_accuracy(64.12, 69.49) == pytest.approx(-7.74, abs=0.05)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            relative_accuracy(10.0, 0.0)

    def test_antitone_in_baseline(self):
        values = [relative_accuracy(50.0, b) for b in (55.0, 60.0, 70.0)]
        assert values[0] > values[1] > values[2]


def cluster_dataset(seed=0, n=400, d=8, C=3, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1.5, (C, d))
    examples = []
    for i in range(n):
        c = i % C
        examples.append(
            ExampleRecord(
                example_id=i,
                features=centers[c] + rng.normal(0, spread, d),
                true_label=c,
            )
        )
    return LabeledDataset(examples=tuple(examples), num_classes=C)


class TestRobustnessReport:
    def test_identical_populations_zero_norm(self):
        ds = cluster_dataset()
        config = TrainConfig(
            steps=120, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=0.0, seed=0, population_size=2, hidden_dims=(12,),
        )
        models, _ = train_population(ds, ds, config)
        rows = robustness_report(
            ds, ["gaussian_noise", "brightness"], models, models,
            CompressionSpec("none"), topk=2,
        )
        for row in rows:
            assert row.top1_norm == 0.0
            assert row.topk_norm == 0.0

    def test_single_kind_matches_hand_formula(self):
        # 1-feature threshold task with hand-built models
        examples = tuple(
            ExampleRecord(example_id=i, features=np.array([x]), true_label=int(x > 0.5))
            for i, x in enumerate(np.linspace(0.05, 0.95, 10))
        )
        ds = LabeledDataset(examples=examples, num_classes=2)
        # logit_1 - logit_0 = w(x - 0.5): strong model vs inverted model
        good = MLPModel([np.array([[-10.0, 10.0]])], [np.array([5.0, -5.0])])
        bad = MLPModel([np.array([[10.0, -10.0]])], [np.array([-5.0, 5.0])])
        rows = robustness_report(
            ds, ["contrast"], [good], [bad], CompressionSpec("magnitude_prune", 0.9),
            topk=1,
        )
        base_acc = rows[0].top1_abs  # of comp population
        # recompute by hand: contrast pulls toward the example mean, labels unchanged
        accs_good, accs_bad = [], []
        for sev in range(1, 6):
            spec = CorruptionSpec("contrast", sev)
            xs = np.stack([
                corrupt(ex, spec, ds.feature_matrix.min(0), ds.feature_matrix.max(0)).features
                for ex in examples
            ])
            y = np.array([ex.true_label for ex in examples])
            accs_good.append((np.argmax(good.logits(xs), 1) == y).mean())
            accs_bad.append((np.argmax(bad.logits(xs), 1) == y).mean())
        expected_norm = relative_accuracy(
            100 * float(np.mean(accs_bad)), 100 * float(np.mean(accs_good))
        )
        assert rows[0].top1_norm == pytest.approx(expected_norm, abs=1e-9)
        assert base_acc == pytest.approx(100 * float(np.mean(accs_bad)), abs=1e-9)

    def test_gaussian_severity_monotone_on_average(self):
        ds = cluster_dataset(seed=1, n=600, spread=0.8)
        config = TrainConfig(
            steps=250, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=0.0, seed=3, population_size=5, hidden_dims=(16,),
        )
        models, _ = train_population(ds, ds, config)
        lo = ds.feature_matrix.min(0)
        hi = ds.feature_matrix.max(0)
        y = ds.labels
        means = []
        for sev in range(1, 6):
            accs = []
            for seed in range(3):
                spec = CorruptionSpec("gaussian_noise", sev, seed=seed)
                xs = np.stack([corrupt(ex, spec, lo, hi).features for ex in ds.examples])
                for m in models:
                    accs.append((np.argmax(m.logits(xs), 1) == y).mean())
            means.append(np.mean(accs))
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))

    def test_every_kind_is_checked_before_drawing(self, monkeypatch):
        def no_corruption(*args):
            raise AssertionError("an unknown kind is refused before anything is drawn")

        monkeypatch.setattr(robustness, "corrupt_features", no_corruption)
        ds = cluster_dataset(n=30)
        model = MLPModel([np.zeros((8, 3))], [np.zeros(3)])
        with pytest.raises(ConfigError, match="unknown corruption kind 'brightnes'"):
            robustness_report(ds, ["gaussian_noise", "brightnes"], [model], [model],
                              CompressionSpec("none"))

    def test_input_width_is_checked_before_drawing(self, monkeypatch):
        def no_corruption(*args):
            raise AssertionError("a model of another input width is refused before anything is drawn")

        monkeypatch.setattr(robustness, "corrupt_features", no_corruption)
        ds = cluster_dataset(n=30)  # 8 features, 3 classes
        model = MLPModel([np.zeros((8, 3))], [np.zeros(3)])
        wide = MLPModel([np.zeros((16, 3))], [np.zeros(3)])
        with pytest.raises(ShapeError, match="a model has 16 inputs, the split 8 features"):
            robustness_report(ds, ["brightness"], [model], [model, wide], CompressionSpec("none"))

    def test_model_order_invariance(self):
        ds = cluster_dataset(seed=2, n=200)
        config = TrainConfig(
            steps=100, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=0.0, seed=0, population_size=3, hidden_dims=(8,),
        )
        models, _ = train_population(ds, ds, config)
        fwd = robustness_report(ds, ["brightness"], models, models[::-1],
                                CompressionSpec("none"), topk=1)
        rev = robustness_report(ds, ["brightness"], models[::-1], models,
                                CompressionSpec("none"), topk=1)
        assert fwd[0].top1_abs == rev[0].top1_abs

    def test_rows_independent_of_split_row_order(self):
        # odd N, and a 3x3 layout so that pixelate runs too
        ds = cluster_dataset(seed=4, n=201, d=9)
        config = TrainConfig(
            steps=60, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=0.0, seed=0, population_size=2, hidden_dims=(8,),
        )
        base, _ = train_population(ds, ds, config)
        comp, _ = train_population(ds, ds, replace(config, seed=7))

        def report(rows):
            split = LabeledDataset.from_arrays(
                ds.example_ids[rows], ds.labels[rows], ds.feature_matrix[rows],
                ds.num_classes, layout=(3, 3),
            )
            return robustness_report(
                split, list(CORRUPTION_KINDS), base, comp,
                CompressionSpec("magnitude_prune", 0.5), seed=3,
            )

        shuffled = np.random.default_rng(1).permutation(len(ds))
        assert report(shuffled) == report(np.arange(len(ds)))

    @pytest.mark.parametrize("topk", [1, 2, 3])
    def test_rows_equal_the_sorting_reference(self, monkeypatch, topk):
        # a 3x3 layout so that pixelate runs; the zero model ties every logit
        ds = cluster_dataset(seed=5, n=120, d=9)
        ds = LabeledDataset.from_arrays(
            ds.example_ids, ds.labels, ds.feature_matrix, ds.num_classes, layout=(3, 3)
        )
        config = TrainConfig(
            steps=60, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=0.0, seed=0, population_size=2, hidden_dims=(8,),
        )
        base, _ = train_population(ds, ds, config)
        comp, _ = train_population(ds, ds, replace(config, seed=7))
        comp.append(MLPModel([np.zeros((9, 3))], [np.zeros(3)]))

        def report():
            return robustness_report(ds, list(CORRUPTION_KINDS), base, comp,
                                     CompressionSpec("magnitude_prune", 0.5), topk=topk, seed=2)

        rows = report()
        monkeypatch.setattr(robustness, "_hit_rates", reference_hit_rates)
        assert rows == report()

    def test_csv_format(self, tmp_path):
        ds = cluster_dataset(seed=3, n=150)
        config = TrainConfig(
            steps=80, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=0.0, seed=0, population_size=1, hidden_dims=(8,),
        )
        models, _ = train_population(ds, ds, config)
        rows = robustness_report(ds, ["brightness"], models, models,
                                 CompressionSpec("magnitude_prune", 0.5), topk=2)
        path = tmp_path / "rob.csv"
        write_robustness_report(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "corruption,sparsity,top1_abs,topk_abs,top1_norm,topk_norm"
        cells = lines[1].split(",")
        assert cells[0] == "brightness"
        assert cells[1] == "0.5"
        assert cells[4] == "0.00"
