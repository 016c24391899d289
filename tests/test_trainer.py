"""Tests for training, pruning, and quantization."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compresslens import trainer
from compresslens.data_model import QUANT_KINDS, CompressionSpec, ExampleRecord, LabeledDataset
from compresslens.errors import (
    ConfigError,
    DivergenceError,
    MissingClassSupport,
    SchemaError,
    ShapeError,
)
from compresslens.synth import SynthLongTailSpec, synthesize
from compresslens.trainer import (
    MLPModel,
    PruneSchedule,
    QuantizationScheme,
    TrainConfig,
    apply_magnitude_mask,
    evaluate_population,
    label_ranks,
    load_model,
    loss_and_gradients,
    prune_window,
    quantize_model,
    rank_topk,
    save_model,
    sparsity_at_step,
    train_population,
)

from oracles import float16_round, reference_loss_and_gradients, reference_train_single


def tiny_dataset(seed=0, n=120, d=4, C=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 2.0, (C, d))
    examples = []
    for i in range(n):
        c = i % C
        examples.append(
            ExampleRecord(
                example_id=i,
                features=centers[c] + rng.normal(0, 0.5, d),
                true_label=c,
            )
        )
    return LabeledDataset(examples=tuple(examples), num_classes=C)


def small_config(**kw):
    defaults = dict(
        steps=150,
        batch_size=16,
        learning_rate=0.1,
        lr_decay_steps=None,
        weight_decay=1e-4,
        seed=0,
        population_size=2,
        hidden_dims=(16,),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSparsitySchedule:
    def test_ramp_endpoints(self):
        s = PruneSchedule(0.9, 100, 900, 50)
        assert sparsity_at_step(s, 100) == 0.0
        assert sparsity_at_step(s, 900) == 0.9
        assert sparsity_at_step(s, 5000) == 0.9
        assert sparsity_at_step(s, 0) == 0.0

    def test_cubic_midpoint(self):
        s = PruneSchedule(0.9, 0, 100, 10)
        assert sparsity_at_step(s, 50) == pytest.approx(0.7875, abs=1e-15)

    def test_holds_between_events(self):
        s = PruneSchedule(0.5, 0, 100, 30)
        assert sparsity_at_step(s, 35) == sparsity_at_step(s, 30)
        assert sparsity_at_step(s, 59) == sparsity_at_step(s, 30)
        assert sparsity_at_step(s, 60) > sparsity_at_step(s, 30)

    def test_monotone_in_step(self):
        s = PruneSchedule(0.7, 13, 404, 17)
        vals = [sparsity_at_step(s, step) for step in range(500)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_window_rule(self):
        assert prune_window(2500) == (250, 1750, 100)
        assert prune_window(600) == (60, 420, 24)
        assert prune_window(5) == (0, 3, 1)
        # a value given overrides its part; every follows the resolved span
        assert prune_window(600, end=300) == (60, 300, 16)
        assert prune_window(600, 0, 150, 7) == (0, 150, 7)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PruneSchedule(1.0, 0, 100, 10)
        with pytest.raises(ConfigError):
            PruneSchedule(0.5, 100, 100, 10)
        with pytest.raises(ConfigError):
            PruneSchedule(0.5, 0, 5, 10)  # no event fits
        with pytest.raises(ConfigError, match="prune_start"):
            PruneSchedule(0.5, 10.5, 80, 10)


class TestMagnitudeMask:
    def test_zero_sparsity_keeps_all(self):
        mask = apply_magnitude_mask(np.array([1.0, -2.0]), 0.0)
        np.testing.assert_array_equal(mask, [1.0, 1.0])

    def test_smallest_magnitudes_masked(self):
        mask = apply_magnitude_mask(np.array([0.5, -0.1, 0.3, -0.7]), 0.5)
        np.testing.assert_array_equal(mask, [1.0, 0.0, 0.0, 1.0])

    def test_tie_break_lowest_index(self):
        mask = apply_magnitude_mask(np.array([0.2, -0.2, 0.5, 0.9]), 0.25)
        np.testing.assert_array_equal(mask, [0.0, 1.0, 1.0, 1.0])

    def test_count_uses_round_ties_to_even(self):
        # 6 weights at s=0.25 -> 1.5 -> round() gives 2
        mask = apply_magnitude_mask(np.arange(1.0, 7.0), 0.25)
        assert mask.sum() == 4
        # 2 weights at s=0.25 -> 0.5 -> rounds to 0
        mask = apply_magnitude_mask(np.array([1.0, 2.0]), 0.25)
        assert mask.sum() == 2

    def test_matrix_shape_preserved(self):
        w = np.arange(12.0).reshape(3, 4) - 5.0
        mask = apply_magnitude_mask(w, 0.5)
        assert mask.shape == (3, 4)
        assert int(mask.sum()) == 12 - round(0.5 * 12)


class TestRankTopk:
    def test_zero_model_tie_break(self):
        model = MLPModel([np.zeros((3, 4))], [np.zeros(4)])
        np.testing.assert_array_equal(rank_topk(model.logits(np.ones((1, 3))), 3), [[0, 1, 2]])

    def test_hand_affine(self):
        # identity-ish map: logit_c = x_c
        model = MLPModel([np.eye(2)], [np.zeros(2)])
        np.testing.assert_array_equal(rank_topk(model.logits([[0.2, 0.9]]), 2), [[1, 0]])

    def test_dim_mismatch(self):
        model = MLPModel([np.zeros((3, 4))], [np.zeros(4)])
        with pytest.raises(ShapeError):
            model.logits(np.ones(2))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3), ()])
    def test_batches_only(self, shape):
        model = MLPModel([np.zeros((3, 4))], [np.zeros(4)])
        with pytest.raises(ShapeError, match=r"is not an \(N, 3\) batch"):
            model.logits(np.ones(shape))

    # logits that tie, straddle zero's two signs, or are inf or NaN, among any floats
    LOGITS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]), st.floats())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), num_classes=st.integers(1, 12), n=st.integers(0, 20))
    def test_label_ranks_are_positions_in_rank_topk(self, data, num_classes, n):
        z = data.draw(hnp.arrays(np.float64, (n, num_classes), elements=self.LOGITS))
        y = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, num_classes - 1)))
        np.testing.assert_array_equal(
            label_ranks(z, y), np.argmax(rank_topk(z, num_classes) == y[:, None], axis=1)
        )


class TestQuantization:
    def test_zero_weight_fixed_point(self):
        for kind in ("float16", "dynamic_int8"):
            model = MLPModel([np.array([[0.0, 0.4]])], [np.zeros(2)])
            q = quantize_model(model, QuantizationScheme(kind))
            assert q.weights[0][0, 0] == 0.0

    def test_dynamic_int8_hand_case(self):
        model = MLPModel([np.array([[-1.0], [0.5], [1.0]])], [np.zeros(1)])
        q = quantize_model(model, QuantizationScheme("dynamic_int8"))
        scale = 1.0 / 127.0
        np.testing.assert_allclose(
            q.weights[0].ravel(), [-1.0, 64 * scale, 1.0], atol=1e-15
        )
        assert q.weights[0][1, 0] == pytest.approx(0.503937, abs=1e-6)

    def test_float16_hand_case(self):
        model = MLPModel([np.array([[0.1]])], [np.zeros(1)])
        q = quantize_model(model, QuantizationScheme("float16"))
        assert q.weights[0][0, 0] == 0.0999755859375

    def test_float16_matches_bitwise_oracle(self):
        rng = np.random.default_rng(1)
        vals = np.concatenate(
            [rng.normal(0, 1, 200), rng.normal(0, 1e-5, 50), rng.normal(0, 100, 50)]
        )
        model = MLPModel([vals.reshape(-1, 1)], [np.zeros(1)])
        q = quantize_model(model, QuantizationScheme("float16"))
        expected = [float16_round(v) for v in vals]
        np.testing.assert_array_equal(q.weights[0].ravel(), expected)

    def test_float16_idempotent(self):
        rng = np.random.default_rng(2)
        model = MLPModel([rng.normal(size=(50, 20))], [np.zeros(20)])
        once = quantize_model(model, QuantizationScheme("float16"))
        twice = quantize_model(once, QuantizationScheme("float16"))
        np.testing.assert_array_equal(once.weights[0], twice.weights[0])
        np.testing.assert_array_equal(once.biases[0], twice.biases[0])

    def test_int8_roundtrip_bound(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(40, 25))
        model = MLPModel([w], [np.zeros(25)])
        q = quantize_model(model, QuantizationScheme("dynamic_int8"))
        scale = np.abs(w).max() / 127.0
        assert np.max(np.abs(q.weights[0] - w)) <= scale / 2 + 1e-12

    def test_degenerate_tensor_passes_through(self):
        model = MLPModel([np.zeros((3, 2))], [np.zeros(2)])
        q = quantize_model(model, QuantizationScheme("dynamic_int8"))
        np.testing.assert_array_equal(q.weights[0], 0.0)

    def test_fixed_int8_requires_calibration(self):
        model = MLPModel([np.ones((2, 2))], [np.zeros(2)])
        with pytest.raises(ConfigError):
            quantize_model(model, QuantizationScheme("fixed_int8"))

    def test_fixed_int8_clamps_preactivations(self):
        model = MLPModel([np.eye(2)], [np.zeros(2)])
        calib = np.array([[0.0, 0.0], [1.0, 1.0]])
        q = quantize_model(model, QuantizationScheme("fixed_int8"), calib)
        assert q.activation_ranges is not None
        lo, hi = q.activation_ranges[0]
        assert (lo, hi) == (0.0, 1.0)
        # an input far outside the calibrated range saturates
        (logits,) = q.logits(np.array([[10.0, -10.0]]))
        assert logits[0] == 1.0 and logits[1] == 0.0

    def test_quantization_does_not_mutate_input(self):
        w = np.array([[0.3, -0.6]])
        model = MLPModel([w.copy()], [np.zeros(2)])
        quantize_model(model, QuantizationScheme("dynamic_int8"))
        np.testing.assert_array_equal(model.weights[0], w)

    @pytest.mark.parametrize("kind", ["float16", "dynamic_int8", "fixed_int8"])
    def test_quantized_model_is_built_from_new_arrays(self, kind):
        rng = np.random.default_rng(4)
        ranges = [(-2.0, 2.0), (-3.0, 3.0)]
        model = MLPModel([rng.normal(size=(3, 4)), np.zeros((4, 2))], [np.ones(4), np.ones(2)],
                         ranges)
        q = quantize_model(model, QuantizationScheme(kind), rng.normal(size=(5, 3)))
        for new in q.weights + q.biases:
            assert not any(np.shares_memory(new, old) for old in model.weights + model.biases)
        assert model.activation_ranges == ranges
        if kind != "fixed_int8":  # calibration replaces the ranges; the other kinds keep them
            assert q.activation_ranges == ranges


class TestSharedForwardPass:
    """Inference, training and fixed-int8 calibration run one forward pass."""

    @staticmethod
    def two_hidden_layers(seed=4):
        rng = np.random.default_rng(seed)
        return MLPModel.initialize((5, 9, 7, 3), rng), rng.normal(size=(31, 5))

    def test_fixed_int8_ranges_are_layer_extremes(self):
        model, x = self.two_hidden_layers()
        q = quantize_model(model, QuantizationScheme("fixed_int8"), x)
        want = []
        h = x
        for i, (w, b) in enumerate(zip(q.weights, q.biases)):
            z = h @ w + b
            want.append((float(z.min()), float(z.max())))
            h = z if i == 2 else np.maximum(z, 0.0)
        assert q.activation_ranges == want

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_logits_match_an_out_of_place_forward_pass(self, calibrated):
        model, x = self.two_hidden_layers(seed=6)
        if calibrated:  # a narrow slice, so that inference clamps on x
            model = quantize_model(model, QuantizationScheme("fixed_int8"), x[:3])

        def forward(h):
            for i, (w, b) in enumerate(zip(model.weights, model.biases)):
                z = h @ w + b
                if calibrated:
                    z = np.clip(z, *model.activation_ranges[i])
                h = z if i == 2 else np.maximum(z, 0.0)
            return h

        assert bits([model.logits(x)]) == bits([forward(x)])
        with pytest.raises(ShapeError, match=r"shape \(5,\) is not an \(N, 5\) batch"):
            model.logits(x[4])  # a batch only: one row is x[4:5]

    def test_logits_hold_one_hidden_activation(self):
        """Rows go through in blocks, and each block's hidden layer is rectified in place."""
        rng = np.random.default_rng(7)
        model = MLPModel.initialize((16, 320, 10), rng)
        x = rng.normal(size=(20000, 16))
        tracemalloc.start()
        try:
            out = model.logits(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the (N, C) result, one (block, 320) array: 1.3 MB, where one
        # (20000, 320) hidden activation would take 51 MB
        assert peak < out.nbytes + 1.5 * trainer.LOGITS_BLOCK_ROWS * 320 * 8

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_logits_of_a_batch_are_those_of_its_blocks(self, calibrated):
        rng = np.random.default_rng(9)
        model = MLPModel.initialize((16, 320, 10), rng)
        b = trainer.LOGITS_BLOCK_ROWS
        x = rng.normal(size=(2 * b + 100, 16))
        if calibrated:  # a narrow slice, so that inference clamps on x
            model = quantize_model(model, QuantizationScheme("fixed_int8"), x[:3])
        blocks = [model.logits(x[i:i + b]) for i in range(0, len(x), b)]
        assert bits([model.logits(x)]) == bits([np.concatenate(blocks)])
        assert model.logits(x[:0]).shape == (0, 10)

    def test_training_never_clamps(self):
        model, x = self.two_hidden_layers(seed=5)
        y = np.arange(len(x)) % 3
        calibrated = quantize_model(model, QuantizationScheme("fixed_int8"), x[:2])
        plain = MLPModel(calibrated.weights, calibrated.biases)
        # the narrow calibration slice makes inference clamp on x
        assert not np.array_equal(calibrated.logits(x), plain.logits(x))
        loss, grads_w, grads_b = loss_and_gradients(calibrated, x, y, 1e-3)
        want_loss, want_w, want_b = loss_and_gradients(plain, x, y, 1e-3)
        assert loss == want_loss
        for got, want in zip(grads_w + grads_b, want_w + want_b):
            np.testing.assert_array_equal(got, want)


class TestGradients:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(17)
        model = MLPModel.initialize((8, 16, 4), rng)
        x = rng.normal(size=(12, 8))
        y = rng.integers(0, 4, 12)
        wd = 1e-3
        _, grads_w, grads_b = loss_and_gradients(model, x, y, wd)

        eps = 1e-5
        for arrs, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for arr, grad in zip(arrs, grads):
                flat = arr.ravel()
                idx = rng.choice(flat.size, size=min(25, flat.size), replace=False)
                for i in idx:
                    orig = flat[i]
                    flat[i] = orig + eps
                    up, _, _ = loss_and_gradients(model, x, y, wd)
                    flat[i] = orig - eps
                    down, _, _ = loss_and_gradients(model, x, y, wd)
                    flat[i] = orig
                    numeric = (up - down) / (2 * eps)
                    assert grad.ravel()[i] == pytest.approx(
                        numeric, rel=1e-4, abs=1e-8
                    )


class TestLabelRule:
    """`loss_and_gradients` trains on integer labels in [0, C) only."""

    @staticmethod
    def model():
        return MLPModel.initialize((2, 4, 3), np.random.default_rng(0))

    @pytest.mark.parametrize("y, message", [
        ([0.7, 1.9], "integers"), (np.array([0.0, 1.0]), "integers"), ([0, True], "integers"),
        (np.array([True, False]), "integers"), ([0, -1], r"label -1 outside \[0, 3\)"),
        ([0, 3], r"label 3 outside \[0, 3\)"), (np.array([2, -(2**63)]), "outside"),
        (np.array([0, -5], dtype=np.int32), "label -5 outside"),
    ])
    def test_refused(self, y, message):
        with pytest.raises(ConfigError, match=message):
            loss_and_gradients(self.model(), np.ones((2, 2)), y)

    @pytest.mark.parametrize("y", [[0, 2], np.array([2, 0], dtype=np.int32),
                                   np.array([1, 2], dtype=np.uint8)])
    def test_taken(self, y):
        got = loss_and_gradients(self.model(), np.ones((2, 2)), y)
        want = loss_and_gradients(self.model(), np.ones((2, 2)), np.array(y, dtype=np.int64))
        assert got[0] == want[0]


class TestTrainPopulation:
    def test_zero_steps_matches_random_init(self):
        ds = tiny_dataset()
        config = small_config(steps=0, population_size=1)
        models, log = train_population(ds, ds, config)
        rng = np.random.default_rng(config.seed)
        ref = MLPModel.initialize((4, 16, 3), rng)
        np.testing.assert_array_equal(models[0].weights[0], ref.weights[0])
        logits = ref.logits(log_features(ds))
        expected = np.argsort(-logits, axis=1, kind="stable")[:, : log.topk]
        np.testing.assert_array_equal(log.predictions[0], expected)

    def test_same_seed_identical_logs(self, tmp_path):
        from compresslens.data_model import write_prediction_log

        ds = tiny_dataset()
        config = small_config()
        _, log_a = train_population(ds, ds, config)
        _, log_b = train_population(ds, ds, config)
        write_prediction_log(log_a, tmp_path / "a.csv")
        write_prediction_log(log_b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seed_differs(self):
        ds = tiny_dataset()
        _, log_a = train_population(ds, ds, small_config(seed=0))
        _, log_b = train_population(ds, ds, small_config(seed=1))
        assert not np.array_equal(log_a.predictions, log_b.predictions)

    def test_sparsity_exact_after_training(self):
        ds = tiny_dataset()
        t = 0.9
        config = small_config(steps=120, prune_biases=True)
        schedule = PruneSchedule(t, 10, 80, 10)
        models, _ = train_population(
            ds, ds, config, CompressionSpec("magnitude_prune", t), schedule
        )
        for model in models:
            for w in model.weights:
                assert np.count_nonzero(w) == w.size - round(t * w.size)
            for b in model.biases:
                assert np.count_nonzero(b) == b.size - round(t * b.size)

    def test_mask_monotone_across_events(self):
        # track masks by re-running the schedule at increasing targets
        rng = np.random.default_rng(0)
        w = rng.normal(size=(10, 10))
        schedule = PruneSchedule(0.8, 0, 100, 10)
        masked_before: set[int] = set()
        work = w.copy()
        for step in range(0, 101, 10):
            target = sparsity_at_step(schedule, step)
            mask = apply_magnitude_mask(work, target)
            work = work * mask
            now = set(np.flatnonzero(mask.ravel() == 0).tolist())
            assert masked_before <= now
            masked_before = now

    def test_prune_without_schedule_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            train_population(
                ds, ds, small_config(), CompressionSpec("magnitude_prune", 0.5)
            )

    def test_schedule_must_match_sparsity(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            train_population(
                ds,
                ds,
                small_config(),
                CompressionSpec("magnitude_prune", 0.5),
                PruneSchedule(0.7, 10, 80, 10),
            )

    def test_steps_must_cover_schedule(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            train_population(
                ds,
                ds,
                small_config(steps=50),
                CompressionSpec("magnitude_prune", 0.5),
                PruneSchedule(0.5, 10, 80, 10),
            )

    @pytest.mark.parametrize("test, compression, schedule, message", [
        (tiny_dataset(d=5), CompressionSpec("none"), None,
         "train/test splits disagree on dimensions or classes"),
        (tiny_dataset(C=4), CompressionSpec("none"), None,
         "train/test splits disagree on dimensions or classes"),
        (tiny_dataset(), CompressionSpec("quant_float16"), PruneSchedule(0.5, 10, 80, 10),
         "a PruneSchedule is only valid with magnitude_prune"),
        (tiny_dataset(), CompressionSpec("none"), PruneSchedule(0.5, 10, 80, 10),
         "a PruneSchedule is only valid with magnitude_prune"),
    ], ids=["dimensions", "classes", "quantized with a schedule", "baseline with a schedule"])
    def test_refused_before_training(self, monkeypatch, test, compression, schedule, message):
        monkeypatch.setattr(trainer, "_train_single", pytest.fail)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            train_population(tiny_dataset(), test, small_config(), compression, schedule)

    def test_quantized_population(self):
        ds = tiny_dataset()
        config = small_config(population_size=1)
        models, log = train_population(
            ds, ds, config, CompressionSpec("quant_fixed_int8")
        )
        assert models[0].activation_ranges is not None
        assert log.compression.method == "quant_fixed_int8"

    @pytest.mark.parametrize("kind", ["float16", "dynamic_int8", "fixed_int8"])
    def test_quantized_population_is_the_dense_one_quantized(self, tmp_path, kind):
        from compresslens.data_model import write_prediction_log

        train, test, config = tiny_dataset(), tiny_dataset(seed=1), small_config()
        compression = CompressionSpec(QUANT_KINDS[kind])
        got, got_log = train_population(train, test, config, compression)
        dense, _ = train_population(train, test, config)
        calibration = train.feature_matrix[:trainer.REPRESENTATIVE_COUNT]
        want = [quantize_model(m, QuantizationScheme(kind), calibration) for m in dense]
        want_log = evaluate_population(want, test, compression)
        assert len(got) == len(want) == config.population_size
        for g, w in zip(got, want):
            assert bits(g.weights + g.biases) == bits(w.weights + w.biases)
            assert g.activation_ranges == w.activation_ranges
        write_prediction_log(got_log, tmp_path / "got.csv")
        write_prediction_log(want_log, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_log_independent_of_split_row_order(self):
        ds = tiny_dataset(n=121)
        models, log = train_population(ds, ds, small_config(hidden_dims=(16, 8)))
        order = np.random.default_rng(0).permutation(len(ds))
        shuffled = LabeledDataset.from_arrays(
            ds.example_ids[order], ds.labels[order], ds.feature_matrix[order], ds.num_classes
        )
        got = evaluate_population(models, shuffled, log.compression)
        for field in ("example_ids", "truth", "predictions"):
            np.testing.assert_array_equal(getattr(got, field), getattr(log, field))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", ["training", "test"])
    def test_non_finite_feature_rejected_before_training(self, monkeypatch, value, split):
        ds = tiny_dataset()
        feats = ds.feature_matrix.copy()
        feats[[7, 9], 2] = value
        bad = LabeledDataset.from_arrays(ds.example_ids, ds.labels, feats, ds.num_classes)
        splits = (bad, ds) if split == "training" else (ds, bad)
        monkeypatch.setattr(trainer, "_train_single", pytest.fail)
        with pytest.raises(ConfigError, match=f"^{split} split: example 7 has a non-finite"):
            train_population(*splits, small_config())

    def test_training_split_without_a_class_is_refused(self, monkeypatch):
        ds = tiny_dataset()
        keep = ds.labels != 1
        train = LabeledDataset.from_arrays(
            ds.example_ids[keep], ds.labels[keep], ds.feature_matrix[keep], ds.num_classes
        )
        monkeypatch.setattr(trainer, "_train_single", pytest.fail)
        with pytest.raises(MissingClassSupport, match=r"^classes with zero training support: \[1]"):
            train_population(train, ds, small_config())

    def test_divergence_detected(self):
        ds = tiny_dataset()
        config = small_config(learning_rate=1e12, steps=80, population_size=1)
        with pytest.raises(DivergenceError):
            train_population(ds, ds, config)


def bits(arrays):
    """The raw bytes of each array, so -0.0 and NaN payloads count."""
    return [np.asarray(a).tobytes() for a in arrays]


class TestLeanStep:
    """The in-place step gives the former out-of-place loop's bits."""

    @staticmethod
    def small_synth():
        train, _ = synthesize(SynthLongTailSpec(train_count=300, test_count=50))
        return train

    @pytest.mark.parametrize(
        "config, compression, schedule",
        [
            pytest.param(
                small_config(steps=120, hidden_dims=(16, 8), prune_biases=True,
                             lr_decay_steps=50),
                CompressionSpec("magnitude_prune", 0.8),
                PruneSchedule(0.8, 10, 85, 10),
                id="prune_biases-two-hidden",
            ),
            pytest.param(
                small_config(steps=120, batch_size=37, lr_decay_steps=None),
                CompressionSpec("magnitude_prune", 0.5),
                PruneSchedule(0.5, 20, 100, 20),
                id="batch37-no-decay",
            ),
            pytest.param(
                small_config(steps=100),
                CompressionSpec("magnitude_prune", 0.9),
                PruneSchedule(0.9, 0, 80, 10),
                id="prune_start-0",
            ),
            pytest.param(
                small_config(steps=100), CompressionSpec("quant_fixed_int8"), None,
                id="fixed_int8",
            ),
        ],
    )
    def test_matches_reference_loop(self, config, compression, schedule):
        ds = self.small_synth()
        one = replace(config, population_size=1, seed=11)
        (got,), _ = train_population(ds, ds, one, compression, schedule)
        want = reference_train_single(ds, config, compression, schedule, 11)
        for field in ("weights", "biases"):
            assert bits(getattr(got, field)) == bits(getattr(want, field)), field
        assert got.activation_ranges == want.activation_ranges

    def test_divergence_names_the_reference_step(self):
        ds = self.small_synth()
        config = small_config(steps=300, learning_rate=60.0, lr_decay_steps=None)
        with pytest.raises(DivergenceError) as want:
            reference_train_single(ds, config, CompressionSpec("none"), None, 0)
        with pytest.raises(DivergenceError) as got:
            trainer._train_single(ds, config, None, 0)
        assert str(got.value) == str(want.value)
        assert int(str(got.value).rsplit(" ", 1)[1]) >= 10  # diverged mid-run, not at once

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_loss_and_gradients_leave_inputs_alone(self, weight_decay):
        # at 64 rows the summation order of the loss shows in its last bits
        rng = np.random.default_rng(8)
        model = MLPModel.initialize((5, 9, 7, 3), rng)
        masks = []
        for t in model.weights + model.biases:
            t += rng.normal(size=t.shape)  # nonzero biases, so their masks bite
            masks.append(apply_magnitude_mask(t, 0.4))
            t *= masks[-1]
        x = rng.normal(size=(64, 5))
        y = rng.integers(0, 3, 64)
        arrays = [x, y] + model.weights + model.biases + masks
        before = bits(arrays)
        loss, grads_w, grads_b = loss_and_gradients(model, x, y, weight_decay)
        assert bits(arrays) == before
        want_loss, want_w, want_b = reference_loss_and_gradients(model, x, y, weight_decay)
        assert bits([loss]) == bits([want_loss])
        assert bits(grads_w + grads_b) == bits(want_w + want_b)


class TestPruningRamp:
    """Every event of the cubic ramp (Zhu & Gupta 2017) masks exactly round(s(t)*n)."""

    @pytest.mark.parametrize("steps", [85, 120])
    def test_sparsity_at_every_event(self, monkeypatch, steps):
        # 85 - 10 is no multiple of 10: the event at prune_end comes off the grid
        schedule = PruneSchedule(0.9, 10, 85, 10)
        calls = 0
        seen = []
        real_step, real_refresh = trainer.loss_and_gradients, trainer._refresh_masks

        def counting_step(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real_step(*args, **kwargs)

        def recording_refresh(tensors, target):
            masks = real_refresh(tensors, target)
            seen.append((calls, target, [t.size - np.count_nonzero(t) for t in tensors]))
            return masks

        monkeypatch.setattr(trainer, "loss_and_gradients", counting_step)
        monkeypatch.setattr(trainer, "_refresh_masks", recording_refresh)
        ds = tiny_dataset()
        config = small_config(steps=steps, hidden_dims=(16, 8), population_size=1)
        models, _ = train_population(
            ds, ds, config, CompressionSpec("magnitude_prune", 0.9), schedule
        )
        assert [step for step, _, _ in seen] == list(range(10, 85, 10)) + [85]
        sizes = [w.size for w in models[0].weights]
        for step, target, zeros in seen:
            assert target == 0.9 * (1.0 - (1.0 - (step - 10) / 75) ** 3), step
            assert zeros == [round(target * n) for n in sizes], step


SNAPSHOT_CASES = [
    pytest.param(CompressionSpec("magnitude_prune", 0.5), PruneSchedule(0.5, 10, 80, 10),
                 id="prune"),
    pytest.param(CompressionSpec("quant_fixed_int8"), None, id="fixed_int8"),
]


class TestSnapshots:
    @staticmethod
    def trained(spec, schedule):
        ds = tiny_dataset()
        config = small_config(steps=100, population_size=1)
        models, _ = train_population(ds, ds, config, spec, schedule)
        return models[0]

    def assert_roundtrip(self, tmp_path, spec, schedule):
        model = self.trained(spec, schedule)
        path = tmp_path / "model.json"
        save_model(model, spec, path)
        back, back_spec = load_model(path)
        assert back_spec == spec
        assert bits(back.weights + back.biases) == bits(model.weights + model.biases)
        assert back.activation_ranges == model.activation_ranges
        return back

    def test_roundtrip(self, tmp_path):
        spec, schedule = SNAPSHOT_CASES[0].values
        assert self.assert_roundtrip(tmp_path, spec, schedule).activation_ranges is None

    def test_fixed_int8_roundtrip_keeps_ranges(self, tmp_path):
        spec, schedule = SNAPSHOT_CASES[1].values
        back = self.assert_roundtrip(tmp_path, spec, schedule)
        assert len(back.activation_ranges) == len(back.weights)

    def test_snapshot_holds_no_masks(self, tmp_path):
        spec, schedule = SNAPSHOT_CASES[0].values
        save_model(self.trained(spec, schedule), spec, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert set(doc) == {"layer_dims", "weights", "biases", "compression", "activation_ranges"}

    @pytest.mark.parametrize("spec, schedule", SNAPSHOT_CASES)
    def test_snapshot_with_masks_still_loads(self, tmp_path, spec, schedule):
        """Older snapshots also stored the training masks; the loader ignores them."""
        model = self.trained(spec, schedule)
        ranges = model.activation_ranges
        doc = {
            "layer_dims": list(model.layer_dims),
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
            "weight_masks": [(w != 0).astype(int).tolist() for w in model.weights],
            "bias_masks": [np.ones(b.shape, dtype=int).tolist() for b in model.biases],
            "compression": {"method": spec.method, "sparsity": spec.sparsity},
            "activation_ranges": None if ranges is None else [list(r) for r in ranges],
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc) + "\n")
        back, back_spec = load_model(path)
        assert back_spec == spec
        assert bits(back.weights + back.biases) == bits(model.weights + model.biases)
        assert back.activation_ranges == ranges
        x = tiny_dataset().feature_matrix
        assert bits([back.logits(x)]) == bits([model.logits(x)])

    def test_layer_dims_off_the_arrays(self, tmp_path):
        path = tmp_path / "snap.json"
        save_model(self.trained(CompressionSpec("none"), None), CompressionSpec("none"), path)
        doc = json.loads(path.read_text())
        assert doc["layer_dims"] == [4, 16, 3]
        path.write_text(json.dumps({**doc, "layer_dims": [4, 17, 3]}))
        with pytest.raises(ShapeError, match="snap.json: layer_dims do not match the stored arrays"):
            load_model(path)

    @pytest.mark.parametrize("doc", [
        {},
        {"layer_dims": [1, 1], "weights": [[[1.0]]], "biases": [[0.0]]},
        {"layer_dims": [2, 1], "weights": [[[1.0], [2.0, 3.0]]], "biases": [[0.0]],
         "weight_masks": [[[1], [1]]], "bias_masks": [[1]],
         "compression": {"method": "none"}},
        [1, 2],
    ])
    def test_malformed_snapshot_names_the_file(self, tmp_path, doc):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="snap.json"):
            load_model(path)


def log_features(ds):
    order = np.argsort(ds.example_ids, kind="stable")
    return ds.feature_matrix[order]
