"""Tests for training, pruning, and quantization."""

import json
import tracemalloc

import numpy as np
import pytest

from compresslens import trainer
from compresslens.data_model import CompressionSpec, ExampleRecord, LabeledDataset
from compresslens.errors import ConfigError, DivergenceError, SchemaError, ShapeError
from compresslens.synth import SynthLongTailSpec, synthesize
from compresslens.trainer import (
    MLPModel,
    PruneSchedule,
    QuantizationScheme,
    TrainConfig,
    apply_magnitude_mask,
    evaluate_population,
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
        lr_decay_factor=1.0,
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
        logits = q.logits(np.array([10.0, -10.0]))
        assert logits[0] == 1.0 and logits[1] == 0.0

    def test_quantization_does_not_mutate_input(self):
        w = np.array([[0.3, -0.6]])
        model = MLPModel([w.copy()], [np.zeros(2)])
        quantize_model(model, QuantizationScheme("dynamic_int8"))
        np.testing.assert_array_equal(model.weights[0], w)


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
        assert bits([model.logits(x[4])]) == bits([forward(x[4:5])[0]])

    def test_logits_hold_one_hidden_activation(self):
        """Each hidden layer is rectified in place: no (N, hidden) copy beside it."""
        rng = np.random.default_rng(7)
        model = MLPModel.initialize((16, 320, 10), rng)
        x = rng.normal(size=(2000, 16))
        tracemalloc.start()
        try:
            model.logits(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 2000 * 320 * 8

    def test_training_never_clamps(self):
        model, x = self.two_hidden_layers(seed=5)
        y = np.arange(len(x)) % 3
        calibrated = quantize_model(model, QuantizationScheme("fixed_int8"), x[:2])
        plain = calibrated.copy()
        plain.activation_ranges = None
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

    def test_quantized_population(self):
        ds = tiny_dataset()
        config = small_config(population_size=1)
        models, log = train_population(
            ds, ds, config, CompressionSpec("quant_fixed_int8")
        )
        assert models[0].activation_ranges is not None
        assert log.compression.method == "quant_fixed_int8"

    def test_log_independent_of_split_row_order(self):
        ds = tiny_dataset(n=121)
        models, log = train_population(ds, ds, small_config(hidden_dims=(16, 8)))
        order = np.random.default_rng(0).permutation(len(ds))
        shuffled = LabeledDataset.from_arrays(
            ds.example_ids[order], ds.labels[order], ds.feature_matrix[order], ds.num_classes
        )
        got = evaluate_population(models, shuffled, log.compression, log.population_id)
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
                             lr_decay_steps=50, lr_decay_factor=0.3),
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
        got = trainer._train_single(ds, config, compression, schedule, 11)
        want = reference_train_single(ds, config, compression, schedule, 11)
        for field in ("weights", "biases", "weight_masks", "bias_masks"):
            assert bits(getattr(got, field)) == bits(getattr(want, field)), field
        assert got.activation_ranges == want.activation_ranges

    def test_divergence_names_the_reference_step(self):
        ds = self.small_synth()
        config = small_config(steps=300, learning_rate=60.0, lr_decay_steps=None)
        with pytest.raises(DivergenceError) as want:
            reference_train_single(ds, config, CompressionSpec("none"), None, 0)
        with pytest.raises(DivergenceError) as got:
            trainer._train_single(ds, config, CompressionSpec("none"), None, 0)
        assert str(got.value) == str(want.value)
        assert int(str(got.value).rsplit(" ", 1)[1]) >= 10  # diverged mid-run, not at once

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_loss_and_gradients_leave_inputs_alone(self, weight_decay):
        # at 64 rows the summation order of the loss shows in its last bits
        rng = np.random.default_rng(8)
        model = MLPModel.initialize((5, 9, 7, 3), rng)
        for tensors, masks in ((model.weights, model.weight_masks), (model.biases, model.bias_masks)):
            for i, t in enumerate(tensors):
                t += rng.normal(size=t.shape)  # nonzero biases, so their masks bite
                masks[i] = apply_magnitude_mask(t, 0.4)
                t *= masks[i]
        x = rng.normal(size=(64, 5))
        y = rng.integers(0, 3, 64)
        arrays = [x, y] + model.weights + model.biases + model.weight_masks + model.bias_masks
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

        def recording_refresh(model, config, target):
            real_refresh(model, config, target)
            seen.append((calls, target, [w.size - np.count_nonzero(w) for w in model.weights]))

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


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        spec = CompressionSpec("magnitude_prune", 0.5)
        models, _ = train_population(
            ds,
            ds,
            small_config(steps=100, population_size=1),
            spec,
            PruneSchedule(0.5, 10, 80, 10),
        )
        path = tmp_path / "model.json"
        save_model(models[0], spec, path)
        back, back_spec = load_model(path)
        assert back_spec == spec
        for a, b in zip(back.weights, models[0].weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.weight_masks, models[0].weight_masks):
            np.testing.assert_array_equal(a, b)

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
