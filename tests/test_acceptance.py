"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the desk-scale experiment (criterion 7) trains 50 small MLPs and
dominates the runtime.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import compresslens as cl
from compresslens.pipeline import ExperimentConfig, run_pipeline
from compresslens.synth import synthesize
from compresslens.trainer import (
    MLPModel,
    PruneSchedule,
    QuantizationScheme,
    TrainConfig,
    loss_and_gradients,
    quantize_model,
    train_population,
)

from oracles import pie_brute_force, welch_oracle


def _report(criterion: str, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: PASS{' — ' + detail if detail else ''}")


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_welch_oracle_equivalence():
    rng = np.random.default_rng(314159)
    start = time.perf_counter()
    worst_p = worst_t = worst_df = 0.0
    for _ in range(200):
        na, nb = rng.integers(2, 51, size=2)
        loc = rng.normal(0, 0.5)
        scale_a, scale_b = rng.uniform(0.01, 2.0, size=2)
        a = rng.normal(0.0, scale_a, na)
        b = rng.normal(loc, scale_b, nb)
        mine = cl.welch_t_test(a, b)
        t, df, p = welch_oracle(a, b)
        worst_p = max(worst_p, abs(mine.p_value - p))
        worst_t = max(worst_t, abs(mine.t_stat - t) / max(1.0, abs(t)))
        worst_df = max(worst_df, abs(mine.df - df) / max(1.0, abs(df)))
        assert abs(mine.p_value - p) < 1e-9
        assert mine.t_stat == pytest.approx(t, abs=1e-12, rel=1e-12)
        assert mine.df == pytest.approx(df, abs=1e-12, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        "1 (Welch oracle equivalence)",
        f"200 pairs, max |dp|={worst_p:.2e}, max rel dt={worst_t:.2e}, "
        f"max rel ddf={worst_df:.2e}, {elapsed:.2f}s",
    )


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_robustness_normalization_reference_rows():
    rows = [
        ("shot_noise", 30.80, 43.82, -29.71),
        ("contrast", 38.04, 42.30, -10.06),
        ("gaussian_noise", 32.88, 45.43, -27.64),
        ("brightness", 64.12, 69.49, -7.74),
    ]
    for kind, comp, base, printed in rows:
        got = cl.relative_accuracy(comp, base)
        assert got == pytest.approx(printed, abs=0.05), kind
    _report("2 (robustness normalization vs reference)", "4 rows within ±0.05pp")


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_normalized_recall_difference_exactness():
    base = cl.ClassAccuracySample(
        0, cl.mean_shift(np.array([0.9, 0.9]), np.array([0.8, 0.8]))
    )
    comp = cl.ClassAccuracySample(
        0, cl.mean_shift(np.array([0.6, 0.6]), np.array([0.78, 0.78]))
    )
    diff = cl.normalized_recall_difference(base, comp)
    assert diff == pytest.approx(-0.28, abs=1e-15)

    same = cl.ClassAccuracySample(1, np.array([0.12, -0.03, 0.07]))
    assert cl.normalized_recall_difference(same, same) == 0.0
    _report("3 (normalized recall difference exactness)", f"hand case = {diff}")


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_pie_brute_force_equivalence():
    rng = np.random.default_rng(271828)
    start = time.perf_counter()
    for trial in range(500):
        C = int(rng.integers(2, 6))
        N = int(rng.integers(1, 51))
        K = int(rng.integers(1, 8))
        base_preds = rng.integers(0, C, (K, N))
        comp_preds = rng.integers(0, C, (K, N))
        truth = rng.integers(0, C, N)

        def log(preds, pid):
            return cl.PredictionLog(
                population_id=pid,
                compression=cl.CompressionSpec("none"),
                example_ids=np.arange(N),
                truth=truth,
                predictions=preds[:, :, np.newaxis],
            )

        pies = cl.identify_pies(log(base_preds, "b"), log(comp_preds, "c"))
        expected = pie_brute_force(
            {i: base_preds[:, i].tolist() for i in range(N)},
            {i: comp_preds[:, i].tolist() for i in range(N)},
        )
        assert list(pies.pie_ids) == expected, f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("4 (PIE brute-force equivalence)", f"500 log pairs, {elapsed:.2f}s")


# -- 5 -----------------------------------------------------------------------

def _tiny_dataset(seed=0, n=150, d=5, C=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 2, (C, d))
    examples = tuple(
        cl.ExampleRecord(
            example_id=i,
            features=centers[i % C] + rng.normal(0, 0.5, d),
            true_label=i % C,
        )
        for i in range(n)
    )
    return cl.LabeledDataset(examples=examples, num_classes=C)


def test_criterion_5_sparsity_and_quantization_invariants():
    ds = _tiny_dataset()
    for t in (0.3, 0.5, 0.7, 0.9):
        config = TrainConfig(
            steps=120, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=1e-4, seed=0, population_size=1, hidden_dims=(13,),
            prune_biases=True,
        )
        models, _ = train_population(
            ds, ds, config,
            cl.CompressionSpec("magnitude_prune", t),
            PruneSchedule(t, 10, 90, 10),
        )
        for w in models[0].weights:
            assert np.count_nonzero(w) == w.size - round(t * w.size), (t, w.shape)
        for b in models[0].biases:
            assert np.count_nonzero(b) == b.size - round(t * b.size), (t, b.shape)

    rng = np.random.default_rng(99)
    w = rng.normal(0, 1, (200, 50))
    model = MLPModel([w], [np.zeros(50)])
    q = quantize_model(model, QuantizationScheme("dynamic_int8"))
    scale = np.abs(w).max() / 127.0
    assert np.max(np.abs(q.weights[0] - w)) <= scale / 2 + 1e-12

    vals = rng.normal(0, 10, 10_000)
    m = MLPModel([vals.reshape(-1, 1)], [np.zeros(1)])
    once = quantize_model(m, QuantizationScheme("float16"))
    twice = quantize_model(once, QuantizationScheme("float16"))
    np.testing.assert_array_equal(once.weights[0], twice.weights[0])
    _report(
        "5 (sparsity and quantization invariants)",
        "exact counts at t in {0.3,0.5,0.7,0.9}; int8 bound; float16 idempotent "
        "on 10,000 weights",
    )


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_h0_calibration():
    rng = np.random.default_rng(424242)
    trials = 2000
    rejections = 0
    for _ in range(trials):
        a = rng.normal(0.0, 0.04, 10)
        b = rng.normal(0.0, 0.04, 10)
        if cl.welch_t_test(a, b).p_value <= 0.05:
            rejections += 1
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07
    _report("6 (H0 calibration)", f"rejection rate {rate:.4f} over {trials} trials")


# -- 7 -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    config = ExperimentConfig(out_dir=str(out / "bundle"))
    start = time.perf_counter()
    result = run_pipeline(config)
    elapsed = time.perf_counter() - start
    return config, result, elapsed


@pytest.mark.slow
def test_criterion_7_end_to_end_desk_scale(desk_run):
    config, result, elapsed = desk_run
    assert elapsed < 180.0, f"pipeline took {elapsed:.0f}s"

    summary = result.summary
    by_sparsity = {e["sparsity"]: e for e in summary["levels"]}
    level9 = by_sparsity[0.9]

    # (a) top-line shift at t=0.9 bounded by 3pp
    delta = abs(summary["baseline"]["top1"] - level9["top1"])
    assert delta <= 3.0, f"top-1 delta {delta:.2f}pp"

    # (b) a below-median-frequency class is significantly harmed
    base_log = cl.read_prediction_log(result.log_paths["baseline"])
    comp_log = cl.read_prediction_log(result.log_paths["prune_0.9"])
    rows = cl.audit_classes(base_log, comp_log, config.audit)
    support = np.bincount(base_log.truth, minlength=base_log.num_classes)
    median = np.median(support)
    harmed = [
        r.class_id
        for r in rows
        if support[r.class_id] < median and r.significant and r.norm_recall_diff < 0
    ]
    assert harmed, "no below-median class flagged significant negative"

    # (c) PIEs exist and are much harder for the baseline population
    pies = cl.identify_pies(base_log, comp_log)
    assert len(pies.pie_ids) > 0
    acc_pie, acc_non, _ = cl.subset_accuracy(base_log, pies, 1)
    gap = 100 * (acc_non - acc_pie)
    assert gap >= 15.0, f"PIE gap {gap:.1f}pp"

    # (d) minority and noisy attributes over-represented among PIEs
    _, test_ds = synthesize(config.synth)
    ratios = cl.attribute_relative_representation(pies, test_ds)
    assert ratios["minority"] > 1.2, ratios
    assert ratios["noisy"] > 1.2, ratios

    # (e) PIE counts non-decreasing in sparsity
    counts = [by_sparsity[t]["pie_count"] for t in (0.3, 0.5, 0.7, 0.9)]
    assert all(x <= y for x, y in zip(counts, counts[1:])), counts

    _report(
        "7 (end-to-end desk-scale experiment)",
        f"delta={delta:.2f}pp, harmed classes={harmed}, gap={gap:.1f}pp, "
        f"rel_rep(minority)={ratios['minority']:.2f}, "
        f"rel_rep(noisy)={ratios['noisy']:.2f}, pie_counts={counts}, "
        f"{elapsed:.0f}s",
    )


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_gradient_check():
    rng = np.random.default_rng(7)
    model = MLPModel.initialize((8, 16, 4), rng)
    x = rng.normal(size=(20, 8))
    y = rng.integers(0, 4, 20)
    wd = 1e-3
    _, grads_w, grads_b = loss_and_gradients(model, x, y, wd)

    analytic = np.concatenate(
        [g.ravel() for g in grads_w] + [g.ravel() for g in grads_b]
    )
    numeric = np.empty_like(analytic)
    eps = 1e-5
    pos = 0
    for arr in model.weights + model.biases:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _, _ = loss_and_gradients(model, x, y, wd)
            flat[i] = orig - eps
            down, _, _ = loss_and_gradients(model, x, y, wd)
            flat[i] = orig
            numeric[pos] = (up - down) / (2 * eps)
            pos += 1
    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    assert rel < 1e-4, f"relative gradient error {rel:.2e}"
    _report("8 (gradient check)", f"relative error {rel:.2e} on [8, 16, 4]")


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    config_kwargs = dict(
        train=TrainConfig(
            steps=200, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
            weight_decay=1e-4, population_size=3, hidden_dims=(16,),
            prune_biases=False,
        ),
        sweep=(
            cl.CompressionSpec("none"),
            cl.CompressionSpec("magnitude_prune", 0.5),
            cl.CompressionSpec("quant_dynamic_int8"),
        ),
        synth=cl.SynthLongTailSpec(
            num_classes=5, dim=8, train_count=500, test_count=200, seed=1
        ),
        seed=11,
        prune_start=20,
        prune_end=140,
        prune_every=10,
    )
    run_pipeline(ExperimentConfig(out_dir=str(tmp_path / "a"), **config_kwargs))
    run_pipeline(ExperimentConfig(out_dir=str(tmp_path / "b"), **config_kwargs))

    files_a = sorted(
        p.relative_to(tmp_path / "a")
        for p in (tmp_path / "a").rglob("*")
        if p.is_file()
    )
    files_b = sorted(
        p.relative_to(tmp_path / "b")
        for p in (tmp_path / "b").rglob("*")
        if p.is_file()
    )
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (
            tmp_path / "b" / rel
        ).read_bytes(), rel
    _report("9 (pipeline determinism)", f"{len(files_a)} files byte-identical")
