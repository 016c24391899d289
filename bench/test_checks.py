"""Tests of the benchmark's own checks: each must pass on the program's output
and fail on a deliberately wrong one.

Run from the repository root:  python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import logsynth  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _rewrite_csv(path: Path, edit) -> None:
    header, rows = checks.read_csv_rows(path)
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


# ---------------------------------------------------------------------------
# audit_logs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def audit_out(tmp_path_factory):
    wl = workloads.AuditLogs()
    inputs = tmp_path_factory.mktemp("inputs")
    out = tmp_path_factory.mktemp("out")
    arrays = logsynth.generate(5, num_examples=3000)
    wl.save_arrays(inputs, arrays)
    with contextlib.redirect_stdout(io.StringIO()):
        for _, op in wl.ops({"inputs": str(inputs)}, out):
            assert op() in (None, 0)
    return out, wl.arrays(inputs)


def _fresh_copy(audit_out, tmp_path):
    out, arrays = audit_out
    shutil.copytree(out, tmp_path / "out")
    return tmp_path / "out", arrays


def test_audit_logs_output_passes(audit_out):
    out, arrays = audit_out
    assert checks.audit_logs_problems(out, arrays, list(logsynth.POPULATIONS)) == []


def test_pie_set_with_one_id_dropped_fails(audit_out, tmp_path):
    out, arrays = _fresh_copy(audit_out, tmp_path)

    def drop_one(rows):
        first = next(r for r in rows if r[4] == "1")
        first[4] = "0"

    _rewrite_csv(out / "pies" / "prune_0.9" / "pie.csv", drop_one)
    problems = checks.audit_logs_problems(out, arrays, list(logsynth.POPULATIONS))
    assert any("pie.csv" in p for p in problems)


def test_p_value_off_fails(audit_out, tmp_path):
    out, arrays = _fresh_copy(audit_out, tmp_path)

    def nudge(rows):
        rows[-1][6] = f"{float(rows[-1][6]) + 1e-5:.6f}"

    _rewrite_csv(out / "audits" / "class_dynamic_int8.csv", nudge)
    problems = checks.audit_logs_problems(out, arrays, list(logsynth.POPULATIONS))
    assert any("p_value" in p for p in problems)


def test_missed_harmed_class_fails(audit_out, tmp_path):
    out, arrays = _fresh_copy(audit_out, tmp_path)

    def unflag(rows):
        rows[0][7] = "0"

    _rewrite_csv(out / "audits" / "class_prune_0.9.csv", unflag)
    problems = checks.audit_logs_problems(out, arrays, list(logsynth.POPULATIONS))
    assert any("significant classes" in p for p in problems)


def test_attribute_ratio_off_fails(audit_out, tmp_path):
    out, arrays = _fresh_copy(audit_out, tmp_path)
    path = out / "pies" / "prune_0.9" / "pie_summary.json"
    doc = json.loads(path.read_text())
    doc["attribute_relative_representation"]["noisy"] += 1e-9
    path.write_text(json.dumps(doc))
    problems = checks.audit_logs_problems(out, arrays, list(logsynth.POPULATIONS))
    assert any("noisy ratio" in p for p in problems)


def test_log_read_back_mismatch_fails(audit_out, tmp_path):
    out, arrays = _fresh_copy(audit_out, tmp_path)
    path = out / "logs" / "baseline.csv"
    lines = path.read_text().splitlines()
    # rows run (model, example, rank): lines 1..TOPK rank one example of model 0
    used = {line.split(",")[6] for line in lines[1:logsynth.TOPK + 1]}
    cells = lines[1].split(",")
    cells[6] = next(str(c) for c in range(logsynth.NUM_CLASSES) if str(c) not in used)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.audit_logs_problems(out, arrays, list(logsynth.POPULATIONS))
    assert any("read back" in p for p in problems)


def test_chart_order_swapped_fails(audit_out, tmp_path):
    out, arrays = _fresh_copy(audit_out, tmp_path)
    _rewrite_csv(out / "reports" / "prune_0.9" / "chart.csv", lambda rows: rows.reverse())
    problems = checks.audit_logs_problems(out, arrays, list(logsynth.POPULATIONS))
    assert any("chart.csv" in p for p in problems)


def test_construction_fixes_every_modal_label():
    arrays = logsynth.generate(11, num_examples=3000)
    for label in ["baseline", *logsynth.POPULATIONS]:
        rank1 = arrays[f"pred:{label}"][:, :, 0]
        modal = arrays[f"modal:{label}"]
        votes = (rank1 == modal[None, :]).sum(axis=0)
        assert votes.min() >= logsynth.NUM_MODELS - logsynth.MAX_DISSENT
        assert np.array_equal(checks.modal_votes(rank1), modal)


# ---------------------------------------------------------------------------
# desk_run (a small configuration of the same pipeline)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_bundle(tmp_path_factory):
    import compresslens as cl
    from compresslens.pipeline import ExperimentConfig, run_pipeline

    out = tmp_path_factory.mktemp("desk") / "bundle"
    config = ExperimentConfig(
        train=cl.TrainConfig(steps=200, batch_size=32, lr_decay_steps=None, population_size=3,
                             hidden_dims=(16,), prune_biases=False),
        sweep=(cl.CompressionSpec("none"), cl.CompressionSpec("magnitude_prune", 0.5),
               cl.CompressionSpec("magnitude_prune", 0.9)),
        synth=cl.SynthLongTailSpec(num_classes=5, dim=8, train_count=500, test_count=300, seed=2),
        seed=7, out_dir=str(out), prune_start=20, prune_end=140, prune_every=20,
    )
    run_pipeline(config)
    return out


def _desk_problems(bundle, summary=None, pie_ids=None):
    recount = checks.desk_recount(bundle)
    summary = summary or json.loads((bundle / "summary.json").read_text())
    if pie_ids is None:
        pie_ids = {}
        for label in recount["levels"]:
            _, rows = checks.read_csv_rows(bundle / "pies" / f"pie_{label}.csv")
            pie_ids[label] = {int(r[0]) for r in rows if r[4] == "1"}
    return checks.desk_summary_problems(summary, recount, pie_ids)


def test_desk_bundle_passes(desk_bundle):
    assert _desk_problems(desk_bundle) == []


@pytest.mark.parametrize("key", ["top1", "top5"])
def test_summary_accuracy_off_by_a_hundredth_fails(desk_bundle, key):
    summary = json.loads((desk_bundle / "summary.json").read_text())
    summary["levels"][1][key] += 0.01
    assert any(key in p for p in _desk_problems(desk_bundle, summary=summary))


def test_summary_pie_count_off_fails(desk_bundle):
    summary = json.loads((desk_bundle / "summary.json").read_text())
    summary["levels"][0]["pie_count"] += 1
    assert any("pie_count" in p for p in _desk_problems(desk_bundle, summary=summary))


def test_summary_significance_off_fails(desk_bundle):
    summary = json.loads((desk_bundle / "summary.json").read_text())
    summary["levels"][1]["significant_classes"] += 1
    assert any("significant" in p for p in _desk_problems(desk_bundle, summary=summary))


def test_pie_csv_disagreeing_with_logs_fails(desk_bundle):
    recount = checks.desk_recount(desk_bundle)
    pie_ids = {label: set(lv["pie_ids"]) for label, lv in recount["levels"].items()}
    pie_ids["prune_0.9"].add(-1)
    assert any("PIE CSV" in p for p in _desk_problems(desk_bundle, pie_ids=pie_ids))


def _recount_for_properties():
    """A recount shaped like the desk sweep, on which every property holds."""
    levels = {}
    for s, n in (("0.3", 2), ("0.5", 3), ("0.7", 3), ("0.9", 6)):
        levels[f"prune_{s}"] = {
            "top1": 94.0, "pie_ids": set(range(n)),
            "base_top1_on_pies": 40.0, "base_top1_on_non_pies": 96.0,
            "classes": [{"class": 3, "p": 0.001, "diff": -0.2}, {"class": 0, "p": 0.5, "diff": 0.01}],
        }
    recount = {"baseline": {"top1": 95.0}, "levels": levels, "support": np.array([50, 40, 30, 5])}
    ids = np.arange(20)
    attrs = {"minority": (ids, ids < 6), "noisy": (ids, ids % 4 == 0)}
    return recount, attrs


def test_paper_properties_hold_and_each_can_fail():
    recount, attrs = _recount_for_properties()
    assert all(ok for ok, _ in checks.desk_paper_properties(recount, attrs).values())

    def broken(edit):
        r, a = copy.deepcopy(recount), copy.deepcopy(attrs)
        edit(r, a)
        return {k for k, (ok, _) in checks.desk_paper_properties(r, a).items() if not ok}

    assert broken(lambda r, a: r["levels"]["prune_0.9"].update(top1=91.9)) == {"top1_delta"}
    assert broken(lambda r, a: r["levels"]["prune_0.9"]["classes"][0].update(p=0.051)) == {"harmed_class"}
    assert broken(lambda r, a: r["levels"]["prune_0.9"].update(base_top1_on_pies=81.5)) == {"pie_gap"}
    assert broken(lambda r, a: a.update(noisy=(np.arange(20), np.arange(20) >= 10))) == {"noisy"}
    assert broken(lambda r, a: r["levels"]["prune_0.5"].update(pie_ids=set(range(4)))) == {
        "pie_counts_monotone"
    }


# ---------------------------------------------------------------------------
# robustness (small sizes)
# ---------------------------------------------------------------------------

class _SmallRobustness(workloads.Robustness):
    LAYOUT = (4, 4)
    MODELS = 2
    TRAIN_COUNT = 600
    TEST_COUNT = 200
    STEPS = 150


@pytest.fixture(scope="module")
def robustness_out(tmp_path_factory):
    wl = _SmallRobustness()
    inputs = tmp_path_factory.mktemp("rinputs")
    out = tmp_path_factory.mktemp("rout")
    spec = {**wl.setup(inputs, 3), "inputs": str(inputs)}
    with contextlib.redirect_stdout(io.StringIO()):
        for _, op in wl.ops(spec, out):
            assert op() == 0
    return wl, spec, inputs, out


def test_robustness_output_passes(robustness_out):
    wl, spec, inputs, out = robustness_out
    assert wl.check(spec, inputs, out)[0] == []


def test_robustness_row_with_flipped_sign_fails(robustness_out):
    wl, spec, inputs, out = robustness_out
    _, rows = checks.read_csv_rows(out / "robustness.csv")
    split = checks.read_test_split(inputs / "data")
    snaps = {d: [checks.read_snapshot(p) for p in sorted((inputs / d).glob("model_*.json"))]
             for d in ("base", "pruned")}
    expected = checks.robustness_expected(split, snaps["base"], snaps["pruned"],
                                          workloads.CORRUPTION_KINDS, 3)
    assert checks.robustness_row_problems(rows, expected) == []
    flipped = copy.deepcopy(rows)
    row = max(flipped, key=lambda r: abs(float(r[4])))
    row[4] = f"{-float(row[4]):.2f}"
    assert checks.robustness_row_problems(flipped, expected)
    short = copy.deepcopy(rows)[:-1]
    assert checks.robustness_row_problems(short, expected)


def test_self_comparison_must_be_zero():
    kinds = ["brightness", "contrast"]
    good = [["brightness", "0", "50.00", "80.00", "0.00", "0.00"],
            ["contrast", "0", "40.00", "70.00", "0.00", "0.00"]]
    assert checks.self_compare_problems(good, kinds) == []
    bad = copy.deepcopy(good)
    bad[1][5] = "-0.01"
    assert checks.self_compare_problems(bad, kinds)
    assert checks.self_compare_problems(good[:1], kinds)


# ---------------------------------------------------------------------------
# harness pieces
# ---------------------------------------------------------------------------

def test_welch_mp_matches_a_hand_case():
    # means 2.5 and 5, variances 5/3 and 20/3: t = -sqrt(3), df = 75/17
    t, df, p = checks.welch_mp([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
    assert t == pytest.approx(-3 ** 0.5, rel=1e-15)
    assert df == pytest.approx(75 / 17, rel=1e-15)
    assert p == pytest.approx(0.15158050484530375, rel=1e-12)


def test_record_digest_flags_a_changed_output(tmp_path):
    assert run.record_digest(tmp_path, "desk_run:1:abc", "d1") == []
    assert run.record_digest(tmp_path, "desk_run:1:abc", "d1") == []
    assert run.record_digest(tmp_path, "desk_run:1:abc", "d2")


def test_layer_metrics_self_time_and_kinds():
    spans = [
        [0, None, "robustness.robustness_report", 0.0, 10.0, None],
        [1, 0, "robustness.corrupt_features", 1.0, 2.0, {"kind": "brightness"}],
        [2, 0, "trainer.MLPModel.logits", 2.0, 4.0, None],
        [3, 0, "robustness.corrupt_features", 5.0, 6.0, {"kind": "contrast"}],
        [4, 0, "trainer.MLPModel.logits", 6.0, 7.0, None],
    ]
    m = tracer.layer_metrics(spans)
    assert m["robustness.report_self_s"] == pytest.approx(10.0 - 1.0 - 2.0 - 1.0 - 1.0)
    assert m["robustness.brightness_s"] == pytest.approx(4.0)
    assert m["robustness.contrast_s"] == pytest.approx(5.0)
    assert m["robustness.corrupt_features_calls"] == 2
    assert m["trainer.logits_ms"] == pytest.approx(3000.0)


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
