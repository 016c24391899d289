"""End-to-end CLI tests on a miniature dataset (fast settings throughout)."""

import copy
import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compresslens
from compresslens import cli, pipeline, robustness, trainer
from compresslens.cli import main
from compresslens.data_model import (
    LOG_HEADER,
    AuditConfig,
    CompressionSpec,
    LabeledDataset,
    read_dataset,
    read_prediction_log,
    write_dataset,
    write_prediction_log,
)
from compresslens.errors import CompressLensError, ConfigError, ParseError
from compresslens.pie_audit import ATTR_HEADER, PIE_HEADER, read_pie_report
from compresslens.pipeline import (
    ExperimentConfig,
    audit_level,
    load_experiment_config,
    run_pipeline,
)
from compresslens.stats_audit import AUDIT_HEADER, audit_classes, read_audit_csv, write_audit_csv
from compresslens.synth import SynthLongTailSpec, generate
from compresslens.trainer import (
    MLPModel,
    TrainConfig,
    prune_schedule,
    prune_window,
    save_model,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = main([
        "generate", "--out", str(root),
        "--classes", "4", "--dim", "6",
        "--train-count", "400", "--test-count", "160",
        "--seed", "1",
    ])
    assert rc == 0
    return root


TRAIN_FAST = [
    "--models", "3", "--steps", "120", "--batch-size", "32",
    "--lr", "0.1", "--hidden", "16",
]


def resolved_window(config: ExperimentConfig) -> tuple[int, int, int]:
    """The (start, end, every) that `run` prunes a level of `config` on."""
    s = prune_schedule(
        CompressionSpec("magnitude_prune", 0.5),
        config.train.steps, config.prune_start, config.prune_end, config.prune_every,
    )
    return s.prune_start, s.prune_end, s.prune_every


@pytest.fixture(scope="module")
def logs(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("logs")
    base = out / "base.csv"
    comp = out / "comp.csv"
    rc = main([
        "train", "--data", str(data_dir), "--out", str(base),
        "--seed", "0", "--save-models", str(out / "base_models"), *TRAIN_FAST,
    ])
    assert rc == 0
    rc = main([
        "train", "--data", str(data_dir), "--out", str(comp),
        "--seed", "50", "--sparsity", "0.8",
        "--prune-start", "10", "--prune-end", "90", "--prune-every", "10",
        "--save-models", str(out / "comp_models"), *TRAIN_FAST,
    ])
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_files(self, data_dir):
        assert (data_dir / "train.csv").exists()
        assert (data_dir / "test.csv").exists()
        assert (data_dir / "train.meta.json").exists()


class TestTrain:
    def test_log_and_snapshots(self, logs):
        assert (logs / "base.csv").exists()
        snaps = sorted((logs / "base_models").glob("model_*.json"))
        assert len(snaps) == 3

    def test_quant_and_sparsity_conflict(self, data_dir, tmp_path):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "x.csv"),
            "--sparsity", "0.5", "--quant", "float16", *TRAIN_FAST,
        ])
        assert rc == 2

    def test_quantized_population(self, data_dir, tmp_path):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "q.csv"),
            "--quant", "dynamic_int8", "--seed", "2", *TRAIN_FAST,
        ])
        assert rc == 0
        head = (tmp_path / "q.csv").read_text().split("\n")[1]
        assert "quant_dynamic_int8" in head


    def test_omitted_flags_keep_train_config_defaults(
        self, data_dir, tmp_path, monkeypatch
    ):
        seen = {}

        def stop_before_training(train_ds, test_ds, config, *args, **kwargs):
            seen["config"] = config
            raise ConfigError("stopped before training")

        monkeypatch.setattr(cli, "train_population", stop_before_training)
        main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x.csv")])
        assert seen["config"] == TrainConfig()


class TestAudits:
    def test_audit_classes(self, logs, tmp_path):
        out = tmp_path / "audit.csv"
        rc = main([
            "audit-classes", "--base", str(logs / "base.csv"),
            "--comp", str(logs / "comp.csv"), "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 4 classes

    # the smallest of the four p-values on these logs is 0.387: alpha 0.5 flags
    # its class, alpha 0.5 / 4 classes (Bonferroni) flags none
    @pytest.mark.parametrize("flags, config, flagged", [
        ([], AuditConfig(), 0),
        (["--alpha", "0.5"], AuditConfig(alpha=0.5), 1),
        (["--alpha", "0.5", "--bonferroni"], AuditConfig(alpha=0.5, bonferroni=True), 0),
    ])
    def test_audit_classes_alpha_and_bonferroni(self, logs, tmp_path, flags, config, flagged):
        """The flags reach the audit: the CSV is that of the library call with their config."""
        out = tmp_path / "audit.csv"
        rc = main([
            "audit-classes", "--base", str(logs / "base.csv"),
            "--comp", str(logs / "comp.csv"), "--out", str(out), *flags,
        ])
        assert rc == 0
        base, comp = (read_prediction_log(logs / name) for name in ("base.csv", "comp.csv"))
        rows = audit_classes(base, comp, config)
        write_audit_csv(rows, tmp_path / "want.csv")
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert sum(r.significant for r in rows) == flagged

    def test_audit_pie(self, logs, data_dir, tmp_path):
        out = tmp_path / "pie"
        rc = main([
            "audit-pie", "--base", str(logs / "base.csv"),
            "--comp", str(logs / "comp.csv"),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == 0
        assert (out / "pie.csv").exists()
        summary = json.loads((out / "pie_summary.json").read_text())
        assert "pie_count" in summary

    def test_audit_robustness(self, logs, data_dir, tmp_path):
        out = tmp_path / "rob.csv"
        rc = main([
            "audit-robustness", "--data", str(data_dir),
            "--base-models", str(logs / "base_models"),
            "--comp-models", str(logs / "comp_models"),
            "--kinds", "brightness", "contrast",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "corruption,sparsity,top1_abs,topk_abs,top1_norm,topk_norm"
        assert len(lines) == 3

    def test_audit_pie_without_dataset(self, logs, tmp_path):
        out = tmp_path / "pie"
        rc = main([
            "audit-pie", "--base", str(logs / "base.csv"),
            "--comp", str(logs / "comp.csv"), "--out", str(out),
        ])
        assert rc == 0
        assert (out / "pie.csv").exists()
        assert not (out / "attributes.csv").exists()

    def test_audit_pie_huge_label(self, tmp_path):
        """A label of 3*10**9 makes C that large; modal labels count only the labels that occur."""
        for name, label in (("base", 3 * 10**9), ("comp", 0)):
            rows = [f"p,none,0.0,0,{i},1,{label if i == 0 else 1},1" for i in range(2)]
            (tmp_path / f"{name}.csv").write_text("\n".join([",".join(LOG_HEADER), *rows]) + "\n")
        rc = main([
            "audit-pie", "--base", str(tmp_path / "base.csv"), "--comp", str(tmp_path / "comp.csv"),
            "--out", str(tmp_path / "pie"),
        ])
        assert rc == 0
        lines = (tmp_path / "pie" / "pie.csv").read_text().split("\n")
        assert lines[1:3] == [f"0,1,{3 * 10**9},0,1", "1,1,1,1,0"]

    @pytest.mark.parametrize("topk", ["0", "-3"])
    @pytest.mark.parametrize("comp", ["comp.csv", "base.csv"])  # with PIEs, and without
    def test_audit_pie_topk_below_one(self, logs, tmp_path, comp, topk):
        base_log, comp_log = (read_prediction_log(logs / f) for f in ("base.csv", comp))
        assert (len(audit_level(base_log, comp_log, None).pies) > 0) == (comp == "comp.csv")
        out = tmp_path / "pie"
        rc = main([
            "audit-pie", "--base", str(logs / "base.csv"), "--comp", str(logs / comp),
            "--topk", topk, "--out", str(out),
        ])
        assert rc == 2
        assert not out.exists()

    def test_audit_pie_runs_no_welch_test(self, logs, data_dir, tmp_path, monkeypatch):
        def no_welch(*args, **kwargs):
            raise AssertionError("audit-pie writes no class audit")

        monkeypatch.setattr(pipeline, "audit_classes", no_welch)
        rc = main([
            "audit-pie", "--base", str(logs / "base.csv"), "--comp", str(logs / "comp.csv"),
            "--data", str(data_dir), "--out", str(tmp_path / "pie"),
        ])
        assert rc == 0

    def test_missing_log_is_data_error(self, tmp_path):
        rc = main([
            "audit-classes", "--base", str(tmp_path / "nope.csv"),
            "--comp", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2

    def test_divergence_exits_3(self, data_dir, tmp_path):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "d.csv"),
            "--models", "1", "--steps", "60", "--batch-size", "32",
            "--lr", "1e12", "--hidden", "16",
        ])
        assert rc == 3


class TestReport:
    def test_report_from_audit(self, logs, tmp_path):
        audit = tmp_path / "audit.csv"
        main([
            "audit-classes", "--base", str(logs / "base.csv"),
            "--comp", str(logs / "comp.csv"), "--out", str(audit),
        ])
        out = tmp_path / "report"
        rc = main(["report", "--audit", str(audit), "--out", str(out), "--chart"])
        assert rc == 0
        assert (out / "report.txt").exists()
        assert (out / "report.json").exists()
        chart = (out / "chart.csv").read_text().strip().split("\n")
        assert chart[0] == "class,norm_recall_diff,significant"

    def test_empty_audit_ok(self, tmp_path):
        audit = tmp_path / "empty.csv"
        audit.write_text(
            "class,mean_recall_base,mean_recall_comp,norm_recall_diff,"
            "t_stat,df,p_value,significant\n"
        )
        rc = main(["report", "--audit", str(audit), "--out", str(tmp_path / "r")])
        assert rc == 0

    def test_malformed_audit_exits_2(self, tmp_path):
        audit = tmp_path / "bad.csv"
        audit.write_text("not,a,valid,audit\n1,2,3,4\n")
        rc = main(["report", "--audit", str(audit), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert not (tmp_path / "r").exists()  # nothing is written for a bad input

    AUDIT_ROWS = ["0,0.5,0.4,-0.1,-1.0,3.0,0.3,0", "1,0.6,0.7,0.1,1.0,3.0,0.3,1"]
    PIE_ROWS = ["10,0,0,0,0", "11,1,1,0,1"]

    def _report(self, tmp_path, audit_rows, pie_rows) -> int:
        for name, header, rows in (("audit", AUDIT_HEADER, audit_rows), ("pie", PIE_HEADER, pie_rows)):
            (tmp_path / f"{name}.csv").write_text("\n".join([",".join(header), *rows]) + "\n")
        return main(["report", "--audit", str(tmp_path / "audit.csv"),
                     "--pie", str(tmp_path / "pie.csv"), "--out", str(tmp_path / "r")])

    def test_well_formed_inputs(self, tmp_path):
        assert self._report(tmp_path, self.AUDIT_ROWS, self.PIE_ROWS) == 0
        doc = json.loads((tmp_path / "r" / "report.json").read_text())
        assert (doc["significant_classes"], doc["pie_count"], doc["examples"]) == (1, 1, 2)

    @pytest.mark.parametrize("which, row, message", [
        ("audit", "1,0.6,0.7,0.1,1.0,3.0,0.3,yes", "significant cells must be 0 or 1"),
        ("audit", '1,0.6,"0.7",0.1,1.0,3.0,0.3,1', "could not convert"),
        ("audit", "1,0.6,0.7,0.1,1.0,3.0,0.3,1\r\r", "carriage return inside a line"),
        ("pie", "x,y,z,w,1", "invalid literal for int()"),
        ("pie", "11,1,1,0,yes", "is_pie cells must be 0 or 1"),
        ("pie", '"11",1,1,0,1', "invalid literal for int()"),
    ])
    def test_hostile_rows_name_the_line(self, tmp_path, capsys, which, row, message):
        rows = {"audit": list(self.AUDIT_ROWS), "pie": list(self.PIE_ROWS)}
        rows[which][1] = row
        assert self._report(tmp_path, rows["audit"], rows["pie"]) == 2
        assert f"line 3: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r" / "report.json").exists()

    @pytest.mark.parametrize("which", ["audit", "pie"])
    def test_empty_file_exits_2(self, tmp_path, capsys, which):
        assert self._report(tmp_path, self.AUDIT_ROWS, self.PIE_ROWS) == 0
        (tmp_path / f"{which}.csv").write_bytes(b"")
        rc = main(["report", "--audit", str(tmp_path / "audit.csv"),
                   "--pie", str(tmp_path / "pie.csv"), "--out", str(tmp_path / "r2")])
        assert rc == 2 and "empty file" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mini_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "seed": 7,
        "dataset": {"synth": {
            "num_classes": 4, "dim": 6, "train_count": 400,
            "test_count": 160, "seed": 1,
        }},
        "train": {
            "steps": 120, "batch_size": 32, "learning_rate": 0.1,
            "weight_decay": 0.0001, "population_size": 3,
            "hidden_dims": [16], "lr_decay_steps": None,
        },
        "prune": {"start": 10, "end": 90, "every": 10},
        "sweep": [
            {"method": "none"},
            {"method": "magnitude_prune", "sparsity": 0.8},
            {"method": "quant_float16"},
        ],
    }))
    return path


class TestRun:
    def test_run_pipeline(self, mini_config, tmp_path):
        out = tmp_path / "bundle"
        rc = main(["run", "--config", str(mini_config), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        labels = [e["label"] for e in summary["levels"]]
        assert labels == ["prune_0.8", "float16"]
        assert (out / "logs" / "baseline.csv").exists()
        assert (out / "audits" / "class_audit_prune_0.8.csv").exists()
        assert (out / "pies" / "pie_float16.csv").exists()
        # PIE counts in the summary match the CSVs
        for entry in summary["levels"]:
            pie_csv = out / "pies" / f"pie_{entry['label']}.csv"
            rows = pie_csv.read_text().strip().split("\n")[1:]
            assert entry["pie_count"] == sum(r.endswith(",1") for r in rows)

    def test_run_reproducible(self, mini_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(mini_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(mini_config), "--out", str(out_b)]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_seed_override_changes_outputs(self, mini_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(mini_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(mini_config), "--out", str(out_b),
                     "--seed", "9"]) == 0
        assert (out_a / "logs" / "baseline.csv").read_bytes() != (
            out_b / "logs" / "baseline.csv"
        ).read_bytes()

    def test_baseline_only_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"synth": {
                "num_classes": 3, "dim": 4, "train_count": 150,
                "test_count": 60, "seed": 2,
            }},
            "train": {
                "steps": 60, "batch_size": 32, "learning_rate": 0.1,
                "weight_decay": 0.0, "population_size": 2,
                "hidden_dims": [8], "lr_decay_steps": None,
            },
            "sweep": [{"method": "none"}],
        }))
        out = tmp_path / "solo"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_pies"] == 0
        assert summary["total_significant_classes"] == 0
        assert sorted(p.name for p in out.iterdir()) == ["logs", "summary.json"]

    @staticmethod
    def _tiny_config(tmp_path) -> Path:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"synth": {
                "num_classes": 3, "dim": 4, "train_count": 150, "test_count": 60, "seed": 2,
            }},
            "train": {"steps": 60, "batch_size": 32, "population_size": 2, "hidden_dims": [8]},
        }))
        return cfg

    def test_rerun_into_a_bundle_is_refused(self, tmp_path, monkeypatch, capsys):
        out, cfg = tmp_path / "o", self._tiny_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(out), "--sparsity", "0.5,0.9"]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert out / "pies" / "pie_prune_0.9.csv" in before

        def no_training(*args):
            raise AssertionError("a non-empty --out is refused before training")

        monkeypatch.setattr(trainer, "_train_single", no_training)
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--sparsity", "0.5"])
        assert rc == 2
        assert f"{out} exists and is not an empty directory" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_run_into_an_empty_directory(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["run", "--config", str(self._tiny_config(tmp_path)), "--out", str(out),
                     "--sparsity", "0.5"]) == 0
        assert (out / "summary.json").exists()

    def test_run_onto_a_file_is_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("keep\n")
        rc = main(["run", "--config", str(self._tiny_config(tmp_path)), "--out", str(out)])
        assert rc == 2 and f"{out} exists and is not an empty directory" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize("made", ["nothing", "parent", "out"])
    def test_failed_run_leaves_out_as_it_found_it(self, tmp_path, monkeypatch, made):
        """A run that fails on its second level changes nothing: `out` stays absent or empty.

        `made` is what exists beforehand: neither `out` nor its parent, the
        parent only, or `out` as an empty directory.
        """
        audit, levels = pipeline.audit_level, []

        def fail_second(base_log, comp_log, *args):
            levels.append(comp_log.population_id)
            if len(levels) == 2:
                raise RuntimeError("the second level fails")
            return audit(base_log, comp_log, *args)

        monkeypatch.setattr(pipeline, "audit_level", fail_second)
        out = tmp_path / "runs" / "o"
        if made != "nothing":
            (out if made == "out" else out.parent).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        config = ExperimentConfig(
            train=TrainConfig(steps=30, batch_size=32, population_size=2, hidden_dims=(8,)),
            sweep=(
                CompressionSpec("none"),
                CompressionSpec("magnitude_prune", 0.5),
                CompressionSpec("magnitude_prune", 0.9),
            ),
            synth=SynthLongTailSpec(num_classes=4, dim=6, train_count=200, test_count=80),
            out_dir=str(out),
        )
        with pytest.raises(RuntimeError, match="the second level fails"):
            run_pipeline(config)
        assert levels == ["prune_0.5", "prune_0.9"]
        assert sorted(tmp_path.rglob("*")) == before

    def test_run_into_the_working_directory(self, tmp_path, monkeypatch):
        """`--out .` in an empty directory fills that directory; it stays the working one."""
        cfg, cwd = self._tiny_config(tmp_path), tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", "--config", str(cfg), "--out", ".", "--sparsity", "0.5"]) == 0
        assert Path.cwd().samefile(cwd)
        assert sorted(p.name for p in cwd.iterdir()) == ["audits", "logs", "pies", "summary.json"]

    def test_bundle_gets_the_mode_mkdir_gives(self, tmp_path):
        out, ref = tmp_path / "o", tmp_path / "ref"
        ref.mkdir()
        assert main(["run", "--config", str(self._tiny_config(tmp_path)), "--out", str(out)]) == 0
        assert out.stat().st_mode == ref.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "o", "ref"]

    def test_each_level_log_is_released_before_the_next_trains(self, tmp_path, monkeypatch):
        """Only the baseline's log and one level's are alive at a time (freed by refcount)."""
        train = pipeline.train_population
        released = []  # a weak reference to each compressed level's log

        def tracked(train_ds, test_ds, config, compression, **kwargs):
            assert all(ref() is None for ref in released), f"before {compression.label}"
            models, log = train(train_ds, test_ds, config, compression, **kwargs)
            if compression.method != "none":
                released.append(weakref.ref(log))
            return models, log

        monkeypatch.setattr(pipeline, "train_population", tracked)
        config = ExperimentConfig(
            train=TrainConfig(steps=30, batch_size=32, population_size=2, hidden_dims=(8,)),
            sweep=(
                CompressionSpec("none"),
                CompressionSpec("magnitude_prune", 0.5),
                CompressionSpec("magnitude_prune", 0.9),
                CompressionSpec("quant_float16"),
            ),
            synth=SynthLongTailSpec(num_classes=4, dim=6, train_count=200, test_count=80),
            out_dir=str(tmp_path / "o"),
        )
        gc.disable()  # only reference counting frees a log: one held by a cycle fails the test
        try:
            run_pipeline(config)
        finally:
            gc.enable()
        assert len(released) == 3 and all(ref() is None for ref in released)

    def test_usage_error_exit_1(self, capsys):
        rc = None
        try:
            main(["train"])  # missing required flags
        except SystemExit as exc:
            rc = exc.code
        assert rc == 1

    def test_unknown_command_exit_1(self):
        try:
            main(["frobnicate"])
        except SystemExit as exc:
            assert exc.code == 1

    def test_partial_prune_block_keeps_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prune": {"every": 100}}))
        got = load_experiment_config(cfg)
        assert resolved_window(got) == resolved_window(ExperimentConfig()) == (250, 1750, 100)

    def test_stage_keeps_the_parse_error_line(self, tmp_path):
        data = tmp_path / "data"
        generate(SynthLongTailSpec(num_classes=2, dim=2, train_count=4, test_count=4), data)
        lines = (data / "train.csv").read_text().split("\n")
        lines[2] = "x" + lines[2]
        (data / "train.csv").write_text("\n".join(lines))
        with pytest.raises(ParseError) as err:
            run_pipeline(ExperimentConfig(dataset_path=str(data), out_dir=str(tmp_path / "o")))
        assert err.value.line == 3
        assert str(err.value).startswith("[stage: dataset] line 3: invalid literal")

    def test_failing_stage_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": {"path": str(tmp_path / "nowhere")}}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "stage: dataset" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(compresslens.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "compresslens.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


BAD_KEY_CASES = [
    ({"train": {"stepz": 5}}, "stepz"),
    ({"sweep": [{"method": "none"}, {"sparsity": 0.5}]}, "method"),
    ({"prune": {"every": 100, "begin": 0}}, "begin"),
    # calibration constants and options that are no longer settable
    ({"dataset": {"synth": {"center_scale": 1.6}}}, "center_scale"),
    ({"train": {"prune_final_layer": True}}, "prune_final_layer"),
    ({"audit": {"topk_eval": 5}}, "topk_eval"),
    ({"train": {"lr_decay_factor": 0.3}}, "lr_decay_factor"),
]
WRONG_TYPE_CASES = [
    ({"prune": {"every": "x"}}, "prune.every"),
    ({"train": {"steps": "x"}}, "train"),
    ({"seed": "x"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"topk": "x"}, "topk"),
    ({"sweep": 5}, "sweep"),
    ({"dataset": {"path": 5}}, "path"),
    ({"train": {"hidden_dims": ["a"], "steps": 5}}, "hidden_dims"),
    # a value of another type is rejected, not converted
    ({"prune": {"every": 5.7}}, "prune.every"),
    ({"prune": {"start": "24"}}, "prune.start"),
    ({"prune": {"end": True}}, "prune.end"),
    ({"sweep": [{"method": "none"}, {"method": "magnitude_prune", "sparsity": "0.5"}]},
     "sweep"),
    ({"sweep": [{"method": "none", "sparsity": False}]}, "sweep"),
    ({"dataset": {"path": "data", "synth": {"seed": 1}}}, "synth"),
    ({"train": {"hidden_dims": [True], "steps": 5}}, "hidden_dims"),
    # a float field must be finite
    ({"train": {"learning_rate": float("nan")}}, "learning_rate"),
    ({"dataset": {"synth": {"zipf_exponent": float("nan")}}}, "zipf_exponent"),
]


def _fixed_int8(ranges):
    """An edit that makes a two-layer snapshot fixed-int8 with these activation ranges."""
    return lambda doc: {
        **doc, "compression": {"method": "quant_fixed_int8"}, "activation_ranges": ranges,
    }


def _set_first(key, value):
    """An edit that sets the first entry of the snapshot's first weight or bias."""
    def edit(doc):
        doc = copy.deepcopy(doc)
        first = doc[key][0]
        while isinstance(first[0], list):
            first = first[0]
        first[0] = value
        return doc
    return edit


class TestBadInputExits2:
    @pytest.mark.parametrize("argv, message", [
        (["generate", "--classes", "1"], "num_classes must be an integer >= 2, got 1"),
        (["train", "--data", "{tmp}/data", "--batch-size", "0"],
         "batch_size must be an integer >= 1, got 0"),
        (["run", "--topk", "0"], "topk must be an integer >= 1, got 0"),
    ])
    def test_integer_below_its_bound(self, tmp_path, argv, message):
        rc, err = run_cli([*(a.format(tmp=tmp_path) for a in argv), "--out", f"{tmp_path}/out"])
        assert rc == 2 and "Traceback" not in err
        assert message in err
        assert not any(tmp_path.iterdir())

    def test_negative_corruption_seed(self, logs, data_dir, tmp_path):
        rc, err = run_cli([
            "audit-robustness", "--data", str(data_dir),
            "--base-models", str(logs / "base_models"),
            "--comp-models", str(logs / "comp_models"),
            "--kinds", "gaussian_noise", "--seed", "-1",
            "--out", str(tmp_path / "rob.csv"),
        ])
        assert rc == 2 and "Traceback" not in err
        assert "seed" in err

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_feature(self, logs, data_dir, tmp_path, cell):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        lines = (data / "test.csv").read_text().split("\n")
        lines[2] = lines[2][: lines[2].rindex(",") + 1] + cell  # the second example's last feature
        (data / "test.csv").write_text("\n".join(lines))
        out = tmp_path / "rob.csv"
        rc, err = run_cli([
            "audit-robustness", "--data", str(data),
            "--base-models", str(logs / "base_models"),
            "--comp-models", str(logs / "comp_models"),
            "--kinds", "gaussian_noise", "--out", str(out),
        ])
        assert rc == 2 and "Traceback" not in err
        assert "features must be finite" in err
        assert not out.exists()

    def test_audit_robustness_empty_split(self, logs, data_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        header = (data / "test.csv").read_text().split("\n")[0]
        (data / "test.csv").write_text(header + "\n")
        out = tmp_path / "rob.csv"
        rc, err = run_cli([
            "audit-robustness", "--data", str(data),
            "--base-models", str(logs / "base_models"),
            "--comp-models", str(logs / "comp_models"),
            "--kinds", "brightness", "--out", str(out),
        ])
        assert rc == 2 and "Traceback" not in err
        assert "at least one example" in err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_feature_fails_before_training(self, data_dir, tmp_path, capsys, split, cell):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        lines = (data / f"{split}.csv").read_text().split("\n")
        lines[3] = lines[3][: lines[3].rindex(",") + 1] + cell  # the third example's last feature
        (data / f"{split}.csv").write_text("\n".join(lines))
        message = f"example {lines[3].split(',')[0]} has a non-finite feature"
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "l.csv"), *TRAIN_FAST])
        assert rc == 2 and message in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": {"path": str(data)}, "train": {"steps": 60}}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2 and message in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("logs/*"))

    def test_non_numeric_sparsity(self, tmp_path):
        rc, err = run_cli(
            ["run", "--sparsity", "0.5,abc", "--out", str(tmp_path / "o")]
        )
        assert rc == 2 and "Traceback" not in err
        assert "abc" in err

    @pytest.mark.parametrize("doc, flags, label", [
        (None, ["--sparsity", "0.5,0.50"], "prune_0.5"),
        (None, ["--sparsity", "0.3,0.30000000000000004"], "prune_0.3"),
        (None, ["--quant", "float16", "--quant", "float16"], "float16"),
        ({"sweep": [
            {"method": "none"},
            {"method": "magnitude_prune", "sparsity": 0.5},
            {"method": "magnitude_prune", "sparsity": 0.9},
            {"method": "magnitude_prune", "sparsity": 0.5},
        ]}, [], "prune_0.5"),
    ])
    def test_repeated_sweep_label(self, tmp_path, doc, flags, label):
        """Two levels with one label would write one log file and count twice."""
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            flags = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "o"
        rc, err = run_cli(["run", *flags, "--out", str(out)])
        assert rc == 2 and "Traceback" not in err
        assert f"repeats the level {label!r}" in err
        assert not out.exists()  # rejected before anything is trained or written

    @pytest.mark.parametrize("doc, key", BAD_KEY_CASES)
    def test_bad_config_key(self, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2 and "Traceback" not in err
        assert key in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--alpha", "1.5", "--out", "{tmp}/o"], "alpha must be in (0, 1), got 1.5"),
        (["audit-classes", "--base", "{logs}/base.csv", "--comp", "{logs}/comp.csv",
          "--alpha", "0", "--bonferroni", "--out", "{tmp}/a.csv"],
         "alpha must be in (0, 1), got 0.0"),
    ])
    def test_alpha_outside_0_1(self, logs, tmp_path, monkeypatch, capsys, argv, message):
        def no_step(*args):
            raise AssertionError("alpha is checked before any input is read or model trained")

        for module, step in ((trainer, "_train_single"), (cli, "read_prediction_log")):
            monkeypatch.setattr(module, step, no_step)
        rc = main([a.format(tmp=tmp_path, logs=logs) for a in argv])
        assert rc == 2 and message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sweep, count", [
        ([{"method": "magnitude_prune", "sparsity": 0.5}], 0),
        ([{"method": "none"}, {"method": "quant_float16"}, {"method": "none"}], 2),
    ])
    def test_sweep_needs_one_baseline(self, tmp_path, capsys, sweep, count):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": sweep}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2 and f"sweep must include exactly one 'none' baseline, got {count}" in err
        assert not (tmp_path / "o").exists()

    def test_train_seed_is_refused(self, tmp_path):
        """`run` seeds population i from the top-level seed, so a train.seed would go unread."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"seed": 99, "steps": 5}}))
        rc, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2 and "Traceback" not in err
        assert "'seed' in config block 'train'" in err and "top-level 'seed'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, key", WRONG_TYPE_CASES)
    def test_wrong_type_config_value(self, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2 and "Traceback" not in err and "Warning" not in err
        assert key in err
        assert not (tmp_path / "o").exists()  # rejected before anything is written

    @pytest.mark.parametrize("meta, key", [
        ({}, "num_classes"),
        ({"num_classes": "x"}, "num_classes"),
        ({"num_classes": 4, "height": "x", "width": 2}, "height"),
        ([4], "object"),
    ])
    def test_bad_dataset_sidecar(self, logs, data_dir, tmp_path, meta, key):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "test.meta.json").write_text(json.dumps(meta))
        rc, err = run_cli([
            "audit-robustness", "--data", str(data),
            "--base-models", str(logs / "base_models"),
            "--comp-models", str(logs / "comp_models"),
            "--kinds", "brightness", "--out", str(tmp_path / "rob.csv"),
        ])
        assert rc == 2 and "Traceback" not in err
        assert "test.meta.json" in err and key in err

    @staticmethod
    def _pixelate_with_sidecar(tmp_path, meta):
        """`audit-robustness --kinds pixelate` on a 16-feature test split with sidecar `meta`."""
        data, snaps = tmp_path / "data", tmp_path / "snaps"
        assert main(["generate", "--out", str(data), "--classes", "3", "--dim", "16",
                     "--train-count", "100", "--test-count", "40"]) == 0
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "l.csv"),
                     "--models", "1", "--steps", "5", "--hidden", "4",
                     "--save-models", str(snaps)]) == 0
        (data / "test.meta.json").write_text(json.dumps(meta))
        out = tmp_path / "rob.csv"
        rc, err = run_cli(["audit-robustness", "--data", str(data), "--base-models", str(snaps),
                           "--comp-models", str(snaps), "--kinds", "pixelate", "--out", str(out)])
        return rc, err, out

    @pytest.mark.parametrize("layout", [{"height": -4, "width": -4}, {"height": 4}])
    def test_bad_layout_sidecar(self, tmp_path, layout):
        rc, err, out = self._pixelate_with_sidecar(tmp_path, {"num_classes": 3, **layout})
        assert rc == 2 and "Traceback" not in err
        named = "'height'" if "width" in layout else "'width'"  # the bad value, or the missing key
        assert "test.meta.json" in err and named in err
        assert not out.exists()

    def test_layout_sidecar_off_the_feature_count(self, tmp_path):
        meta = {"num_classes": 3, "height": 4, "width": 5}
        rc, err, out = self._pixelate_with_sidecar(tmp_path, meta)
        assert rc == 2 and "Traceback" not in err
        assert "test.meta.json: layout 4x5 does not match 16 features" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: {},
        lambda doc: {k: v for k, v in doc.items() if k != "biases"},
        lambda doc: {**doc, "weights": [[[1.0, 2.0], [3.0]]]},
        lambda doc: {**doc, "weights": 5},
        lambda doc: {**doc, "weights": [], "biases": []},
        lambda doc: {**doc, "compression": {"method": "bogus"}},
        lambda doc: {**doc, "compression": {"method": "magnitude_prune", "sparsity": 2.0}},
        _fixed_int8([[-1.0, 1.0]]),
        _fixed_int8([[-1.0, 0.0, 1.0]] * 2),
        _fixed_int8([["a", "b"]] * 2),
        _fixed_int8([[1.0, -1.0]] * 2),
        _fixed_int8([[-1.0, float("inf")]] * 2),
        _fixed_int8(5),
        _fixed_int8(None),
        _set_first("weights", float("nan")),
        _set_first("biases", float("-inf")),
        _set_first("weights", None),
        _set_first("weights", True),
        _set_first("biases", False),
        _set_first("weights", "1.5"),
        _set_first("weights", 10**400),
        lambda doc: {**doc, "layer_dims": [float(d) for d in doc["layer_dims"]]},
        *(lambda doc, r=ranges: {**doc, "activation_ranges": r} for ranges in (False, 0, "", [], {})),
    ], ids=["empty", "no biases", "ragged weights", "weights not a list", "no layers",
            "unknown method", "sparsity out of range", "one range for two layers",
            "three-element ranges", "string ranges", "lo above hi", "infinite range",
            "ranges not a list", "no ranges", "nan weight", "infinite bias", "null weight",
            "true weight", "false bias", "string weight", "weight beyond float64",
            "float layer dims", "false ranges", "zero ranges", "empty-string ranges",
            "empty-list ranges", "empty-object ranges"])
    def test_bad_model_snapshot(self, logs, data_dir, tmp_path, edit):
        snaps = tmp_path / "base_models"
        shutil.copytree(logs / "base_models", snaps)
        snap = snaps / "model_000.json"
        snap.write_text(json.dumps(edit(json.loads(snap.read_text()))))
        rc, err = run_cli([
            "audit-robustness", "--data", str(data_dir),
            "--base-models", str(snaps), "--comp-models", str(logs / "comp_models"),
            "--kinds", "brightness", "--out", str(tmp_path / "rob.csv"),
        ])
        assert rc == 2 and "Traceback" not in err
        assert "model_000.json" in err
        assert not (tmp_path / "rob.csv").exists()

    @pytest.mark.parametrize("topk", ["-2", "0", "5"])  # the split has 4 classes
    def test_train_topk_outside_classes(self, data_dir, tmp_path, monkeypatch, capsys, topk):
        def no_training(*args):
            raise AssertionError("a rank depth outside 1..C is refused before training")

        monkeypatch.setattr(trainer, "_train_single", no_training)
        out = tmp_path / "l.csv"
        rc = main(["train", "--data", str(data_dir), "--out", str(out), "--topk", topk,
                   *TRAIN_FAST])
        assert rc == 2 and "topk must be in 1..4" in capsys.readouterr().err
        assert not out.exists()

    def test_save_models_into_a_directory_with_snapshots(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        snaps = tmp_path / "snaps"
        train = ["train", "--data", str(data_dir), "--save-models", str(snaps),
                 "--steps", "20", "--hidden", "4"]
        assert main([*train, "--models", "3", "--out", str(tmp_path / "a.csv")]) == 0
        before = {p.name: p.read_bytes() for p in snaps.iterdir()}

        def no_training(*args):
            raise AssertionError("a directory with snapshots is refused before training")

        monkeypatch.setattr(trainer, "_train_single", no_training)
        out = tmp_path / "b.csv"
        rc = main([*train, "--models", "2", "--seed", "50", "--out", str(out)])
        assert rc == 2
        assert f"{snaps} already holds model_*.json snapshots" in capsys.readouterr().err
        assert not out.exists()
        assert {p.name: p.read_bytes() for p in snaps.iterdir()} == before

    @pytest.mark.parametrize("topk", ["-1", "0", "5"])
    def test_audit_robustness_topk_outside_classes(
        self, logs, data_dir, tmp_path, monkeypatch, capsys, topk
    ):
        def no_corruption(*args):
            raise AssertionError("a rank depth outside 1..C is refused before any draw")

        monkeypatch.setattr(robustness, "corrupt_features", no_corruption)
        out = tmp_path / "rob.csv"
        rc = main([
            "audit-robustness", "--data", str(data_dir),
            "--base-models", str(logs / "base_models"),
            "--comp-models", str(logs / "comp_models"),
            "--kinds", "gaussian_noise", "--topk", topk, "--out", str(out),
        ])
        assert rc == 2 and "topk must be in 1..4" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_robustness_class_count_mismatch(self, logs, data_dir, tmp_path, capsys):
        snaps = tmp_path / "three_class_models"
        rng = np.random.default_rng(0)
        for k in range(2):
            model = MLPModel.initialize((6, 8, 3), rng)  # the split has 6 features, 4 classes
            save_model(model, CompressionSpec("none"), snaps / f"model_{k:03d}.json")
        out = tmp_path / "rob.csv"
        rc = main([
            "audit-robustness", "--data", str(data_dir),
            "--base-models", str(logs / "base_models"), "--comp-models", str(snaps),
            "--kinds", "brightness", "--out", str(out),
        ])
        assert rc == 2 and "a model has 3 outputs, the split 4 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--base-models", "--comp-models"])
    def test_audit_robustness_without_snapshots(self, logs, data_dir, tmp_path, capsys, flag):
        dirs = {"--base-models": logs / "base_models", "--comp-models": logs / "comp_models"}
        dirs[flag] = tmp_path / "empty"
        dirs[flag].mkdir()
        out = tmp_path / "rob.csv"
        rc = main(["audit-robustness", "--data", str(data_dir),
                   *(str(part) for pair in dirs.items() for part in pair),
                   "--kinds", "brightness", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and f"no model_*.json snapshots in {tmp_path / 'empty'}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--base-models", "--comp-models"])
    def test_mixed_snapshot_directory(self, logs, data_dir, tmp_path, capsys, flag):
        dirs = {"--base-models": logs / "base_models", "--comp-models": logs / "comp_models"}
        mixed = tmp_path / "mixed"
        shutil.copytree(dirs[flag], mixed)
        dirs[flag] = mixed
        snap = mixed / "model_001.json"
        snap.write_text(json.dumps({
            **json.loads(snap.read_text()),
            "compression": {"method": "magnitude_prune", "sparsity": 0.5},
        }))
        out = tmp_path / "rob.csv"
        rc = main(["audit-robustness", "--data", str(data_dir),
                   *(str(part) for pair in dirs.items() for part in pair),
                   "--kinds", "brightness", "--out", str(out)])
        assert rc == 2 and f"snapshots in {mixed} mix compressions" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("comp", ["comp.csv", "base.csv"])  # with PIEs, and without
    @pytest.mark.parametrize("split", ["train", "superset", "subset"])
    def test_audit_pie_data_of_another_split(self, logs, data_dir, tmp_path, capsys, comp, split):
        test = read_dataset(data_dir / "test.csv")
        n = len(test)
        if split == "train":
            ds = read_dataset(data_dir / "train.csv")
        else:  # the superset repeats five rows under new ids
            rows = np.r_[np.arange(n), :5] if split == "superset" else np.arange(n - 5)
            ids = test.example_ids[rows] + np.where(np.arange(rows.size) < n, 0, 10**6)
            ds = LabeledDataset.from_arrays(
                ids, test.labels[rows], test.feature_matrix[rows], test.num_classes,
                test.attribute_names, test.attributes[rows], test.layout,
            )
        write_dataset(ds, tmp_path / "data" / "test.csv")
        out = tmp_path / "pie"
        rc = main([
            "audit-pie", "--base", str(logs / "base.csv"), "--comp", str(logs / comp),
            "--data", str(tmp_path / "data"), "--out", str(out),
        ])
        assert rc == 2
        assert "logs and test split cover different example sets" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("comp", ["comp.csv", "base.csv"])  # with PIEs, and without
    def test_audit_pie_topk_beyond_log_depth(self, logs, tmp_path, capsys, comp):
        pair = []
        for flag, name in (("--base", "base.csv"), ("--comp", comp)):
            log = read_prediction_log(logs / name)
            write_prediction_log(
                dataclasses.replace(log, predictions=log.predictions[:, :, :3]),
                tmp_path / f"top3_{name}",
            )
            pair += [flag, str(tmp_path / f"top3_{name}")]
        out = tmp_path / "pie"
        rc = main(["audit-pie", *pair, "--topk", "4", "--out", str(out)])
        assert rc == 2 and "rank depth 4 outside [1, 3]" in capsys.readouterr().err
        assert not out.exists()
        assert main(["audit-pie", *pair, "--topk", "3", "--out", str(out)]) == 0

    @pytest.mark.parametrize("comp", ["comp.csv", "base.csv"])  # with PIEs, and without
    @pytest.mark.parametrize("other", ["comp_log", "data"])
    def test_audit_pie_on_other_true_labels(
        self, logs, data_dir, tmp_path, capsys, comp, other
    ):
        """A compressed log, or a --data split, of the logs' ids but other true labels."""
        comp_log = read_prediction_log(logs / comp)
        test = read_dataset(data_dir / "test.csv")
        argv = ["audit-pie", "--base", str(logs / "base.csv"), "--comp", str(tmp_path / comp)]
        if other == "comp_log":  # one example's true label differs
            truth = comp_log.truth.copy()
            truth[7] = (truth[7] + 1) % test.num_classes
            comp_log = dataclasses.replace(comp_log, truth=truth)
            message = "logs disagree on true labels"
        else:  # every label differs
            write_dataset(LabeledDataset.from_arrays(
                test.example_ids, (test.labels + 1) % test.num_classes, test.feature_matrix,
                test.num_classes, test.attribute_names, test.attributes, test.layout,
            ), tmp_path / "data" / "test.csv")
            argv += ["--data", str(tmp_path / "data")]
            message = "logs and test split disagree on true labels"
        write_prediction_log(comp_log, tmp_path / comp)
        out = tmp_path / "pie"
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and message in err and "Traceback" not in err
        assert not out.exists()

    def test_audit_pie_data_in_any_row_order(self, logs, data_dir, tmp_path):
        """--data may list the logs' examples in any order, ids and labels together."""
        test = read_dataset(data_dir / "test.csv")
        rows = np.random.default_rng(0).permutation(len(test))
        write_dataset(LabeledDataset.from_arrays(
            test.example_ids[rows], test.labels[rows], test.feature_matrix[rows],
            test.num_classes, test.attribute_names, test.attributes[rows], test.layout,
        ), tmp_path / "data" / "test.csv")
        outputs = []
        for data in (data_dir, tmp_path / "data"):
            out = tmp_path / f"pie_{len(outputs)}"
            assert main([
                "audit-pie", "--base", str(logs / "base.csv"), "--comp", str(logs / "comp.csv"),
                "--data", str(data), "--out", str(out),
            ]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "attributes.csv" in outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag, under", [
        ("run --out", "F/bundle"),
        ("train --out", "F/log.csv"),
        ("train --save-models", "F/snaps"),
        ("train --save-models", "F"),
        ("train --out", "D"),
        ("audit-classes --out", "D"),
        ("audit-robustness --out", "D"),
        ("generate --out", "F"),
        ("audit-pie --out", "F/pie"),
        ("report --out", "F"),
    ])
    def test_output_under_a_file_fails_before_training(
        self, logs, data_dir, tmp_path, monkeypatch, capsys, flag, under
    ):
        """An output under a file, or a file output that is a directory, exits 2 before
        any input is read or anything trains."""
        def no_step(*args):
            raise AssertionError("an output path is checked before any input is read")

        for module, step in ((trainer, "_train_single"), (cli, "read_dataset"),
                             (cli, "read_prediction_log"), (cli, "write_report"),
                             (cli, "generate")):
            monkeypatch.setattr(module, step, no_step)
        blocker = tmp_path / under.split("/")[0]  # F is a file, D an empty directory
        if under == "D":
            blocker.mkdir()
            message = f"{blocker} is a directory"
        else:
            blocker.write_text("keep\n")
            message = f"{blocker} is not a directory"
        command, option = flag.split()
        argv = {
            "run": ["run", "--sparsity", "0.5"],
            "train": ["train", "--data", str(data_dir), "--out", str(tmp_path / "log.csv"),
                      *TRAIN_FAST],
            "audit-classes": ["audit-classes", "--base", str(logs / "base.csv"),
                              "--comp", str(logs / "comp.csv")],
            "audit-robustness": ["audit-robustness", "--data", str(data_dir),
                                 "--base-models", str(logs / "base_models"),
                                 "--comp-models", str(logs / "comp_models"),
                                 "--kinds", "brightness"],
            "generate": ["generate"],
            "audit-pie": ["audit-pie", "--base", str(logs / "base.csv"),
                          "--comp", str(logs / "comp.csv"), "--data", str(data_dir)],
            "report": ["report", "--audit", str(logs / "base.csv")],
        }[command]
        rc = main([*argv, option, str(tmp_path / under)])  # a repeated --out: the last wins
        err = capsys.readouterr().err
        assert rc == 2 and message in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == [blocker.name]
        if under == "D":
            assert not any(blocker.iterdir())
        else:
            assert blocker.read_text() == "keep\n"

    def test_fixed_int8_on_too_few_examples_fails_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        data = tmp_path / "data"
        generate(SynthLongTailSpec(num_classes=3, dim=4, train_count=60, test_count=30), data)

        def no_training(*args):
            raise AssertionError("the calibration size is checked before any model trains")

        monkeypatch.setattr(trainer, "_train_single", no_training)
        log = tmp_path / "l.csv"
        message = "fixed_int8 calibrates on 100 examples, got 60"
        rc = main(["train", "--data", str(data), "--out", str(log),
                   "--quant", "fixed_int8", "--steps", "400"])
        assert rc == 2 and message in capsys.readouterr().err
        assert not log.exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"path": str(data)}, "train": {"steps": 400},
            "sweep": [{"method": "none"}, {"method": "quant_fixed_int8"}],
        }))
        out = tmp_path / "o"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2 and f"[stage: train fixed_int8] {message}" in capsys.readouterr().err
        assert not out.exists()

        monkeypatch.undo()  # 100 examples are enough
        generate(SynthLongTailSpec(num_classes=3, dim=4, train_count=100, test_count=30), data)
        assert main(["train", "--data", str(data), "--out", str(log), "--quant", "fixed_int8",
                     "--steps", "20", "--models", "1", "--hidden", "4"]) == 0

    @pytest.mark.parametrize("kind", ["log", "dataset"])
    def test_integer_beyond_64_bits(self, logs, data_dir, tmp_path, kind):
        huge = "99999999999999999999"
        if kind == "log":
            lines = (logs / "base.csv").read_text().split("\n")
            lines[1] = ",".join(lines[1].split(",")[:4] + [huge] + lines[1].split(",")[5:])
            (tmp_path / "base.csv").write_text("\n".join(lines))
            argv = ["audit-classes", "--base", str(tmp_path / "base.csv"),
                    "--comp", str(logs / "comp.csv"), "--out", str(tmp_path / "a.csv")]
        else:
            data = tmp_path / "data"
            shutil.copytree(data_dir, data)
            lines = (data / "test.csv").read_text().split("\n")
            lines[1] = huge + lines[1][lines[1].index(","):]
            (data / "test.csv").write_text("\n".join(lines))
            argv = ["audit-robustness", "--data", str(data),
                    "--base-models", str(logs / "base_models"),
                    "--comp-models", str(logs / "comp_models"),
                    "--kinds", "brightness", "--out", str(tmp_path / "rob.csv")]
        rc, err = run_cli(argv)
        assert rc == 2 and "Traceback" not in err
        assert "line 2" in err and huge in err

    @staticmethod
    def _log_pair(tmp_path, base_preds, comp_preds, truth) -> list[str]:
        """`--base` and `--comp` flags for two 2-model logs on examples 10 and 11."""
        flags = []
        for name, preds in (("base", base_preds), ("comp", comp_preds)):
            rows = [
                f"p,none,0.0,{k},{10 + i},1,{pred},{truth[i]}"
                for k, model in enumerate(preds) for i, pred in enumerate(model)
            ]
            (tmp_path / f"{name}.csv").write_text("\n".join([",".join(LOG_HEADER), *rows]) + "\n")
            flags += [f"--{name}", str(tmp_path / f"{name}.csv")]
        return flags

    def test_negative_predicted_label(self, tmp_path):
        pair = self._log_pair(tmp_path, [[0, 1], [0, 1]], [[0, -1], [0, -1]], [0, 1])
        rc, err = run_cli(["audit-pie", *pair, "--out", str(tmp_path / "pie")])
        assert rc == 2 and "Traceback" not in err
        assert "example 11: predicted label -1 outside" in err
        assert not (tmp_path / "pie").exists()

    def test_negative_true_label(self, tmp_path):
        pair = self._log_pair(tmp_path, [[0, 1], [0, 1]], [[0, 1], [1, 0]], [0, -1])
        rc, err = run_cli(["audit-classes", *pair, "--out", str(tmp_path / "a.csv")])
        assert rc == 2 and "Traceback" not in err
        assert "example 11: true label -1 outside" in err

    @pytest.mark.parametrize("command", ["audit-classes", "audit-pie"])
    def test_negative_example_id(self, tmp_path, command):
        pair = self._log_pair(tmp_path, [[0, 1], [0, 1]], [[0, 1], [1, 0]], [0, 1])
        for log in map(Path, pair[1::2]):  # example 10 becomes -5
            log.write_text(log.read_text().replace(",10,1,", ",-5,1,"))
        out = tmp_path / "out"
        rc, err = run_cli([command, *pair, "--out", str(out)])
        assert rc == 2 and "Traceback" not in err
        assert "example ids must be non-negative integers in the int64 range, got -5" in err
        assert not out.exists()

    @pytest.mark.parametrize("label", [3 * 10**9, 2**63 - 1])
    def test_more_classes_than_examples(self, tmp_path, label):
        preds = [[0, label], [0, 1]]
        pair = self._log_pair(tmp_path, preds, preds, [0, 1])
        rc, err = run_cli(["audit-classes", *pair, "--out", str(tmp_path / "a.csv")])
        assert rc == 2 and "Traceback" not in err
        assert f"test split has 2 examples, too few for {label + 1} classes" in err

    def test_more_classes_than_training_examples(self, data_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        for split in ("train", "test"):
            (data / f"{split}.meta.json").write_text(json.dumps({"num_classes": 3 * 10**9}))
        # a C-sized allocation (24 GB of class counts) fails under the limit instead of
        # taking the machine's memory
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "from compresslens.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=str(Path(compresslens.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        out = tmp_path / "l.csv"
        proc = subprocess.run(
            [sys.executable, "-c", code, "train", "--data", str(data), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert "training split has 400 examples, too few for 3000000000 classes" in proc.stderr
        assert not out.exists()

    def test_test_split_without_a_class_fails_before_training(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        generate(SynthLongTailSpec(num_classes=3, dim=4, train_count=150, test_count=60), data)
        test = read_dataset(data / "test.csv")
        keep = test.labels != 2
        write_dataset(LabeledDataset.from_arrays(
            test.example_ids[keep], test.labels[keep], test.feature_matrix[keep], 3,
        ), data / "test.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"path": str(data)}, "sweep": [{"method": "none"}],
            "train": {"steps": 60, "batch_size": 32, "population_size": 2, "hidden_dims": [8]},
        }))

        def no_training(*args):
            raise AssertionError("a test split without a class is refused before training")

        monkeypatch.setattr(trainer, "_train_single", no_training)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--sparsity", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[stage: dataset] classes with zero test support: [2]" in err
        assert not out.exists()
        monkeypatch.undo()  # a sweep without a Welch audit runs
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "solo")]) == 0

    def test_bad_window_fails_before_training(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"steps": 60}, "prune": {"end": 100}}))
        out = tmp_path / "o"
        rc, err = run_cli(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2 and "Traceback" not in err
        assert "prune_end" in err
        assert not any(out.glob("logs/*"))

    def test_report_rejects_non_pie_csv(self, logs, tmp_path):
        audit = tmp_path / "audit.csv"
        assert main([
            "audit-classes", "--base", str(logs / "base.csv"),
            "--comp", str(logs / "comp.csv"), "--out", str(audit),
        ]) == 0
        rc, err = run_cli([
            "report", "--audit", str(audit), "--pie", str(audit),
            "--out", str(tmp_path / "r"),
        ])
        assert rc == 2 and "Traceback" not in err
        assert "PIE header" in err
        assert not (tmp_path / "r" / "report.json").exists()


class TestOneSetOfDefaults:
    """The CLI, the JSON config and the dataclasses resolve to the same defaults."""

    def test_train_matches_run(self, data_dir, tmp_path):
        seed = 5
        common = ["--data", str(data_dir), "--steps", "120", "--models", "2", "--hidden", "8"]
        assert main(["train", "--out", str(tmp_path / "base.csv"),
                     "--seed", str(seed), *common]) == 0
        assert main(["train", "--out", str(tmp_path / "prune.csv"), "--sparsity", "0.8",
                     "--seed", str(seed + 100_000), *common]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": seed,
            "dataset": {"path": str(data_dir)},
            "train": {"steps": 120, "population_size": 2, "hidden_dims": [8]},
            "sweep": [{"method": "none"}, {"method": "magnitude_prune", "sparsity": 0.8}],
        }))
        bundle = tmp_path / "bundle"
        assert main(["run", "--config", str(cfg), "--out", str(bundle)]) == 0
        for cli_log, run_log in (("base.csv", "baseline.csv"), ("prune.csv", "prune_0.8.csv")):
            assert (tmp_path / cli_log).read_bytes() == (
                bundle / "logs" / run_log
            ).read_bytes(), cli_log

    def test_prune_window_follows_steps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"steps": 600}}))
        got = load_experiment_config(cfg)
        assert resolved_window(got) == (60, 420, 24)

    @pytest.mark.parametrize("steps, window", [(5000, (500, 3500, 200)), (600, (60, 420, 24))])
    def test_replace_steps_moves_the_window(self, steps, window):
        config = dataclasses.replace(ExperimentConfig(), train=TrainConfig(steps=steps))
        assert resolved_window(config) == window == prune_window(steps)

    def test_generate_flags_are_the_spec_fields(self):
        args = vars(cli._build_parser().parse_args(["generate", "--out", "o"]))
        assert set(args) - {"command", "out"} == {
            f.name for f in dataclasses.fields(SynthLongTailSpec)
        }

    @pytest.mark.parametrize("topk, depth", [(3, "top3"), (8, "top5")])
    def test_summary_topk_depth(self, tmp_path, topk, depth):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"synth": {"num_classes": 10, "dim": 4, "train_count": 200,
                                  "test_count": 100, "seed": 1}},
            "train": {"steps": 20, "population_size": 2, "hidden_dims": [8]},
            "sweep": [{"method": "none"}],
            "topk": topk,
        }))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary["baseline"]) == sorted(["top1", depth])

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Experiment config (JSON)", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(block)
        config = load_experiment_config(cfg)
        # the example spells out the built-in defaults of these blocks
        assert (config.synth, config.train, config.audit) == (
            SynthLongTailSpec(), TrainConfig(), compresslens.AuditConfig()
        )

    def test_generate_defaults(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "cli")]) == 0
        generate(SynthLongTailSpec(), tmp_path / "lib")
        for name in ("train.csv", "train.meta.json", "test.csv", "test.meta.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (
                tmp_path / "lib" / name
            ).read_bytes(), name


class TestBundleReadBack:
    """Audits of a bundle's log CSVs, read back, equal the audits `run` wrote."""

    def test_audits_from_logs_match_bundle(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 7,
            "dataset": {"path": str(data_dir)},
            "train": {"steps": 120, "population_size": 3, "hidden_dims": [8]},
            "sweep": [{"method": "none"}, {"method": "magnitude_prune", "sparsity": 0.8}],
        }))
        bundle = tmp_path / "bundle"
        assert main(["run", "--config", str(cfg), "--out", str(bundle)]) == 0
        logs, label = bundle / "logs", "prune_0.8"
        pair = ["--base", str(logs / "baseline.csv"), "--comp", str(logs / f"{label}.csv")]
        assert main(["audit-classes", *pair, "--out", str(tmp_path / "audit.csv")]) == 0
        assert main(["audit-pie", *pair, "--data", str(data_dir), "--out", str(tmp_path / "pie")]) == 0
        for got, want in (
            (tmp_path / "audit.csv", bundle / "audits" / f"class_audit_{label}.csv"),
            (tmp_path / "pie" / "pie.csv", bundle / "pies" / f"pie_{label}.csv"),
            (tmp_path / "pie" / "attributes.csv", bundle / "pies" / f"attr_{label}.csv"),
        ):
            assert got.read_bytes() == want.read_bytes(), want.name

    def test_commands_agree_with_run(self, tmp_path, monkeypatch):
        """Each level of a quantized and pruned sweep, audited again from its CSV logs."""
        data = tmp_path / "data"
        generate(SynthLongTailSpec(num_classes=5, dim=8, train_count=500, test_count=200,
                                   seed=1), data)
        config = ExperimentConfig(
            train=TrainConfig(steps=200, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
                              weight_decay=1e-4, population_size=3, hidden_dims=(16,)),
            sweep=(CompressionSpec("none"), CompressionSpec("magnitude_prune", 0.5),
                   CompressionSpec("quant_dynamic_int8")),
            seed=11, prune_start=20, prune_end=140, prune_every=10,
            dataset_path=str(data), out_dir=str(tmp_path / "bundle"),
        )
        in_memory = {}

        def keep(base_log, comp_log, *args, **kwargs):
            in_memory[comp_log.population_id] = audit_level(base_log, comp_log, *args, **kwargs)
            return in_memory[comp_log.population_id]

        monkeypatch.setattr(pipeline, "audit_level", keep)
        run_pipeline(config)
        bundle = Path(config.out_dir)
        assert sorted(in_memory) == ["dynamic_int8", "prune_0.5"]
        test_ds = read_dataset(data / "test.csv")
        for label, level in in_memory.items():
            base, comp = bundle / "logs" / "baseline.csv", bundle / "logs" / f"{label}.csv"
            pair = ["--base", str(base), "--comp", str(comp)]
            out = tmp_path / label
            assert main(["audit-classes", *pair, "--out", str(out / "audit.csv")]) == 0
            assert main(["audit-pie", *pair, "--data", str(data), "--out", str(out)]) == 0
            assert len(level.pies) > 0, label  # so that the attribute files are compared
            for got, want in (
                ("audit.csv", f"audits/class_audit_{label}.csv"),
                ("pie.csv", f"pies/pie_{label}.csv"),
                ("attributes.csv", f"pies/attr_{label}.csv"),
            ):
                assert (out / got).read_bytes() == (bundle / want).read_bytes(), want

            again = audit_level(
                read_prediction_log(base), read_prediction_log(comp), test_ds, AuditConfig()
            )
            for name in ("example_ids", "modal_base", "modal_comp"):
                assert np.array_equal(getattr(again.pies, name), getattr(level.pies, name))
            assert (again.subset, again.attributes) == (level.subset, level.attributes)
            assert again.class_rows == level.class_rows

    def test_bundle_holds_what_run_computed(self, tmp_path, monkeypatch):
        """Each file of a bundle, read back, equals the in-memory result it was written from."""
        config = ExperimentConfig(
            train=TrainConfig(steps=60, batch_size=32, learning_rate=0.1, lr_decay_steps=None,
                              weight_decay=1e-4, population_size=3, hidden_dims=(16,)),
            sweep=(CompressionSpec("none"), CompressionSpec("magnitude_prune", 0.5),
                   CompressionSpec("magnitude_prune", 0.9)),
            seed=5, prune_start=10, prune_end=40, prune_every=10,
            synth=SynthLongTailSpec(num_classes=5, dim=8, train_count=400, test_count=200, seed=2),
            out_dir=str(tmp_path / "bundle"),
        )
        levels = {}

        def keep(*args, **kwargs):
            level = audit_level(*args, **kwargs)
            levels[level.comp_log.population_id] = level
            return level

        monkeypatch.setattr(pipeline, "audit_level", keep)
        summary = run_pipeline(config)
        bundle = Path(config.out_dir)
        assert summary == json.loads((bundle / "summary.json").read_text())
        assert sorted(levels) == ["prune_0.5", "prune_0.9"]

        def six_decimals(values):  # what a "%.6f" cell reads back as
            return [float(f"{v:.6f}") for v in values]

        for label, level in levels.items():
            for log in (level.base_log, level.comp_log):
                back = read_prediction_log(bundle / "logs" / f"{log.population_id}.csv")
                assert (back.population_id, back.compression, back.num_classes) == (
                    log.population_id, log.compression, log.num_classes)
                for name in ("example_ids", "truth", "predictions"):
                    np.testing.assert_array_equal(getattr(back, name), getattr(log, name))

            audit = read_audit_csv(bundle / "audits" / f"class_audit_{label}.csv")
            columns = zip(*map(dataclasses.astuple, level.class_rows))
            for name, column in zip(AUDIT_HEADER, columns, strict=True):
                np.testing.assert_array_equal(audit[name], six_decimals(column), err_msg=name)

            pies = read_pie_report(bundle / "pies" / f"pie_{label}.csv")
            ids = level.pies.example_ids
            np.testing.assert_array_equal(pies["example_id"], ids)
            np.testing.assert_array_equal(pies["true_label"], level.base_log.truth)
            np.testing.assert_array_equal(pies["modal_base"], level.pies.modal_base)
            np.testing.assert_array_equal(pies["modal_comp"], level.pies.modal_comp)
            np.testing.assert_array_equal(pies["is_pie"], level.pies.is_pie(ids))

            assert level.attributes, label  # PIEs on a split with attributes: a file to compare
            header, *rows = (bundle / "pies" / f"attr_{label}.csv").read_text().splitlines()
            assert header.split(",") == ATTR_HEADER
            cells = (row.split(",") for row in rows)
            shares = {name: list(map(float, values)) for name, *values in cells}
            assert shares == {name: six_decimals(v) for name, v in level.attributes.items()}


class TestLevelAudit:
    def test_no_pies(self, logs):
        base = read_prediction_log(logs / "base.csv")
        level = audit_level(base, base, None)
        assert len(level.pies) == 0
        assert (level.subset, level.attributes) == (None, None)

    def test_one_model_has_no_class_rows(self, logs):
        base = read_prediction_log(logs / "base.csv")
        comp = read_prediction_log(logs / "comp.csv")
        one = dataclasses.replace(comp, predictions=comp.predictions[:1])
        assert audit_level(base, one, None).class_rows is None
        assert len(audit_level(base, comp, None).class_rows) == base.num_classes

    def test_every_example_a_pie(self, tmp_path):
        """A run whose baseline scores no example outside the PIEs writes null there."""
        config = ExperimentConfig(
            out_dir=str(tmp_path / "o"), seed=9,
            train=TrainConfig(steps=20, batch_size=8, population_size=2, hidden_dims=(4,),
                              lr_decay_steps=None),
            sweep=(CompressionSpec("none"), CompressionSpec("magnitude_prune", 0.95)),
            synth=SynthLongTailSpec(num_classes=2, dim=2, train_count=20, test_count=2, seed=9),
        )
        (level,) = run_pipeline(config)["levels"]
        assert level["pie_count"] == 2
        assert level["baseline_top1_on_non_pies"] is None
        assert level["baseline_top1_on_all"] == level["baseline_top1_on_pies"]


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


# each config block's path in the document and its keys; ("sweep", -1) is the
# sweep's last entry
_CONFIG_BLOCKS = [
    ((), ["train", "sweep", "audit", "dataset", "prune", "seed", "out_dir", "topk"]),
    (("train",), _fields(TrainConfig)),
    (("audit",), _fields(AuditConfig)),
    (("prune",), ["start", "end", "every"]),
    (("dataset",), ["path", "synth"]),
    (("dataset", "synth"), _fields(SynthLongTailSpec)),
    (("sweep", -1), _fields(CompressionSpec)),
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["none", "magnitude_prune", "quant_float16", "data"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner),
    max_leaves=4,
)


def _block(doc: dict, path) -> dict:
    """The block at `path` in `doc`, put there where it is missing or not an object."""
    for part in path:
        if part == -1:
            if not doc or not isinstance(doc[-1], dict):
                doc.append({})
        elif not isinstance(doc.get(part), list if part == "sweep" else dict):
            doc[part] = [] if part == "sweep" else {}
        doc = doc[part]
    return doc


@st.composite
def mutated_configs(draw):
    """A seed-corpus document with one to three keys set to any JSON value, or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(BAD_KEY_CASES + WRONG_TYPE_CASES))[0])
    for _ in range(draw(st.integers(1, 3))):
        path, keys = draw(st.sampled_from(_CONFIG_BLOCKS))
        block, key = _block(doc, path), draw(st.sampled_from(keys))
        if key in block and draw(st.booleans()):
            del block[key]
        else:
            block[key] = draw(_JSON_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_configs())
def test_config_fuzz_raises_only_toolkit_errors(tmp_path_factory, doc):
    """A mutated config loads or raises a CompressLensError, which the CLI exits 2 on."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        load_experiment_config(path)
    except CompressLensError:
        pass
