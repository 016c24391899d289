"""End-to-end CLI tests on a miniature dataset (fast settings throughout)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compresslens
from compresslens import cli
from compresslens.cli import main
from compresslens.data_model import CompressionSpec
from compresslens.errors import ConfigError
from compresslens.pipeline import ExperimentConfig, _schedule_for, load_experiment_config
from compresslens.synth import SynthLongTailSpec, generate
from compresslens.trainer import TrainConfig, prune_window


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
    s = _schedule_for(config, CompressionSpec("magnitude_prune", 0.5))
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

    def test_failing_stage_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": {"path": str(tmp_path / "nowhere")}}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "stage: dataset" in capsys.readouterr().err


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(compresslens.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "compresslens.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


class TestBadInputExits2:
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

    def test_non_numeric_sparsity(self, tmp_path):
        rc, err = run_cli(
            ["run", "--sparsity", "0.5,abc", "--out", str(tmp_path / "o")]
        )
        assert rc == 2 and "Traceback" not in err
        assert "abc" in err

    @pytest.mark.parametrize("doc, key", [
        ({"train": {"stepz": 5}}, "stepz"),
        ({"sweep": [{"method": "none"}, {"sparsity": 0.5}]}, "method"),
        ({"prune": {"every": 100, "begin": 0}}, "begin"),
        # calibration constants and options that are no longer settable
        ({"dataset": {"synth": {"center_scale": 1.6}}}, "center_scale"),
        ({"train": {"prune_final_layer": True}}, "prune_final_layer"),
        ({"audit": {"topk_eval": 5}}, "topk_eval"),
    ])
    def test_bad_config_key(self, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2 and "Traceback" not in err
        assert key in err

    @pytest.mark.parametrize("doc, key", [
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
    ])
    def test_wrong_type_config_value(self, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2 and "Traceback" not in err
        assert key in err

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

    @pytest.mark.parametrize("edit", [
        lambda doc: {},
        lambda doc: {k: v for k, v in doc.items() if k != "biases"},
        lambda doc: {**doc, "weights": [[[1.0, 2.0], [3.0]]]},
        lambda doc: {**doc, "weights": 5},
        lambda doc: {**doc, "weights": [], "biases": []},
        lambda doc: {**doc, "compression": {"method": "bogus"}},
        lambda doc: {**doc, "compression": {"method": "magnitude_prune", "sparsity": 2.0}},
    ], ids=["empty", "no biases", "ragged weights", "weights not a list", "no layers",
            "unknown method", "sparsity out of range"])
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
