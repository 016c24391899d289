"""The three workloads: their set-up, their timed operations and their checks.

Set-up runs in the benchmark process. The timed operations run in a fresh
interpreter (`child.py`), so that their peak memory is theirs alone; `ops`
builds them there, before the clock starts. Checks run in the benchmark
process after the timed rounds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

import checks
import logsynth
from tracer import CORRUPTION_KINDS


def _seed(seed: int) -> int:
    """A non-negative seed for numpy and the program's seeded configs."""
    return seed % 2**31


def _cli(argv: list[str]):
    from compresslens.cli import main

    def op():
        return main(argv)

    return op


class DeskRun:
    """`compresslens run` with the built-in desk-scale defaults.

    Seed 0 is the built-in configuration itself (`run --out`). Any other seed
    n runs the same configuration from a JSON file with experiment seed 3 + n
    and synthetic dataset seed n.
    """

    name = "desk_run"
    ops_per_round = 1

    def setup(self, inputs: Path, seed: int) -> dict:
        from compresslens import SynthLongTailSpec, synthesize

        spec = {"seed": seed, "config": None}
        if seed != 0:
            config = {
                "seed": 3 + _seed(seed),
                "train": {"prune_biases": False},
                "prune": {"start": 250, "end": 1750, "every": 100},
                "dataset": {"synth": {"seed": _seed(seed)}},
            }
            spec["config"] = str(inputs / "experiment.json")
            Path(spec["config"]).write_text(json.dumps(config, indent=2) + "\n")
        # the test split's attributes, for the paper-property checks
        _, test = synthesize(SynthLongTailSpec(seed=_seed(seed)))
        np.savez(
            inputs / "test_attributes.npz",
            ids=test.example_ids,
            minority=test.attribute_mask("minority"),
            noisy=test.attribute_mask("noisy"),
        )
        return spec

    def ops(self, spec: dict, out: Path) -> list:
        argv = ["run", "--out", str(out / "bundle")]
        if spec["config"]:
            argv += ["--config", spec["config"]]
        return [("cli.run", _cli(argv))]

    def check(self, spec: dict, inputs: Path, out: Path) -> tuple[list[str], list[str]]:
        """(problems, one note per paper property).

        A gated property that does not hold is a problem; a seed-fragile one
        is only noted.
        """
        bundle = out / "bundle"
        recount = checks.desk_recount(bundle)
        summary = json.loads((bundle / "summary.json").read_text())
        pie_ids = {}
        for label in recount["levels"]:
            _, rows = checks.read_csv_rows(bundle / "pies" / f"pie_{label}.csv")
            pie_ids[label] = {int(r[0]) for r in rows if r[4] == "1"}
        attrs = np.load(inputs / "test_attributes.npz")
        props = {name: (attrs["ids"], attrs[name]) for name in ("minority", "noisy")}
        problems = checks.desk_summary_problems(summary, recount, pie_ids)
        notes = []
        for name, (holds, figure) in checks.desk_paper_properties(recount, props).items():
            gated = name not in checks.SEED_FRAGILE
            notes.append(f"paper property {'holds' if holds else 'FAILS'}"
                         f"{'' if gated else ' (seed-fragile, not gated)'}: {figure}")
            if gated and not holds:
                problems.append(figure)
        return problems, notes

    digest_dir = "bundle"


class AuditLogs:
    """Write three populations' logs and the test split, then audit through the CLI."""

    name = "audit_logs"
    ops_per_round = 4 + 3 * len(logsynth.POPULATIONS)

    def setup(self, inputs: Path, seed: int) -> dict:
        self.save_arrays(inputs, logsynth.generate(_seed(seed)))
        return {"seed": seed}

    @staticmethod
    def save_arrays(inputs: Path, arrays: dict) -> None:
        np.savez(inputs / "arrays.npz", **{k.replace(":", "__"): v for k, v in arrays.items()})

    @staticmethod
    def arrays(inputs: Path) -> dict:
        with np.load(inputs / "arrays.npz") as data:
            return {k.replace("__", ":"): data[k] for k in data.files}

    def ops(self, spec: dict, out: Path) -> list:
        from compresslens import (
            CompressionSpec, ExampleRecord, LabeledDataset, PredictionLog,
            write_dataset, write_prediction_log,
        )

        a = self.arrays(Path(spec["inputs"]))
        specs = {
            "baseline": CompressionSpec("none"),
            "prune_0.9": CompressionSpec("magnitude_prune", 0.9),
            "dynamic_int8": CompressionSpec("quant_dynamic_int8"),
        }
        logs = {
            label: PredictionLog(
                population_id=label, compression=comp, example_ids=a["ids"],
                truth=a["truth"], predictions=a[f"pred:{label}"],
                explicit_num_classes=logsynth.NUM_CLASSES,
            )
            for label, comp in specs.items()
        }
        flags = [
            frozenset(n for n in ("minority", "noisy", "atypical") if a[n][i])
            for i in range(len(a["ids"]))
        ]
        test = LabeledDataset(
            examples=tuple(
                ExampleRecord(example_id=int(e), features=f, true_label=int(t), attributes=fl)
                for e, f, t, fl in zip(a["ids"], a["features"], a["truth"], flags)
            ),
            num_classes=logsynth.NUM_CLASSES,
        )
        ops = [
            (None, lambda log=log, label=label: write_prediction_log(log, out / "logs" / f"{label}.csv"))
            for label, log in logs.items()
        ]
        ops.append((None, lambda: write_dataset(test, out / "data" / "test.csv")))
        base = str(out / "logs" / "baseline.csv")
        for label in logsynth.POPULATIONS:
            comp = str(out / "logs" / f"{label}.csv")
            audit = str(out / "audits" / f"class_{label}.csv")
            pies = out / "pies" / label
            ops += [
                ("cli.audit_classes", _cli(["audit-classes", "--base", base, "--comp", comp, "--out", audit])),
                ("cli.audit_pie", _cli(["audit-pie", "--base", base, "--comp", comp,
                                        "--data", str(out / "data"), "--out", str(pies)])),
                ("cli.report", _cli(["report", "--audit", audit, "--pie", str(pies / "pie.csv"),
                                     "--out", str(out / "reports" / label), "--chart"])),
            ]
        return ops

    def check(self, spec: dict, inputs: Path, out: Path) -> tuple[list[str], list[str]]:
        return checks.audit_logs_problems(out, self.arrays(inputs), list(logsynth.POPULATIONS)), []

    digest_dir = "."


class Robustness:
    """`audit-robustness` over all six kinds, baseline against pruned snapshots."""

    name = "robustness"
    ops_per_round = 1
    LAYOUT = (8, 8)
    MODELS = 5
    TRAIN_COUNT = 3000
    TEST_COUNT = 2000
    STEPS = 600

    def setup(self, inputs: Path, seed: int) -> dict:
        from compresslens import (
            CompressionSpec, ExampleRecord, LabeledDataset, PruneSchedule,
            SynthLongTailSpec, TrainConfig, synthesize, train_population, write_dataset,
        )
        from compresslens.trainer import save_model

        s = _seed(seed)
        h, w = self.LAYOUT
        train, test = synthesize(SynthLongTailSpec(dim=h * w, train_count=self.TRAIN_COUNT,
                                                   test_count=self.TEST_COUNT, seed=s))
        test = LabeledDataset(
            examples=tuple(
                ExampleRecord(example_id=ex.example_id, features=ex.features,
                              true_label=ex.true_label, attributes=ex.attributes,
                              layout=self.LAYOUT)
                for ex in test.examples
            ),
            num_classes=test.num_classes,
        )
        write_dataset(test, inputs / "data" / "test.csv")
        steps = self.STEPS
        config = TrainConfig(steps=steps, batch_size=64, lr_decay_steps=2 * steps // 3,
                             hidden_dims=(64,), population_size=self.MODELS,
                             prune_biases=False, seed=s)
        schedule = PruneSchedule(0.9, steps // 10, 7 * steps // 10, steps // 15)
        for label, comp, sched, offset in (
            ("base", CompressionSpec("none"), None, 0),
            ("pruned", CompressionSpec("magnitude_prune", 0.9), schedule, 100_000),
        ):
            models, _ = train_population(
                train, test, dataclasses.replace(config, seed=s + offset), comp, sched
            )
            for k, model in enumerate(models):
                save_model(model, comp, inputs / label / f"model_{k:03d}.json")
        return {"seed": seed}

    def _argv(self, inputs: Path, comp: str, csv_path: Path, seed: int) -> list[str]:
        return ["audit-robustness", "--data", str(inputs / "data"),
                "--base-models", str(inputs / "base"), "--comp-models", str(inputs / comp),
                "--out", str(csv_path), "--seed", str(_seed(seed))]

    def ops(self, spec: dict, out: Path) -> list:
        argv = self._argv(Path(spec["inputs"]), "pruned", out / "robustness.csv", spec["seed"])
        return [("cli.audit_robustness", _cli(argv))]

    def check(self, spec: dict, inputs: Path, out: Path) -> tuple[list[str], list[str]]:
        from compresslens.cli import main

        _, rows = checks.read_csv_rows(out / "robustness.csv")
        split = checks.read_test_split(inputs / "data")
        snaps = {d: [checks.read_snapshot(p) for p in sorted((inputs / d).glob("model_*.json"))]
                 for d in ("base", "pruned")}
        expected = checks.robustness_expected(split, snaps["base"], snaps["pruned"],
                                              CORRUPTION_KINDS, _seed(spec["seed"]))
        problems = checks.robustness_row_problems(rows, expected)
        self_csv = out.parent / f"{out.name}-self.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(self._argv(inputs, "base", self_csv, spec["seed"]))
        if rc != 0:
            problems.append(f"self comparison exited with {rc}")
        else:
            problems += checks.self_compare_problems(checks.read_csv_rows(self_csv)[1], CORRUPTION_KINDS)
        return [f"robustness: {p}" for p in problems], []

    digest_dir = "."


WORKLOADS = {w.name: w for w in (DeskRun(), AuditLogs(), Robustness())}
