"""End-to-end experiment pipeline: generate/load data, train the sweep, audit, report.

The pipeline is idempotent given its seed: re-running the same config writes
byte-identical files. Reports carry no timestamps and all iteration orders
are fixed.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .data_model import (
    AuditConfig,
    CompressionSpec,
    LabeledDataset,
    PredictionLog,
    atomic_write_text,
    check_field_types,
    model_accuracy,
    read_dataset,
    read_json_object,
    write_prediction_log,
)
from .errors import CompressLensError, ConfigError, ParseError, SchemaError
from .pie_audit import (
    PIE_HEADER,
    identify_pies,
    subset_accuracy,
    write_attribute_report,
    write_pie_report,
)
from .stats_audit import AUDIT_HEADER, audit_classes, write_audit_csv
from .synth import SynthLongTailSpec, synthesize
from .trainer import (
    PruneSchedule,
    TrainConfig,
    check_schedule,
    prune_window,
    ranking_depth,
    train_population,
)

# seed stride between populations so no two share model seeds
_POPULATION_SEED_STRIDE = 100_000


@contextmanager
def _stage(name: str):
    """Re-raise toolkit errors with the failing pipeline stage named."""
    try:
        yield
    except CompressLensError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep: tuple[CompressionSpec, ...] = (
        CompressionSpec("none"),
        CompressionSpec("magnitude_prune", 0.3),
        CompressionSpec("magnitude_prune", 0.5),
        CompressionSpec("magnitude_prune", 0.7),
        CompressionSpec("magnitude_prune", 0.9),
    )
    audit: AuditConfig = AuditConfig()
    seed: int = 3
    out_dir: str = "compresslens-run"
    dataset_path: str | None = None  # directory holding train.csv / test.csv
    synth: SynthLongTailSpec = field(default_factory=SynthLongTailSpec)
    # a window value left out (None) is derived from train.steps by
    # `prune_window` when a level is scheduled (the defaults give 250 / 1750 / 100)
    prune_start: int | None = None
    prune_end: int | None = None
    prune_every: int | None = None
    topk: int | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")
        if self.topk is not None and self.topk < 1:
            raise ConfigError(f"topk must be positive, got {self.topk!r}")
        for name in ("out_dir", "dataset_path"):
            value = getattr(self, name)
            if not isinstance(value, (str, os.PathLike, type(None))):
                raise ConfigError(f"{name} must be a path, got {value!r}")
        baselines = [s for s in self.sweep if s.method == "none"]
        if len(baselines) != 1:
            raise ConfigError(
                f"sweep must include exactly one 'none' baseline, got {len(baselines)}"
            )


_TOP_KEYS = ("seed", "out_dir", "topk")  # copied to ExperimentConfig as they are
# "prune" block key -> ExperimentConfig field
_PRUNE_KEYS = {"start": "prune_start", "end": "prune_end", "every": "prune_every"}


def _block(doc, name: str, allowed) -> dict:
    """A config block as a dict; `allowed` is a dataclass or a collection of keys."""
    if is_dataclass(allowed):
        allowed = [f.name for f in fields(allowed)]
    if not isinstance(doc, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in config block {name!r}")
    return doc


def _make(cls, doc, name: str):
    """`cls(**doc)` for one config block; a value of the wrong type is a ConfigError."""
    values = _block(doc, name, cls)
    try:
        return cls(**values)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value in config block {name!r}: {exc}") from None


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse the JSON config documented in the README; keys left out keep defaults."""
    doc = read_json_object(path)
    _block(doc, "top level", ("train", "sweep", "audit", "dataset", "prune", *_TOP_KEYS))
    kwargs: dict = {}
    if "train" in doc:
        kwargs["train"] = _make(TrainConfig, doc["train"], "train")
    if "sweep" in doc:
        if not isinstance(doc["sweep"], list):
            raise ConfigError(f"sweep must be a JSON list, got {doc['sweep']!r}")
        kwargs["sweep"] = tuple(_make(CompressionSpec, e, "sweep") for e in doc["sweep"])
    if "audit" in doc:
        kwargs["audit"] = _make(AuditConfig, doc["audit"], "audit")
    if "dataset" in doc:
        ds = _block(doc["dataset"], "dataset", ("path", "synth"))
        if len(ds) != 1:
            raise ConfigError("dataset must carry either 'path' or 'synth'")
        if "path" in ds:
            kwargs["dataset_path"] = ds["path"]
        else:
            kwargs["synth"] = _make(SynthLongTailSpec, ds["synth"], "dataset.synth")
    if "prune" in doc:
        for key, value in _block(doc["prune"], "prune", _PRUNE_KEYS).items():
            # checked alone, so that an error names the JSON key
            _make(ExperimentConfig, {_PRUNE_KEYS[key]: value}, f"prune.{key}")
            kwargs[_PRUNE_KEYS[key]] = value
    for key in _TOP_KEYS:
        if key in doc:
            kwargs[key] = doc[key]
    return ExperimentConfig(**kwargs)


def _resolve_dataset(config: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if config.dataset_path is not None:
        root = Path(config.dataset_path)
        return read_dataset(root / "train.csv"), read_dataset(root / "test.csv")
    return synthesize(config.synth)


def _schedule_for(config: ExperimentConfig, spec: CompressionSpec) -> PruneSchedule | None:
    if spec.method != "magnitude_prune":
        return None
    window = prune_window(
        config.train.steps, config.prune_start, config.prune_end, config.prune_every
    )
    return PruneSchedule(spec.sparsity, *window)


@dataclass(frozen=True)
class PipelineResult:
    out_dir: Path
    summary: dict
    log_paths: dict[str, Path]


def run_pipeline(config: ExperimentConfig) -> PipelineResult:
    """Run the full protocol: train the sweep, audit each level, write the bundle."""
    schedules = {}  # every level's, checked before anything is trained or written
    for spec in config.sweep:
        with _stage(f"train {spec.label}"):
            schedules[spec.label] = _schedule_for(config, spec)
            check_schedule(config.train, spec, schedules[spec.label])
    out = Path(config.out_dir)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    (out / "audits").mkdir(exist_ok=True)
    (out / "pies").mkdir(exist_ok=True)

    with _stage("dataset"):
        train_ds, test_ds = _resolve_dataset(config)

    baseline_spec = next(s for s in config.sweep if s.method == "none")
    comp_specs = [s for s in config.sweep if s.method != "none"]

    log_paths: dict[str, Path] = {}
    logs: dict[str, PredictionLog] = {}

    def _train(spec: CompressionSpec, seed: int) -> PredictionLog:
        with _stage(f"train {spec.label}"):
            _, log = train_population(
                train_ds,
                test_ds,
                replace(config.train, seed=seed),
                spec,
                schedule=schedules[spec.label],
                topk=config.topk,
            )
            path = out / "logs" / f"{spec.label}.csv"
            write_prediction_log(log, path)
        log_paths[spec.label] = path
        logs[spec.label] = log
        return log

    base_log = _train(baseline_spec, config.seed)
    for i, spec in enumerate(comp_specs):
        _train(spec, config.seed + _POPULATION_SEED_STRIDE * (i + 1))

    eval_k = ranking_depth(None, base_log.topk)  # five ranks, capped at the log's depth

    def _population_entry(log: PredictionLog) -> dict:
        return {
            "top1": round(100.0 * float(model_accuracy(log, 1).mean()), 4),
            f"top{eval_k}": round(100.0 * float(model_accuracy(log, eval_k).mean()), 4),
        }

    levels = []
    has_attrs = bool(test_ds.attribute_names)
    for spec in comp_specs:
        comp_log = logs[spec.label]
        entry: dict = {
            "label": spec.label,
            "method": spec.method,
            "sparsity": spec.sparsity,
        }
        entry.update(_population_entry(comp_log))
        with _stage(f"audit {spec.label}"):
            if comp_log.num_models >= 2 and base_log.num_models >= 2:
                rows = audit_classes(base_log, comp_log, config.audit)
                write_audit_csv(rows, out / "audits" / f"class_audit_{spec.label}.csv")
                entry["significant_classes"] = sum(r.significant for r in rows)
            else:
                entry["significant_classes"] = 0
            pies = identify_pies(base_log, comp_log)
            pie_csv = out / "pies" / f"pie_{spec.label}.csv"
            write_pie_report(pies, base_log.truth, pie_csv)
            entry["pie_count"] = len(pies)
            if pies.pie_ids:
                acc_pie, acc_non, acc_all = subset_accuracy(base_log, pies, 1)
                entry["baseline_top1_on_pies"] = round(100.0 * acc_pie, 4)
                entry["baseline_top1_on_non_pies"] = round(100.0 * acc_non, 4)
                entry["baseline_top1_on_all"] = round(100.0 * acc_all, 4)
                if has_attrs:
                    write_attribute_report(
                        pies, test_ds, out / "pies" / f"attr_{spec.label}.csv"
                    )
        levels.append(entry)

    summary = {
        "seed": config.seed,
        "num_classes": test_ds.num_classes,
        "num_models": config.train.population_size,
        "baseline": _population_entry(base_log),
        "levels": levels,
        "total_significant_classes": sum(e["significant_classes"] for e in levels),
        "total_pies": sum(e["pie_count"] for e in levels),
    }
    atomic_write_text(
        out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return PipelineResult(out_dir=out, summary=summary, log_paths=log_paths)


# ---------------------------------------------------------------------------
# report merging
# ---------------------------------------------------------------------------

def _read_audit_rows(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        if header != AUDIT_HEADER:
            raise SchemaError(f"{path}: unexpected audit header {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields", lineno)
            try:
                rows.append(
                    {
                        "class": int(row[0]),
                        "mean_recall_base": float(row[1]),
                        "mean_recall_comp": float(row[2]),
                        "norm_recall_diff": float(row[3]),
                        "t_stat": float(row[4]),
                        "df": float(row[5]),
                        "p_value": float(row[6]),
                        "significant": row[7] == "1",
                    }
                )
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    return rows


def _read_pie_counts(path: str | Path) -> tuple[int, int]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return 0, 0
        if header != PIE_HEADER:
            raise SchemaError(f"{path}: unexpected PIE header {header}")
        total = pies = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields", lineno)
            total += 1
            if row[-1] == "1":
                pies += 1
    return pies, total


def write_report(
    audit_csv: str | Path,
    out_dir: str | Path,
    pie_csv: str | Path | None = None,
    chart: bool = False,
) -> dict:
    """Merge audit (and optional PIE) CSVs into a text table plus machine JSON.

    When `chart` is set, a per-class bar-chart data file is also written
    (class, normalized recall difference, significance flag).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _read_audit_rows(audit_csv)
    rows.sort(key=lambda r: (r["norm_recall_diff"], r["class"]))

    lines = [
        f"{'class':>6} {'recall_base':>12} {'recall_comp':>12} "
        f"{'norm_diff':>10} {'p_value':>10} {'signif':>6}"
    ]
    for r in rows:
        lines.append(
            f"{r['class']:>6} {r['mean_recall_base']:>12.4f} "
            f"{r['mean_recall_comp']:>12.4f} {r['norm_recall_diff']:>10.4f} "
            f"{r['p_value']:>10.6f} {'yes' if r['significant'] else 'no':>6}"
        )
    n_signif = sum(r["significant"] for r in rows)
    lines.append("")
    lines.append(f"classes: {len(rows)}  significant: {n_signif}")

    doc: dict = {
        "classes": len(rows),
        "significant_classes": n_signif,
        "rows": rows,
    }
    if pie_csv is not None:
        pies, total = _read_pie_counts(pie_csv)
        doc["pie_count"] = pies
        doc["examples"] = total
        lines.append(f"pies: {pies} / {total}")
    atomic_write_text(out_dir / "report.txt", "\n".join(lines) + "\n")
    atomic_write_text(
        out_dir / "report.json", json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    if chart:
        chart_lines = ["class,norm_recall_diff,significant"]
        for r in rows:
            chart_lines.append(
                f"{r['class']},{r['norm_recall_diff']:.6f},"
                f"{1 if r['significant'] else 0}"
            )
        atomic_write_text(out_dir / "chart.csv", "\n".join(chart_lines) + "\n")
    return doc
