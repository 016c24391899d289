"""End-to-end experiment pipeline: generate/load data, train the sweep, audit, report.

The pipeline is idempotent given its seed: re-running the same config writes
byte-identical files. Reports carry no timestamps and all iteration orders
are fixed.
"""

from __future__ import annotations

import os
import tempfile
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
    check_class_support,
    check_same_split,
    existing_dir,
    int_at_least,
    model_accuracy,
    read_dataset,
    read_json_object,
    write_json,
    write_prediction_log,
    write_table,
)
from .errors import CompressLensError, ConfigError, DataError
from .pie_audit import (
    PIESet,
    attribute_shares,
    identify_pies,
    read_pie_report,
    subset_accuracy,
    write_attribute_report,
    write_pie_report,
)
from .stats_audit import AUDIT_HEADER, audit_classes, read_audit_csv, write_audit_csv
from .synth import SynthLongTailSpec, synthesize
from .trainer import (
    TrainConfig,
    check_schedule,
    prune_schedule,
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
        exc.args = (f"[stage: {name}] {exc}",)  # the same error: its type and fields stay
        raise


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
        int_at_least(self.seed, "seed", 0)
        if self.topk is not None:
            int_at_least(self.topk, "topk")
        for name in ("out_dir", "dataset_path"):
            value = getattr(self, name)
            if not isinstance(value, (str, os.PathLike, type(None))):
                raise ConfigError(f"{name} must be a path, got {value!r}")
        baselines = [s for s in self.sweep if s.method == "none"]
        if len(baselines) != 1:
            raise ConfigError(
                f"sweep must include exactly one 'none' baseline, got {len(baselines)}"
            )
        labels = [s.label for s in self.sweep]  # each names one population's files
        if len(set(labels)) < len(labels):
            raise ConfigError(f"sweep repeats the level {max(labels, key=labels.count)!r}")


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
        if isinstance(doc["train"], dict) and "seed" in doc["train"]:
            raise ConfigError(
                "'seed' in config block 'train' is not used: population i trains on the "
                f"top-level 'seed' + {_POPULATION_SEED_STRIDE} * i, so set the top-level 'seed'"
            )
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


@dataclass(frozen=True, eq=False)
class LevelAudit:
    """One level's PIE audit (see `audit_level`)."""

    pies: PIESet
    subset: dict[str, float | None] | None
    attributes: dict[str, tuple[float, float, float]] | None


def audit_level(
    base_log: PredictionLog, comp_log: PredictionLog, test_ds: LabeledDataset | None, k: int = 1
) -> LevelAudit:
    """The PIEs of `comp_log` against `base_log`, and the analyses built on them.

    `subset` maps "pies", "non_pies" and "all" to the baseline's top-`k`
    accuracy there, `attributes` is `attribute_shares`: both None without
    PIEs, `attributes` also without `test_ds`. `k`, and that `test_ds` is
    the logs' split (ids, then true labels), are checked either way.
    """
    base_log.check_depth(k)
    pies = identify_pies(base_log, comp_log)
    if test_ds is not None:
        check_same_split(base_log, test_ds.example_ids, test_ds.labels, "logs and test split")
    if not pies.pie_ids:
        return LevelAudit(pies, None, None)
    subset = dict(zip(("pies", "non_pies", "all"), subset_accuracy(base_log, pies, k)))
    attributes = None if test_ds is None else attribute_shares(pies, test_ds)
    return LevelAudit(pies, subset, attributes)


def run_pipeline(config: ExperimentConfig) -> dict:
    """Run the full protocol, write the bundle to `config.out_dir` and return its summary.

    The returned dict is what `summary.json` holds; each level's log is
    `logs/<label>.csv` in the bundle. The baseline trains first; then each
    compressed level in turn is trained, written and audited against it
    before the next one trains. `out_dir` must be absent or an empty
    directory, so that the bundle holds this run's files only, and its
    nearest existing ancestor a directory. The bundle is written in a hidden
    directory beside `out_dir` and renamed to `out_dir` once `summary.json`
    is in it (into an existing one, entry by entry), so a run that fails
    leaves `out_dir`, and any missing parent of it, as it found them.
    """
    out = Path(config.out_dir)
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise DataError(f"{out} exists and is not an empty directory")
    # the bundle is made beside `out`, or in its nearest existing ancestor:
    # a failed run makes no directory
    near = existing_dir(out.parent)
    with _stage("dataset"):
        train_ds, test_ds = _resolve_dataset(config)

    schedules = {}  # every level's, checked before anything is trained or written
    for spec in config.sweep:
        with _stage(f"train {spec.label}"):
            schedules[spec.label] = prune_schedule(
                spec, config.train.steps, config.prune_start, config.prune_end, config.prune_every
            )
            check_schedule(config.train, spec, schedules[spec.label], len(train_ds))

    if len(config.sweep) > 1 and config.train.population_size >= 2:  # a Welch audit will run
        with _stage("dataset"):
            check_class_support(test_ds.labels, test_ds.num_classes, "test")
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=near) as scratch:
        bundle = Path(scratch) / "bundle"
        bundle.mkdir()  # with the mode `mkdir` gives, where mkdtemp's is 0700
        summary = _write_bundle(config, train_ds, test_ds, schedules, bundle)
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.is_dir():
            # an empty directory keeps its identity (it may be the working
            # directory, as `--out .` is): the files move in, summary.json last
            for entry in sorted(bundle.iterdir(), key=lambda e: e.name == "summary.json"):
                os.replace(entry, out / entry.name)
        else:
            os.replace(bundle, out)
    return summary


def _write_bundle(
    config: ExperimentConfig,
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    schedules: dict,
    out: Path,
) -> dict:
    """Train and audit every level of `config.sweep` into `out`; return the summary."""
    baseline = next(s for s in config.sweep if s.method == "none")
    comp_specs = [s for s in config.sweep if s.method != "none"]

    def _train_level(i: int, spec: CompressionSpec) -> PredictionLog:
        """Train and write one population; the baseline is i = 0, on the experiment seed."""
        seed = config.seed + _POPULATION_SEED_STRIDE * i
        with _stage(f"train {spec.label}"):
            _, log = train_population(
                train_ds, test_ds, replace(config.train, seed=seed), spec,
                schedule=schedules[spec.label], topk=config.topk,
            )
            write_prediction_log(log, out / "logs" / f"{spec.label}.csv")
        return log

    base_log = _train_level(0, baseline)
    eval_k = ranking_depth(None, base_log.topk)  # five ranks, capped at the log's depth

    def _population_entry(log: PredictionLog) -> dict:
        return {
            "top1": round(100.0 * float(model_accuracy(log, 1).mean()), 4),
            f"top{eval_k}": round(100.0 * float(model_accuracy(log, eval_k).mean()), 4),
        }

    def _audit_entry(spec: CompressionSpec, log: PredictionLog) -> dict:
        """Audit one level against the baseline, write its files, return its summary entry."""
        label = spec.label
        entry: dict = {"label": label, "method": spec.method, "sparsity": spec.sparsity}
        entry.update(_population_entry(log))
        with _stage(f"audit {label}"):
            level = audit_level(base_log, log, test_ds)
            entry["significant_classes"] = None  # K = 1: no Welch test runs
            if config.train.population_size >= 2:  # as `run_pipeline` checks before training
                rows = audit_classes(base_log, log, config.audit)
                write_audit_csv(rows, out / "audits" / f"class_audit_{label}.csv")
                entry["significant_classes"] = sum(r.significant for r in rows)
            write_pie_report(level.pies, base_log.truth, out / "pies" / f"pie_{label}.csv")
            entry["pie_count"] = len(level.pies)
            if level.subset is not None:
                for name, acc in level.subset.items():  # None: no example in the subset
                    entry[f"baseline_top1_on_{name}"] = acc if acc is None else round(100 * acc, 4)
            if level.attributes:  # a dataset without attributes writes no file
                write_attribute_report(level.attributes, out / "pies" / f"attr_{label}.csv")
        return entry

    # level i trains on seed + stride * i, and its log is released once it is
    # audited: only the baseline's log and one level's are alive at a time
    levels = [
        _audit_entry(spec, _train_level(i, spec)) for i, spec in enumerate(comp_specs, 1)
    ]

    summary = {
        "seed": config.seed,
        "num_classes": test_ds.num_classes,
        "num_models": config.train.population_size,
        "baseline": _population_entry(base_log),
        "levels": levels,
        "total_significant_classes": (
            sum(e["significant_classes"] for e in levels)
            if config.train.population_size >= 2 else None
        ),
        "total_pies": sum(e["pie_count"] for e in levels),
    }
    write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# report merging
# ---------------------------------------------------------------------------

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
    audit = read_audit_csv(audit_csv)
    rows = [dict(zip(AUDIT_HEADER, row)) for row in zip(*(audit[c].tolist() for c in AUDIT_HEADER))]
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
        is_pie = read_pie_report(pie_csv)["is_pie"]
        doc["pie_count"], doc["examples"] = int(is_pie.sum()), len(is_pie)
        lines.append(f"pies: {doc['pie_count']} / {doc['examples']}")
    atomic_write_text(out_dir / "report.txt", "\n".join(lines) + "\n")
    write_json(out_dir / "report.json", doc)
    if chart:
        columns = ["class", "norm_recall_diff", "significant"]
        cells = [r[c] for r in rows for c in columns]
        write_table(out_dir / "chart.csv", columns, "%d,%.6f,%d", [cells])
    return doc
