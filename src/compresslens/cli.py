"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure. Every flag overrides its config-file counterpart; a flag left out
keeps the default of the dataclass or function it feeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .data_model import (
    QUANT_KINDS,
    AuditConfig,
    CompressionSpec,
    check_output_file,
    existing_dir,
    read_dataset,
    read_prediction_log,
    write_json,
    write_prediction_log,
)
from .errors import CompressLensError, ConfigError, DataError, NumericError
from .pie_audit import write_attribute_report, write_pie_report
from .pipeline import (
    ExperimentConfig,
    audit_level,
    load_experiment_config,
    run_pipeline,
    write_report,
)
from .robustness import CORRUPTION_KINDS, robustness_report, write_robustness_report
from .stats_audit import audit_classes, write_audit_csv
from .synth import SynthLongTailSpec, generate
from .trainer import TrainConfig, load_model, prune_schedule, save_model, train_population

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="compresslens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # the dests of the tuning flags below are fields of the dataclass or
    # parameters of the function they feed, and default to None: a flag left
    # out keeps the default defined there (see `_given`)
    p = sub.add_parser("generate", help="synthesize a Zipf long-tail dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", dest="num_classes", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--train-count", type=int)
    p.add_argument("--test-count", type=int)
    p.add_argument("--zipf", dest="zipf_exponent", type=float, metavar="EXPONENT")
    p.add_argument("--noisy", dest="noisy_fraction", type=float, metavar="FRACTION")
    p.add_argument("--atypical", dest="atypical_fraction", type=float, metavar="FRACTION")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train one model population and log predictions")
    p.add_argument("--data", required=True, help="dataset directory (train.csv/test.csv)")
    p.add_argument("--out", required=True, help="prediction-log CSV path")
    p.add_argument("--models", dest="population_size", type=int, help="population size K")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float, metavar="LR")
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--hidden", dest="hidden_dims", type=int, nargs="+", metavar="WIDTH")
    p.add_argument("--sparsity", type=float, help="magnitude pruning target")
    p.add_argument("--quant", choices=sorted(QUANT_KINDS))
    p.add_argument("--prune-start", type=int)
    p.add_argument("--prune-end", type=int)
    p.add_argument("--prune-every", type=int)
    p.add_argument("--topk", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--save-models", help="directory for model snapshots")

    p = sub.add_parser("audit-classes", help="per-class Welch significance audit")
    p.add_argument("--base", required=True, help="baseline prediction log")
    p.add_argument("--comp", required=True, help="compressed prediction log")
    p.add_argument("--out", required=True, help="audit CSV path")
    p.add_argument("--alpha", type=float)
    p.add_argument("--bonferroni", action="store_true", default=None)

    p = sub.add_parser("audit-pie", help="detect PIEs and analyze their composition")
    p.add_argument("--base", required=True)
    p.add_argument("--comp", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", help="dataset dir for attribute analysis")
    p.add_argument("--topk", dest="k", type=int, help="rank depth of subset accuracy")

    p = sub.add_parser("audit-robustness", help="corruption sensitivity report")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--base-models", required=True, help="baseline snapshot directory")
    p.add_argument("--comp-models", required=True, help="compressed snapshot directory")
    p.add_argument("--out", required=True, help="robustness CSV path")
    p.add_argument("--kinds", nargs="+", default=list(CORRUPTION_KINDS))
    p.add_argument("--topk", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("report", help="merge audit CSVs into text + JSON reports")
    p.add_argument("--audit", required=True, help="class-audit CSV")
    p.add_argument("--pie", help="optional PIE CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--chart", action="store_true", help="emit per-class chart data")

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--sparsity", help="comma-separated sweep, e.g. 0.3,0.9")
    p.add_argument("--quant", choices=sorted(QUANT_KINDS), action="append")
    p.add_argument("--topk", type=int)
    return parser


def _given(args, names) -> dict:
    """The flags among `names` (or a dataclass's fields) given on the command line."""
    if dataclasses.is_dataclass(names):
        names = [f.name for f in dataclasses.fields(names)]
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def _load_models(path: str) -> tuple[list, CompressionSpec]:
    """The snapshots of a directory in file order, and the compression they all share."""
    files = sorted(Path(path).glob("model_*.json"))
    if not files:
        raise DataError(f"no model_*.json snapshots in {path}")
    models, specs = zip(*(load_model(f) for f in files))
    if len(set(specs)) > 1:
        raise DataError(f"snapshots in {path} mix compressions {sorted({s.label for s in specs})}")
    return list(models), specs[0]


def _cmd_generate(args) -> int:
    spec = SynthLongTailSpec(**_given(args, SynthLongTailSpec))
    existing_dir(args.out)
    train_path, test_path = generate(spec, args.out)
    print(f"wrote {train_path} and {test_path}")
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.sparsity is not None and args.quant is not None:
        raise ConfigError("choose either --sparsity or --quant, not both")
    config = TrainConfig(**_given(args, TrainConfig))
    check_output_file(args.out)
    if args.save_models:
        existing_dir(args.save_models)
        # `_load_models` reads every snapshot of a directory as one population
        if any(Path(args.save_models).glob("model_*.json")):
            raise DataError(f"{args.save_models} already holds model_*.json snapshots")
    train_ds = read_dataset(Path(args.data) / "train.csv")
    test_ds = read_dataset(Path(args.data) / "test.csv")

    compression = CompressionSpec("none")
    if args.sparsity is not None:
        compression = CompressionSpec("magnitude_prune", args.sparsity)
    elif args.quant is not None:
        compression = CompressionSpec(QUANT_KINDS[args.quant])
    schedule = prune_schedule(
        compression, config.steps, args.prune_start, args.prune_end, args.prune_every
    )
    models, log = train_population(
        train_ds, test_ds, config, compression, schedule, topk=args.topk
    )
    write_prediction_log(log, args.out)
    if args.save_models:
        snap_dir = Path(args.save_models)
        for k, model in enumerate(models):
            save_model(model, compression, snap_dir / f"model_{k:03d}.json")
    print(f"wrote {args.out} ({log.num_models} models, {log.num_examples} examples)")
    return EXIT_OK


def _cmd_audit_classes(args) -> int:
    config = AuditConfig(**_given(args, AuditConfig))
    check_output_file(args.out)
    base = read_prediction_log(args.base)
    comp = read_prediction_log(args.comp)
    rows = audit_classes(base, comp, config)
    write_audit_csv(rows, args.out)
    n = sum(r.significant for r in rows)
    print(f"wrote {args.out}: {len(rows)} classes, {n} significant at alpha={config.alpha}")
    return EXIT_OK


def _cmd_audit_pie(args) -> int:
    existing_dir(args.out)
    base = read_prediction_log(args.base)
    comp = read_prediction_log(args.comp)
    test_ds = None if args.data is None else read_dataset(Path(args.data) / "test.csv")
    level = audit_level(base, comp, test_ds, **_given(args, ["k"]))
    pies, out_dir = level.pies, Path(args.out)
    write_pie_report(pies, base.truth, out_dir / "pie.csv")

    doc: dict = {"pie_count": len(pies), "examples": len(pies.example_ids)}
    if level.subset is not None:  # fractions at depth k, where `run` writes percentages
        doc.update((f"baseline_topk_on_{name}", acc) for name, acc in level.subset.items())
    if level.attributes is not None:  # a dataset without attributes writes a bare header
        write_attribute_report(level.attributes, out_dir / "attributes.csv")
        doc["attribute_relative_representation"] = {a: r for a, (*_, r) in level.attributes.items()}
    write_json(out_dir / "pie_summary.json", doc)
    print(f"wrote {out_dir}: {len(pies)} PIEs / {len(pies.example_ids)} examples")
    return EXIT_OK


def _cmd_audit_robustness(args) -> int:
    check_output_file(args.out)
    test_ds = read_dataset(Path(args.data) / "test.csv")
    base_models, _ = _load_models(args.base_models)
    comp_models, comp_spec = _load_models(args.comp_models)
    rows = robustness_report(
        test_ds, list(args.kinds), base_models, comp_models, comp_spec,
        **_given(args, ["topk", "seed"]),
    )
    write_robustness_report(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} corruption rows")
    return EXIT_OK


def _cmd_report(args) -> int:
    existing_dir(args.out)
    doc = write_report(args.audit, args.out, pie_csv=args.pie, chart=args.chart)
    print(
        f"wrote {args.out}: {doc['classes']} classes, "
        f"{doc['significant_classes']} significant"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    config = ExperimentConfig() if args.config is None else load_experiment_config(args.config)
    overrides = _given(args, ["out_dir", "seed", "topk"])
    if args.alpha is not None:
        overrides["audit"] = dataclasses.replace(config.audit, alpha=args.alpha)
    if args.sparsity is not None or args.quant:
        sweep: list[CompressionSpec] = [CompressionSpec("none")]
        if args.sparsity is not None:
            try:
                levels = [float(tok) for tok in args.sparsity.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--sparsity {args.sparsity!r}: {exc}") from None
            sweep += [CompressionSpec("magnitude_prune", s) for s in levels]
        for q in args.quant or []:
            sweep.append(CompressionSpec(QUANT_KINDS[q]))
        overrides["sweep"] = tuple(sweep)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    summary = run_pipeline(config)
    print(f"wrote {Path(config.out_dir)}/summary.json")
    for entry in summary["levels"]:
        print(
            f"  {entry['label']}: top1={entry['top1']:.2f} "
            f"signif={entry['significant_classes']} pies={entry['pie_count']}"
        )
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "audit-classes": _cmd_audit_classes,
    "audit-pie": _cmd_audit_pie,
    "audit-robustness": _cmd_audit_robustness,
    "report": _cmd_report,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NumericError as exc:
        print(f"compresslens: numeric failure in {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CompressLensError, OSError) as exc:
        print(f"compresslens: {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
