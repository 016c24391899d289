"""The package's public surface: what the benchmark relies on, and every knob.

`bench/` is kept fixed between benchmark changes, so a rename or removal in
the package that it imports, or that its tracer times, must fail here first.
The benchmark's files are parsed, not imported or run.

`test_configuration_surface` pins every CLI option, config field, JSON key
and exported name, so a change that adds, renames or drops one must update
its snapshot on purpose.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import compresslens
from compresslens import cli, pipeline

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_FILES = sorted(BENCH.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    """The value of the module-level assignment `name = ...`."""
    return next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name
    )


def imported_names(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(module, attribute) pairs the file takes from the package.

    `from compresslens.m import x` gives ("compresslens.m", "x"), `import
    compresslens.m` gives ("compresslens.m", None), and `alias.x` on an
    `import compresslens as alias` gives ("compresslens", "x").
    """
    names = []
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "compresslens":
            names += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "compresslens":
                    names.append((a.name, None))
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names.append((aliases[node.value.id], node.attr))
    return names


def test_bench_files_found():
    assert {"tracer.py", "workloads.py", "checks.py"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_imports_resolve(path):
    for module, attr in imported_names(_parse(path)):
        mod = importlib.import_module(module)
        assert attr is None or hasattr(mod, attr), f"{path.name}: {module}.{attr}"


def traced_span_names(tree: ast.Module) -> set[str]:
    """Span names the tracer reads: `_ATTRS` keys and every "layer.function" literal.

    Dictionary keys other than `_ATTRS`' are the metric names it reports, not
    spans. The `cli.<command>` spans are operation names built with
    f-strings, so they are not literals and are not collected.
    """
    layers = ast.literal_eval(_assigned(tree, "LAYERS"))
    span = re.compile(rf"^(?:{'|'.join(layers)})\.[A-Za-z_][\w.]*(?::\w+)?$")
    names = {key.value for key in _assigned(tree, "_ATTRS").keys}
    metric_keys = {
        id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in metric_keys
            and span.match(node.value)
        ):
            names.add(node.value.split(":")[0])
    return names


def _resolve(name: str):
    module, *path = name.split(".")
    obj = importlib.import_module(f"compresslens.{module}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def test_traced_spans_are_public_functions():
    names = traced_span_names(_parse(BENCH / "tracer.py"))
    # the parse found both kinds of name: a function and the one method
    assert {"trainer.loss_and_gradients", "trainer.MLPModel.logits", "synth.synthesize"} <= names
    for name in sorted(names):
        obj = _resolve(name)
        assert inspect.isfunction(obj), name
        assert not obj.__name__.startswith("_"), name
        module = f"compresslens.{name.split('.')[0]}"
        assert obj.__module__ == module, f"{name} is defined in {obj.__module__}"


def test_traced_argument_positions_match():
    """`_arg(args, kwargs, i, "p")` in `_ATTRS` reads parameter `p` at position `i`."""
    attrs = _assigned(_parse(BENCH / "tracer.py"), "_ATTRS")
    checked = 0
    for key, value in zip(attrs.keys, attrs.values):
        params = list(inspect.signature(_resolve(key.value)).parameters)
        for call in ast.walk(value):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                index, param = (ast.literal_eval(a) for a in call.args[2:4])
                assert params[index] == param, f"{key.value}: {params} at {index}"
                checked += 1
    assert checked


def test_all_names_exist():
    missing = [name for name in compresslens.__all__ if not hasattr(compresslens, name)]
    assert missing == []
    assert len(set(compresslens.__all__)) == len(compresslens.__all__)


def package_calls(tree: ast.Module) -> list[tuple[ast.Call, object]]:
    """Each call of a callable that the file takes from the package, with that callable.

    A name bound by `from compresslens.m import x [as y]` and an attribute of
    an `import compresslens[.m] as alias` are followed; a call that unpacks
    `*args` or `**kwargs` is left out, since its arguments are not known.
    """
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "compresslens":
            for a in node.names:
                names[a.asname or a.name] = getattr(importlib.import_module(node.module), a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "compresslens" and a.asname:
                    aliases[a.asname] = importlib.import_module(a.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            calls.append((node, names[func.id]))
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases
        ):
            calls.append((node, getattr(aliases[func.value.id], func.attr)))
    return calls


def test_bench_calls_bind():
    """Every call in `bench/` binds to the current signature of what it calls.

    Binding checks the count of positional arguments and the keyword names.
    A parameter removed before a positional argument shifts that argument
    onto the next parameter, and the call still binds when that parameter
    has a default. So a bare name that lands on a parameter with a default
    must also be a prefix of the parameter's name, or the other way round
    (`sched` lands on `schedule`, not on `topk`).
    """
    called = set()
    for path in BENCH_FILES:
        for call, obj in package_calls(_parse(path)):
            where = f"{path.name}:{call.lineno}: {obj.__name__}"
            signature = inspect.signature(obj)
            args = [None] * len(call.args)
            kwargs = {k.arg: None for k in call.keywords}
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError as exc:
                pytest.fail(f"{where}: {exc}")
            for arg, name in zip(call.args, bound.arguments):
                if (
                    isinstance(arg, ast.Name)
                    and signature.parameters[name].default is not inspect.Parameter.empty
                ):
                    assert name.startswith(arg.id) or arg.id.startswith(name), (
                        f"{where}: argument {arg.id!r} lands on parameter {name!r}"
                    )
            called.add(obj.__name__)
    assert {
        "train_population", "LabeledDataset", "ExampleRecord", "PredictionLog",
        "PruneSchedule", "save_model", "corrupt",
    } <= called


CONFIGURATION_SURFACE = {
    "options": {  # each subcommand's option strings, --help left out
        "generate": ["--out", "--classes", "--dim", "--train-count", "--test-count", "--zipf",
                     "--noisy", "--atypical", "--seed"],
        "train": ["--data", "--out", "--models", "--steps", "--batch-size", "--lr",
                  "--weight-decay", "--hidden", "--sparsity", "--quant", "--prune-start",
                  "--prune-end", "--prune-every", "--topk", "--seed", "--save-models"],
        "audit-classes": ["--base", "--comp", "--out", "--alpha", "--bonferroni"],
        "audit-pie": ["--base", "--comp", "--out", "--data", "--topk"],
        "audit-robustness": ["--data", "--base-models", "--comp-models", "--out", "--kinds",
                             "--topk", "--seed"],
        "report": ["--audit", "--pie", "--out", "--chart"],
        "run": ["--config", "--out", "--seed", "--alpha", "--sparsity", "--quant", "--topk"],
    },
    "fields": {
        "TrainConfig": ["steps", "batch_size", "learning_rate", "lr_decay_steps",
                        "weight_decay", "seed", "population_size", "hidden_dims",
                        "prune_biases"],
        "PruneSchedule": ["target_sparsity", "prune_start", "prune_end", "prune_every"],
        "CompressionSpec": ["method", "sparsity"],
        "AuditConfig": ["alpha", "bonferroni"],
        "SynthLongTailSpec": ["num_classes", "dim", "train_count", "test_count",
                              "zipf_exponent", "noisy_fraction", "atypical_fraction", "seed"],
        "ExperimentConfig": ["train", "sweep", "audit", "seed", "out_dir", "dataset_path",
                             "synth", "prune_start", "prune_end", "prune_every", "topk"],
    },
    "top_keys": ["seed", "out_dir", "topk"],
    "prune_keys": {"start": "prune_start", "end": "prune_end", "every": "prune_every"},
    "all": [
        "AuditConfig", "ClassAccuracySample", "ClassAuditRow", "CompressionSpec",
        "CorruptionSpec", "ExampleRecord", "ExperimentConfig", "LabeledDataset", "MLPModel",
        "PIESet", "PredictionLog", "PruneSchedule", "QuantizationScheme", "RobustnessRow",
        "SynthLongTailSpec", "TrainConfig", "WelchResult", "apply_magnitude_mask",
        "attribute_relative_representation", "audit_classes", "class_recall_matrix", "corrupt",
        "generate", "identify_pies", "load_experiment_config", "mean_shift", "modal_labels",
        "model_accuracy", "normalized_recall_difference", "prune_window", "quantize_model",
        "read_dataset", "read_prediction_log", "regularized_incomplete_beta",
        "relative_accuracy", "robustness_report", "run_pipeline", "sparsity_at_step",
        "subset_accuracy", "synthesize", "train_population", "welch_t_test", "write_dataset",
        "write_prediction_log",
    ],
}


def test_configuration_surface():
    """53 flags, 36 config fields, the top-level and prune JSON keys and 44 exported names."""
    (commands,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {
        "options": {
            name: [s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                   for s in a.option_strings]
            for name, parser in commands.choices.items()
        },
        "fields": {
            cls.__name__: [f.name for f in dataclasses.fields(cls)]
            for cls in (compresslens.TrainConfig, compresslens.PruneSchedule,
                        compresslens.CompressionSpec, compresslens.AuditConfig,
                        compresslens.SynthLongTailSpec, compresslens.ExperimentConfig)
        },
        "top_keys": list(pipeline._TOP_KEYS),
        "prune_keys": pipeline._PRUNE_KEYS,
        "all": list(compresslens.__all__),
    }
    assert surface == CONFIGURATION_SURFACE


def test_no_unused_imports():
    """Every name a package module imports is read in that module.

    No linter runs on the package, so an import whose last use a change
    deletes would stay behind unnoticed.
    """
    unused = {}
    for path in sorted(Path(compresslens.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # it imports to re-export
            continue
        tree = _parse(path)
        imported = {
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
        }
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}
