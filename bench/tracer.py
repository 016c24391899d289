"""Spans around the public functions of each compresslens module, and the per-layer metrics.

`Tracer.install` replaces, at run time, every public function defined in a
layer module with a wrapper that records a span (name, start, end, parent,
attributes), and patches every module that imported the function by name,
so calls made through `cli`, `pipeline` or the package root are seen too.
`MLPModel.logits` is wrapped as a method. Nothing in the package changes on
disk. Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("synth", "trainer", "data_model", "pipeline", "stats_audit", "pie_audit", "robustness", "cli")
CORRUPTION_KINDS = ("gaussian_noise", "shot_noise", "impulse_noise", "brightness", "contrast", "pixelate")


def cpu_s() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _log_rows(log) -> int:
    return log.num_models * log.num_examples * log.topk


# span name -> attributes taken from (args, kwargs, result); counts are
# recorded at the same boundary as the span that does the work
_ATTRS = {
    "trainer.train_population": lambda a, k, r: {
        "model_steps": _arg(a, k, 2, "config").population_size * _arg(a, k, 2, "config").steps
    },
    "data_model.write_prediction_log": lambda a, k, r: {"rows": _log_rows(_arg(a, k, 0, "log"))},
    "data_model.read_prediction_log": lambda a, k, r: {"rows": _log_rows(r)},
    "data_model.write_dataset": lambda a, k, r: {"rows": len(_arg(a, k, 0, "dataset"))},
    "data_model.read_dataset": lambda a, k, r: {"rows": len(r)},
    "robustness.corrupt_features": lambda a, k, r: {"kind": _arg(a, k, 1, "spec").kind},
}
_CPU_SPANS = {"trainer.train_population"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        with self._lock:
            sid = len(self.spans)
            stack = self._stack()
            rec = [sid, stack[-1] if stack else None, name, time.perf_counter(), None, None]
            self.spans.append(rec)
        stack.append(sid)
        try:
            yield rec
        finally:
            stack.pop()
            rec[4] = time.perf_counter()

    def wrap(self, fn, name: str):
        attrs = _ATTRS.get(name)
        cpu = name in _CPU_SPANS

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                cpu0 = cpu_s() if cpu else 0.0
                result = fn(*args, **kwargs)
                extra = attrs(args, kwargs, result) if attrs else {}
                if cpu:
                    extra["cpu_s"] = cpu_s() - cpu0
                rec[5] = extra or None
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package: str = "compresslens") -> None:
        """Wrap every public function of each layer module and repoint its importers."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self.wrap(obj, f"{short}.{attr}")
        for mod in modules + [importlib.import_module(package)]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        trainer = importlib.import_module(f"{package}.trainer")
        trainer.MLPModel.logits = self.wrap(trainer.MLPModel.logits, "trainer.MLPModel.logits")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write('{"fields": ["id", "parent", "name", "start", "end", "attrs"], "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 where a layer did no work."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    sums = defaultdict(float)
    for sid, parent, name, start, end, attrs in spans:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if parent is not None:
            child[parent] += dur
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)):
                sums[f"{name}:{key}"] += value
    self_time = defaultdict(float)
    for sid, parent, name, start, end, attrs in spans:
        self_time[name] += end - start - child[sid]

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def rate(name):
        rows = sums[f"{name}:rows"]
        return rows / total[name] if total[name] else 0.0

    model_steps = sums["trainer.train_population:model_steps"]
    train_s = total["trainer.train_population"]
    step_s = train_s - total["trainer.evaluate_population"]
    out = {
        "synth.synthesize_ms": 1e3 * total["synth.synthesize"],
        "trainer.train_population_s": train_s,
        "trainer.step_us": 1e6 * step_s / model_steps if model_steps else 0.0,
        "trainer.loss_and_gradients_us": per_call_us("trainer.loss_and_gradients"),
        "trainer.apply_magnitude_mask_ms": 1e3 * total["trainer.apply_magnitude_mask"],
        "trainer.evaluate_population_ms": 1e3 * total["trainer.evaluate_population"],
        "trainer.train_cpu_per_wall": (
            sums["trainer.train_population:cpu_s"] / train_s if train_s else 0.0
        ),
        "trainer.model_steps": model_steps,
        "trainer.logits_ms": 1e3 * total["trainer.MLPModel.logits"],
        "trainer.load_model_ms": 1e3 * total["trainer.load_model"],
        "data_model.write_prediction_log_rows_per_s": rate("data_model.write_prediction_log"),
        "data_model.read_prediction_log_rows_per_s": rate("data_model.read_prediction_log"),
        "data_model.write_dataset_rows_per_s": rate("data_model.write_dataset"),
        "data_model.read_dataset_rows_per_s": rate("data_model.read_dataset"),
        "data_model.log_rows_written": sums["data_model.write_prediction_log:rows"],
        "data_model.log_rows_read": sums["data_model.read_prediction_log:rows"],
        "stats_audit.audit_classes_ms": 1e3 * total["stats_audit.audit_classes"],
        "stats_audit.welch_t_test_us": per_call_us("stats_audit.welch_t_test"),
        "pie_audit.identify_pies_ms": 1e3 * total["pie_audit.identify_pies"],
        "pie_audit.subset_accuracy_ms": 1e3 * total["pie_audit.subset_accuracy"],
        "pie_audit.write_pie_report_ms": 1e3 * total["pie_audit.write_pie_report"],
        "pie_audit.write_attribute_report_ms": 1e3 * total["pie_audit.write_attribute_report"],
        "robustness.corrupt_features_us": per_call_us("robustness.corrupt_features"),
        "robustness.corrupt_features_calls": calls["robustness.corrupt_features"],
        "robustness.report_self_s": self_time["robustness.robustness_report"],
        "pipeline.run_pipeline_self_s": self_time["pipeline.run_pipeline"],
    }
    out.update(_per_kind_s(spans))
    for cmd in ("run", "audit_classes", "audit_pie", "report", "audit_robustness"):
        out[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
    return out


def _per_kind_s(spans: list[list]) -> dict[str, float]:
    """Seconds per corruption kind inside robustness_report.

    A kind's segment runs from its first corrupt_features call to the first
    call of the next kind, or to the end of the report for the last kind, so
    it holds the kind's corruptions and the forward passes that score them.
    """
    out = {f"robustness.{kind}_s": 0.0 for kind in CORRUPTION_KINDS}
    reports = [s for s in spans if s[2] == "robustness.robustness_report"]
    for report in reports:
        firsts = []
        for sid, parent, name, start, end, attrs in spans:
            if (
                name == "robustness.corrupt_features"
                and report[3] <= start <= report[4]
                and (not firsts or firsts[-1][0] != attrs["kind"])
            ):
                firsts.append((attrs["kind"], start))
        bounds = [start for _, start in firsts[1:]] + [report[4]]
        for (kind, start), end in zip(firsts, bounds):
            out[f"robustness.{kind}_s"] += end - start
    return out
