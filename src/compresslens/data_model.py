"""Core domain types, file formats, and the accuracy primitives every audit consumes.

A `PredictionLog` holds the ranked predictions of every model in a population
on every example of a split; all audits are derived from logs. Types are
immutable after construction, with read-only arrays. The functions here are
pure, apart from the file writers and the two readers: `read_prediction_log`
and `read_dataset` keep what they parse, keyed by the bytes parsed, and a
later read of the same bytes returns the same object (see `_reuse`). That
table is locked, so everything here is safe to share across threads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import os
import re
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ExampleSetMismatch,
    MissingClassSupport,
    ParseError,
    RankDepthExceeded,
    SchemaError,
)

# every compression method -> its short name, used in file stems and report
# labels (a pruned level's carries its sparsity: prune_0.9)
_METHOD_LABELS = {
    "none": "baseline",
    "magnitude_prune": "prune",
    "quant_float16": "float16",
    "quant_dynamic_int8": "dynamic_int8",
    "quant_fixed_int8": "fixed_int8",
}

# quantization kind (a quant_ method's short name, as `--quant` takes it) -> method
QUANT_KINDS = {label: m for m, label in _METHOD_LABELS.items() if m.startswith("quant_")}


# the field annotations `check_field_types` checks, and the types they admit
_FIELD_TYPES = {
    "int": (numbers.Integral,),
    "int | None": (numbers.Integral, type(None)),
    "float": (numbers.Real,),
    "bool": (bool,),
}


def check_field_types(obj) -> None:
    """ConfigError for a dataclass field whose value its annotation does not admit.

    Only the annotations of `_FIELD_TYPES` are checked; a bool is admitted
    only where the annotation says bool, and a float must be finite.
    """
    for f in fields(obj):
        kinds, value = _FIELD_TYPES.get(f.type), getattr(obj, f.name)
        if kinds and (not isinstance(value, kinds) or isinstance(value, bool) != (bool in kinds)):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def int64_array(values, what: str, non_negative: bool = False) -> np.ndarray:
    """`values` as an int64 array, or a ConfigError naming the first value that is not an int64.

    A float (even a whole one), a bool or a str is refused, never cast. An
    integer array is checked as a whole; anything else value by value, as
    numpy would read `[0, True]` as `[0, 1]`. With `non_negative`, a value
    below 0 is refused too. An int64 array comes back as it is, not copied.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "u":
        bad = values[values > 2**63 - 1].tolist()
    elif isinstance(values, np.ndarray) and values.dtype.kind == "i":
        # every signed value is in the int64 range; only 0 can bound it from below
        bad = values[values < 0].tolist() if non_negative else []
    else:
        low = 0 if non_negative else -(2**63)
        values = np.array(values, dtype=object)  # each value as it was given
        bad = [v for v in values.flat if isinstance(v, bool)
               or not isinstance(v, numbers.Integral) or not low <= v <= 2**63 - 1]
    if bad:
        kind = "non-negative integers" if non_negative else "integers"
        raise ConfigError(f"{what} must be {kind} in the int64 range, got {bad[0]!r}")
    return values.astype(np.int64, copy=False)


def int_at_least(value, what: str, low: int = 1) -> int:
    """`value` as an int, or a ConfigError unless it is an integer >= `low`; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_labels(labels: np.ndarray, num_classes: int, what: str = "label", ids=None) -> None:
    """ConfigError, naming the first label of an int64 array outside [0, `num_classes`).

    `ids`, broadcast to the labels' shape, names each label's example. One
    comparison covers both ends: a negative label, viewed unsigned, lies at
    or above 2**63, beyond every int64 label.
    """
    outside = labels.view(np.uint64) >= min(num_classes, 2**63)
    if np.count_nonzero(outside):
        where = "" if ids is None else f"example {np.broadcast_to(ids, labels.shape)[outside][0]}: "
        raise ConfigError(f"{where}{what} {labels[outside][0]} outside [0, {num_classes})")


def checked_layout(layout, dim: int) -> tuple[int, int] | None:
    """`layout` as a (height, width) pair of integers >= 1 with product `dim`; None stays None."""
    if layout is None:
        return None
    try:
        h, w = layout
    except (TypeError, ValueError):
        raise ConfigError(f"layout must be a (height, width) pair, got {layout!r}") from None
    h, w = int_at_least(h, "layout height"), int_at_least(w, "layout width")
    if h * w != dim:
        raise ConfigError(f"layout {h}x{w} does not match {dim} features")
    return h, w


def _check_text_cell(what: str, text) -> None:
    """ConfigError unless `text` is a str a CSV cell holds: no comma, line break or lone surrogate."""
    if not isinstance(text, str) or re.search("[,\r\n\ud800-\udfff]", text):
        raise ConfigError(f"{what} must be UTF-8 text without a comma or line break, got {text!r}")


@dataclass(frozen=True)
class CompressionSpec:
    """Which compression was applied to a model population.

    `sparsity` is the target fraction of weights set to zero; it is required
    (and must be positive) for magnitude pruning and must be 0 for every
    other method.
    """

    method: str
    sparsity: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if self.method not in _METHOD_LABELS:
            raise ConfigError(f"unknown compression method {self.method!r}")
        if self.method == "magnitude_prune":
            if not (0.0 < self.sparsity < 1.0):
                raise ConfigError(
                    "magnitude_prune requires sparsity in (0, 1), "
                    f"got {self.sparsity}"
                )
        elif self.sparsity != 0.0:
            raise ConfigError(f"method {self.method!r} carries no sparsity")

    @property
    def label(self) -> str:
        label = _METHOD_LABELS[self.method]
        return f"{label}_{self.sparsity:g}" if self.sparsity else label

    def is_quantization(self) -> bool:
        return self.method in QUANT_KINDS.values()


@dataclass(frozen=True, eq=False)
class ExampleRecord:
    """One example: an id, a feature vector, a label, optional boolean attributes.

    `layout` is an optional (height, width) pair for image-like feature
    vectors: two integers >= 1 whose product is the feature length.
    """

    example_id: int
    features: np.ndarray
    true_label: int
    attributes: frozenset[str] = frozenset()
    layout: tuple[int, int] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.flags.writeable:
            # freeze a view, not a copy: the caller's own array stays writeable.
            # A read-only array (a dataset row) is kept as it is, so building
            # records from a dataset makes no extra array objects
            feats = feats.view()
            feats.flags.writeable = False
        object.__setattr__(self, "features", feats)
        int64_array([self.example_id], "example ids", non_negative=True)
        if feats.ndim != 1:
            raise ConfigError("features must be a 1D vector")
        object.__setattr__(self, "layout", checked_layout(self.layout, feats.size))


@dataclass(frozen=True, eq=False, init=False)
class LabeledDataset:
    """N examples with a fixed class count, stored as aligned read-only columns.

    `example_ids` and `labels` are (N,) int64, `feature_matrix` is (N, d)
    float64 and `attributes` is an (N, A) bool matrix, one column per name in
    `attribute_names`. `layout` is the (height, width) every image-like
    feature vector shares, or None. `LabeledDataset(examples, num_classes)`
    builds the columns from `ExampleRecord`s, `from_arrays` from arrays.
    """

    example_ids: np.ndarray
    labels: np.ndarray
    feature_matrix: np.ndarray
    num_classes: int
    attribute_names: tuple[str, ...]
    attributes: np.ndarray
    layout: tuple[int, int] | None

    def __init__(self, examples: Iterable[ExampleRecord], num_classes: int):
        examples = tuple(examples)
        dims = sorted({ex.features.size for ex in examples})
        layouts = {ex.layout for ex in examples}
        if len(dims) > 1:
            raise ConfigError(f"inconsistent feature lengths: {dims}")
        if len(layouts) > 1:
            raise ConfigError(f"examples disagree on the layout: {layouts}")
        names = sorted(set().union(*(ex.attributes for ex in examples)))
        shape = (len(examples), dims[0] if dims else 0)
        columns = LabeledDataset.from_arrays(
            [ex.example_id for ex in examples],
            [ex.true_label for ex in examples],
            np.reshape([ex.features for ex in examples], shape),
            num_classes,
            names,
            [[name in ex.attributes for name in names] for ex in examples],
            layouts.pop() if layouts else None,
        )
        self.__dict__.update(vars(columns))

    @classmethod
    def from_arrays(
        cls, example_ids, labels, feature_matrix, num_classes: int,
        attribute_names=(), attributes=(), layout=None,
    ) -> "LabeledDataset":
        """Dataset from (N,) ids and labels, an (N, d) and an (N, A) bool matrix.

        The arrays are copied. As for records, attribute columns that no
        example carries are dropped and the rest ordered by name.
        """
        ids = np.array(int64_array(example_ids, "example ids", non_negative=True))
        labels = np.array(int64_array(labels, "labels"))
        feats = np.array(feature_matrix, dtype=np.float64)
        names = tuple(attribute_names)
        attrs = np.array(attributes, dtype=bool)
        if attrs.size == 0:  # no rows or no attributes: nothing is carried
            attrs = np.zeros((ids.size, len(names)), dtype=bool)
        num_classes = int_at_least(num_classes, "num_classes")
        n = ids.shape[:1]
        if (ids.ndim, labels.shape, feats.ndim, feats.shape[:1], attrs.shape) != (
            1, n, 2, n, n + (len(names),)
        ):
            raise ConfigError(
                "want (N,) ids and labels, (N, d) features and (N, A) attributes, got "
                f"{ids.shape}, {labels.shape}, {feats.shape}, {attrs.shape}"
            )
        if np.unique(ids).size != ids.size:
            raise ConfigError("duplicate example_ids in dataset")
        check_labels(labels, num_classes, ids=ids)
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate attribute names {list(names)}")
        for name in names:
            _check_text_cell("an attribute name", name)
        layout = checked_layout(layout, feats.shape[1])
        carried = sorted((name, j) for j, name in enumerate(names) if attrs[:, j].any())
        attrs = attrs[:, [j for _, j in carried]]
        for arr in (ids, labels, feats, attrs):
            arr.flags.writeable = False
        ds = object.__new__(cls)
        ds.__dict__.update(  # frozen: the fields are set once, here
            example_ids=ids,
            labels=labels,
            feature_matrix=feats,
            num_classes=num_classes,
            attribute_names=tuple(name for name, _ in carried),
            attributes=attrs,
            layout=layout,
        )
        return ds

    def __len__(self) -> int:
        return self.example_ids.size

    @property
    def dim(self) -> int:
        return self.feature_matrix.shape[1]

    @cached_property
    def examples(self) -> tuple[ExampleRecord, ...]:
        """The rows as `ExampleRecord`s; their features are views of the matrix."""
        names = self.attribute_names
        return tuple(
            ExampleRecord(eid, feats, label, frozenset(compress(names, flags)), self.layout)
            for eid, label, feats, flags in zip(
                self.example_ids.tolist(), self.labels.tolist(),
                self.feature_matrix, self.attributes.tolist(),
            )
        )

    def attribute_mask(self, name: str) -> np.ndarray:
        """(N,) bool column of one attribute; all False for one no example carries."""
        if name not in self.attribute_names:
            return np.zeros(len(self), dtype=bool)
        return self.attributes[:, self.attribute_names.index(name)]


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for the statistical audits."""

    alpha: float = 0.05
    bonferroni: bool = False

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True, eq=False)
class PredictionLog:
    """Ranked predictions of every model in one population on one split.

    `predictions[k, i]` is the ordered top-k label list of model k on the
    example at `example_ids[i]`; ids are kept sorted so logs built from the
    same split align positionally.
    """

    population_id: str
    compression: CompressionSpec
    example_ids: np.ndarray  # (N,) int64, strictly increasing
    truth: np.ndarray  # (N,) int64
    predictions: np.ndarray  # (K, N, topk) int64
    explicit_num_classes: int | None = None

    def __post_init__(self):
        _check_text_cell("population_id", self.population_id)
        if self.explicit_num_classes is not None:
            count = int_at_least(self.explicit_num_classes, "explicit_num_classes")
            object.__setattr__(self, "explicit_num_classes", count)
        # views, so that freezing them leaves the caller's arrays writeable
        ids = int64_array(self.example_ids, "example ids", non_negative=True).view()
        truth = int64_array(self.truth, "true labels").view()
        preds = int64_array(self.predictions, "predicted labels").view()
        if preds.ndim != 3:
            raise ConfigError("predictions must have shape (K, N, topk)")
        if ids.shape != (preds.shape[1],) or truth.shape != ids.shape:
            raise ConfigError("example_ids/truth must align with predictions")
        if ids.size:
            if np.any(np.diff(ids) <= 0):
                order = np.argsort(ids, kind="stable")
                ids = ids[order]
                truth = truth[order]
                preds = preds[:, order, :]
            if np.any(np.diff(ids) == 0):
                raise ConfigError("duplicate example_ids in log")
        if preds.shape[0] < 1 or preds.shape[2] < 1:
            raise ConfigError("log needs K >= 1 models and topk >= 1")
        # ranked labels must be distinct per (model, example)
        if preds.shape[2] > 1:
            sorted_ranks = np.sort(preds, axis=2)
            if np.any(np.diff(sorted_ranks, axis=2) == 0):
                raise ConfigError("ranked labels must be distinct per (model, example)")
        for arr in (ids, truth, preds):
            arr.flags.writeable = False
        object.__setattr__(self, "example_ids", ids)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "predictions", preds)
        check_labels(truth, self.num_classes, "true label", ids)
        check_labels(preds, self.num_classes, "predicted label", ids[:, np.newaxis])

    @property
    def num_models(self) -> int:
        return self.predictions.shape[0]

    @property
    def num_examples(self) -> int:
        return self.predictions.shape[1]

    @property
    def topk(self) -> int:
        return self.predictions.shape[2]

    @cached_property
    def num_classes(self) -> int:
        if self.explicit_num_classes is not None:
            return self.explicit_num_classes
        hi = int(self.predictions.max()) if self.predictions.size else -1
        if self.truth.size:
            hi = max(hi, int(self.truth.max()))
        return hi + 1

    def check_depth(self, k: int) -> None:
        """RankDepthExceeded unless `k` is a rank depth of the log, 1 to `topk`."""
        if not 1 <= k <= self.topk:
            raise RankDepthExceeded(f"rank depth {k} outside [1, {self.topk}]")

    def hits(self, k: int) -> np.ndarray:
        """(K, N) bool, [m, i]: model m ranks example i's true label within `k` (1 to `topk`)."""
        self.check_depth(k)
        return (self.predictions[:, :, :k] == self.truth[np.newaxis, :, np.newaxis]).any(axis=2)


def check_same_split(log: PredictionLog, example_ids, labels, what: str) -> None:
    """ExampleSetMismatch unless the (N,) arrays are `log`'s ids and true labels, in any order."""
    order = np.argsort(example_ids, kind="stable")
    if not np.array_equal(example_ids[order], log.example_ids):
        raise ExampleSetMismatch(f"{what} cover different example sets")
    if not np.array_equal(labels[order], log.truth):
        raise ExampleSetMismatch(f"{what} disagree on true labels")


def check_class_support(labels: np.ndarray, num_classes: int, split: str) -> None:
    """MissingClassSupport, naming the split, unless each class in {0..C-1} labels an example."""
    if num_classes > labels.size:  # checked before anything C-sized is allocated
        raise MissingClassSupport(
            f"{split} split has {labels.size} examples, too few for {num_classes} classes"
        )
    empty = np.flatnonzero(np.bincount(labels, minlength=num_classes) == 0)
    if empty.size:
        raise MissingClassSupport(f"classes with zero {split} support: {empty.tolist()}")


def class_recall_matrix(log: PredictionLog) -> dict[int, np.ndarray]:
    """Per-class rank-1 recall samples across the population.

    Returns, for each class c in {0..C-1}, the length-K vector whose k-th
    entry is the fraction of class-c examples that model k predicts as c at
    rank 1.

    Raises:
        MissingClassSupport: some class has no examples in the truth map
            (`check_class_support`).
    """
    C = log.num_classes
    check_class_support(log.truth, C, "test")
    correct = log.hits(1)
    out: dict[int, np.ndarray] = {}
    for c in range(C):
        members = log.truth == c
        recalls = correct[:, members].mean(axis=1)
        recalls.flags.writeable = False
        out[c] = recalls
    return out


def model_accuracy(log: PredictionLog, k: int = 1) -> np.ndarray:
    """Per-model top-k accuracy: the true label appears within the first k ranks.

    Raises:
        RankDepthExceeded: k outside [1, log.topk].
    """
    return log.hits(k).mean(axis=1)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

LOG_HEADER = [
    "population_id",
    "compression_method",
    "sparsity",
    "model_id",
    "example_id",
    "rank",
    "predicted_label",
    "true_label",
]


def existing_dir(path: str | Path) -> Path:
    """The nearest of `path` and its ancestors that exists; a DataError unless it is a directory.

    Called on each directory an output goes in before anything is read or
    trained, so that a file in the way of an output fails at once.
    """
    path = Path(path)
    near = next(p for p in (path, *path.parents) if p.exists())
    if not near.is_dir():
        raise DataError(f"{near} is not a directory")
    return near


def check_output_file(path: str | Path) -> None:
    """DataError unless a file can be written at `path`: no directory is there, and
    the nearest existing ancestor is one (`existing_dir`)."""
    path = Path(path)
    if path.is_dir():
        raise DataError(f"{path} is a directory")
    existing_dir(path.parent)


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write UTF-8 through a temporary file renamed into place (single writer per path).

    `text` is one str or an iterable of str chunks, written one at a time, so
    only the chunk being written need be in memory. If the iterable raises,
    the temporary file is removed and an existing file at `path` is kept.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# cells per block a CSV writer hands `write_table`: the Python objects of one
# block only (~16k cells, a few hundred KB of text) are alive at a time
TABLE_BLOCK_CELLS = 2**14


def write_table(path: str | Path, header: list[str], row_format: str, blocks: Iterable) -> None:
    """Write a CSV: the header line, then every block of rows, each formatted by one `%` call.

    `row_format` is the printf format of one row, without its line end. A
    block is a flat sequence of cells, a whole number of rows of them. Blocks
    are formatted and written one at a time, so a write holds one block's
    text. Every CSV the toolkit writes goes through here, in the row grammar
    its readers take.
    """
    width = row_format.replace("%%", "").count("%")  # cells per row
    rows = (((row_format + "\n") * (len(cells) // width)) % tuple(cells) for cells in blocks)
    atomic_write_text(path, chain([",".join(header) + "\n"], rows))


def write_json(path: str | Path, doc) -> None:
    """Write a JSON document with sorted keys, indented by two spaces."""
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_prediction_log(log: PredictionLog, path: str | Path) -> None:
    """Serialize a log as long-format CSV, rows ordered by (model, example, rank).

    The population's three cells are part of the row format. A block holds
    the (model, example, rank, prediction, truth) cells of one model's rows
    on up to `TABLE_BLOCK_CELLS` cells' worth of examples.
    """
    spec = log.compression
    prefix = f"{log.population_id},{spec.method},{spec.sparsity!r}".replace("%", "%%")
    ids, ranks = np.broadcast_arrays(log.example_ids[:, np.newaxis], np.arange(1, log.topk + 1))
    truth = np.broadcast_to(log.truth[:, np.newaxis], ids.shape)
    step = max(1, TABLE_BLOCK_CELLS // (5 * log.topk))  # examples per block
    rows = [slice(i, i + step) for i in range(0, log.num_examples, step)]
    blocks = (
        np.stack([np.full_like(ids[s], k), ids[s], ranks[s], preds[s], truth[s]], axis=-1)
        .ravel().tolist()
        for k, preds in enumerate(log.predictions) for s in rows
    )
    write_table(path, LOG_HEADER, prefix + ",%d,%d,%d,%d,%d", blocks)


# The data rows of every CSV the toolkit reads are parsed by one `np.loadtxt`
# call over the file's bytes. When it, or a column-wise check, rejects a file,
# `_check_rows` reads the rows again one by one, only to name the first faulty
# line; the rules below make it accept exactly the cells the call accepts.
# An integer cell: what int() and np.loadtxt both accept, as ASCII text
_INT_CELL = re.compile(r"[\t\x0b\x0c ]*[+-]?[0-9]+[\t\x0b\x0c ]*")
# np.loadtxt reads these bytes more leniently than int()/float() do: it pads
# numbers with \x1c-\x1f, and a NUL at the end of a string cell is dropped
_ROW_BY_ROW_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_NONBLANK = re.compile(rb"[^\r\n]")
_LOG_ROW = np.dtype([(name, np.int64) for name in LOG_HEADER[3:]])
_LOG_COLUMNS = list(zip(LOG_HEADER, ["text", "text", "float"] + ["int"] * 5))
# the type np.loadtxt parses each column kind as; a flag (a 0 or 1 cell) is
# read as text of up to 2 characters, so that "01" is not "0"
_CELL_TYPES = {"int": np.int64, "float": np.float64, "flag": "U2"}


def _read_csv(path: Path) -> tuple[bytes, list[str], int]:
    """A CSV file's bytes, its header row and the offset of the line after it.

    SchemaError for an empty file; ParseError, with the line, for bytes that
    are not UTF-8.
    """
    data = path.read_bytes()
    if not data:
        raise SchemaError(f"{path}: empty file")
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"not UTF-8 text ({exc.reason})", line) from None
    start = data.find(b"\n") + 1 or len(data)
    try:
        header = next(csv.reader([data[:start].decode()]), [])
    except csv.Error as exc:
        raise SchemaError(f"{path}: unreadable header ({exc})") from None
    return data, header, start


def _parse_rows(data: bytes, start: int, row: np.dtype, usecols=None) -> np.ndarray | None:
    """The rows after `start` as a structured array, or None if np.loadtxt rejects one.

    Blank lines are skipped; fields are unquoted and split at every comma.
    """
    if _NONBLANK.search(data, start) is None:
        return np.empty(0, row)
    if data.endswith(b"\r"):  # np.loadtxt takes it for a line end; the row grammar does not
        return None
    stream = io.BytesIO(data)  # shares `data`, no copy
    stream.seek(start)
    try:
        return np.loadtxt(
            stream, dtype=row, delimiter=",", comments=None, usecols=usecols, ndmin=1
        )
    except ValueError:
        return None


def _check_rows(data: bytes, start: int, columns):
    """Yield (line number, fields) of each non-blank line after the header.

    `columns` holds each field's (name, kind), a kind being "int", "float",
    "flag" or "text". The field count, then the int, float and flag cells are
    checked; the first line that breaks the row grammar is a ParseError.
    """
    ints, floats, flags = (
        [j for j, (_, k) in enumerate(columns) if k == kind] for kind in ("int", "float", "flag")
    )
    for lineno, line in enumerate(re.split("\r?\n", data[start:].decode()), start=2):
        if "\r" in line:
            raise ParseError("carriage return inside a line", lineno)
        if not line:
            continue
        row = line.split(",")
        if len(row) != len(columns):
            raise ParseError(f"expected {len(columns)} fields, got {len(row)}", lineno)
        try:
            for j in ints:
                _int_cell(row[j])
            for j in floats:
                _float_cell(row[j])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        for j in flags:
            if row[j] not in ("0", "1"):
                raise ParseError(f"{columns[j][0]} cells must be 0 or 1, got {row[j]!r}", lineno)
        yield lineno, row


def _int_cell(cell: str) -> int:
    """int(cell) for a cell np.loadtxt reads as an int64; ValueError for any other."""
    value = int(cell)
    if not _INT_CELL.fullmatch(cell):
        raise ValueError(f"not an unquoted ASCII decimal integer: {cell!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer out of the 64-bit range: {cell!r}")
    return value


def _float_cell(cell: str) -> float:
    """float(cell) for a cell np.loadtxt reads as a float64; ValueError for any other."""
    value = float(cell)
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"not an unquoted ASCII decimal number: {cell!r}")
    return value


def _read_table(data: bytes, start: int, columns) -> dict[str, np.ndarray]:
    """The rows after `start` as one array per entry of `columns`, parsed by np.loadtxt.

    An entry is a (name, kind) pair, or (name, kind, width) for `width`
    columns read as one (N, width) array. Flag columns come back as bool.
    """
    row = np.dtype([(name, _CELL_TYPES[kind], *width) for name, kind, *width in columns])
    table = _parse_rows(data, start, row)
    flags = [name for name, kind, *_ in columns if kind == "flag"]
    if (
        table is None
        or any(byte in data for byte in _ROW_BY_ROW_BYTES)
        or not all(np.isin(table[name], ("0", "1")).all() for name in flags)
    ):
        cells = [(n, k) for n, k, *width in columns for _ in range(width[0] if width else 1)]
        for _ in _check_rows(data, start, cells):
            pass
        if table is None:
            raise ParseError("malformed rows", None)  # the row pass names each fault
    return {name: table[name] == "1" if name in flags else table[name] for name, *_ in columns}


def read_table(path: str | Path, columns, what: str) -> dict[str, np.ndarray]:
    """`_read_table` of a CSV whose header is the names of `columns`, else a SchemaError."""
    data, header, start = _read_csv(Path(path))
    if header != [name for name, *_ in columns]:
        raise SchemaError(f"{path}: unexpected {what} header {header}")
    return _read_table(data, start, columns)


# What the readers parsed, keyed by the reader, the SHA-256 of the bytes parsed
# and, for a dataset, the sidecar's class count and layout: a read of bytes
# already parsed returns the object their parse made. Such an object is
# immutable, so every caller may share it. The arrays kept total at most
# `_PARSED_CAP_BYTES`, least recently used out first; a result larger than
# that is returned but not kept, and a read that raises keeps nothing. Keys
# are contents, never paths or mtimes: a file rewritten in place is parsed
# again, and two copies of one file share an entry.
_PARSED_CAP_BYTES = 32 * 2**20
_parsed: OrderedDict = OrderedDict()  # key -> (result, bytes of its arrays)
_parsed_lock = threading.Lock()


def _reuse(key: tuple, parse):
    """What `parse()` returned for `key` before, if it is still kept; else `parse()`, kept."""
    with _parsed_lock:
        if key in _parsed:
            _parsed.move_to_end(key)
            return _parsed[key][0]
    result = parse()  # outside the lock: reads of other files go on meanwhile
    size = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    if size <= _PARSED_CAP_BYTES:
        with _parsed_lock:
            _parsed[key] = (result, size)
            _parsed.move_to_end(key)
            total = sum(kept for _, kept in _parsed.values())
            while total > _PARSED_CAP_BYTES:
                total -= _parsed.popitem(last=False)[1][1]
    return result


def read_prediction_log(path: str | Path) -> PredictionLog:
    """Parse a long-format CSV log; the inverse of `write_prediction_log`.

    Rows may appear in any order. Raises SchemaError for a bad header and
    ParseError (with a 1-based line number) for a bad row. The five integer
    columns are parsed by one np.loadtxt call and checked column-wise. Bytes
    read before come back as the log they gave then (`_reuse`).
    """
    path = Path(path)
    data, header, start = _read_csv(path)
    if header != LOG_HEADER:
        missing = [c for c in LOG_HEADER if c not in header]
        extra = [c for c in header if c not in LOG_HEADER]
        detail = []
        if missing:
            detail.append(f"missing columns {missing}")
        if extra:
            detail.append(f"unexpected columns {extra}")
        raise SchemaError(f"{path}: {'; '.join(detail) or 'columns out of order'}")
    return _reuse(("log", hashlib.sha256(data).digest()), lambda: _parse_log(data, start))


def _parse_log(data: bytes, start: int) -> PredictionLog:
    """The log whose rows follow the header that ends at `start`."""
    first_row = _NONBLANK.search(data, start)
    if first_row is None:
        raise ParseError("log contains no data rows", None)

    table = _parse_rows(data, start, _LOG_ROW, usecols=range(3, len(LOG_HEADER)))
    population = prefix = None
    # with `usecols`, loadtxt takes a row of more than 8 fields: count the commas
    if (
        table is not None
        and data.count(b",", start) == (len(LOG_HEADER) - 1) * len(table)
        and table["rank"].min() >= 1
    ):
        end = first_row.start()
        for _ in range(3):
            end = data.index(b",", end) + 1
        prefix = data[first_row.start():end]  # the first row's "pid,method,sparsity,"
        pid, method, sparsity, _ = prefix.decode().split(",")
        try:
            population = (pid, method, _float_cell(sparsity))
        except ValueError:
            pass
    if (
        population is None
        or population[2] != population[2]  # NaN: no row equals the first
        or data.count(b"\n" + prefix, start - 1) != len(table)
        or any(byte in data for byte in _ROW_BY_ROW_BYTES)
    ):
        # a row is faulty, or gives the population in other words (0.9, 0.90)
        _check_log_rows(data, start)
        if population is None:
            raise ParseError("malformed log", None)  # the row pass names each fault

    model, example, rank, pred, truth = (table[name] for name in LOG_HEADER[3:])
    example_ids, first, col = np.unique(example, return_index=True, return_inverse=True)
    K, N, topk = int(model.max()) + 1, len(example_ids), int(rank.max())
    # a complete log of distinct cells fills the (K, N, topk) cube exactly once
    cell = None
    if model.min() == 0 and K * N * topk == len(table):
        cell = (model * N + col) * topk + (rank - 1)
    if cell is None or np.bincount(cell).max() > 1 or (truth != truth[first][col]).any():
        _raise_cross_row_fault(table, data, start)
    preds = np.empty(len(table), dtype=np.int64)
    preds[cell] = pred
    return PredictionLog(
        population_id=population[0],
        compression=CompressionSpec(method=population[1], sparsity=population[2]),
        example_ids=example_ids,
        truth=truth[first],
        predictions=preds.reshape(K, N, topk),
    )


def _check_log_rows(data: bytes, start: int) -> None:
    """Raise a ParseError for the first log row that is faulty on its own, if any."""
    population: tuple[str, str, float] | None = None
    for lineno, row in _check_rows(data, start, _LOG_COLUMNS):
        row_population = (row[0], row[1], float(row[2]))
        if population is None:
            population = row_population
        elif row_population != population:
            raise ParseError("mixed populations in one log file", lineno)
        rank = int(row[5])
        if rank < 1:
            raise ParseError(f"ranks are 1-based, got {rank}", lineno)


def _raise_cross_row_fault(table: np.ndarray, data: bytes, start: int) -> NoReturn:
    """Raise the ParseError of a log whose rows do not fill its (K, N, topk) cube once.

    The first row that repeats a cell or gives its example a second true
    label is named; otherwise the model ids, the ranks or the row count fail.
    """
    lines = [n for n, line in enumerate(data[start:].split(b"\n"), 2) if line not in (b"", b"\r")]
    seen, label_of = set(), {}
    for i, (model, example, rank, _, truth) in enumerate(table.tolist()):
        if (model, example, rank) in seen:
            raise ParseError(
                f"duplicate (model_id, example_id, rank) {(model, example, rank)}", lines[i]
            )
        seen.add((model, example, rank))
        if label_of.setdefault(example, truth) != truth:
            raise ParseError(f"conflicting true_label for example {example}", lines[i])
    model_ids = np.unique(table["model_id"]).tolist()
    ranks = np.unique(table["rank"]).tolist()
    K, N, topk = len(model_ids), len(label_of), len(ranks)
    if model_ids != list(range(K)):
        raise ParseError(f"model ids must be 0..K-1, got {model_ids}", None)
    if ranks != list(range(1, topk + 1)):
        raise ParseError(f"ranks must be contiguous from 1, got {ranks}", None)
    raise ParseError(f"incomplete log: expected {K * N * topk} rows, got {len(table)}", None)


def write_dataset(dataset: LabeledDataset, csv_path: str | Path) -> None:
    """Write a dataset CSV plus its `<stem>.meta.json` sidecar."""
    csv_path = Path(csv_path)
    header = ["example_id", "true_label"]
    header += [f"attr_{a}" for a in dataset.attribute_names]
    header += [f"f{j}" for j in range(dataset.dim)]
    row_format = ",".join(["%d"] * (2 + len(dataset.attribute_names)) + ["%r"] * dataset.dim)
    columns = [dataset.example_ids[:, np.newaxis], dataset.labels[:, np.newaxis],
               dataset.attributes, dataset.feature_matrix]
    step = max(1, TABLE_BLOCK_CELLS // len(header))  # rows per block
    blocks = (
        np.hstack([c[i:i + step] for c in columns], dtype=object).ravel().tolist()
        for i in range(0, len(dataset), step)
    )
    write_table(csv_path, header, row_format, blocks)

    meta: dict[str, object] = {"num_classes": dataset.num_classes}
    if dataset.layout is not None:
        meta["height"], meta["width"] = dataset.layout
    atomic_write_text(_meta_path(csv_path), json.dumps(meta, sort_keys=True) + "\n")


def read_dataset(csv_path: str | Path) -> LabeledDataset:
    """Read a dataset CSV and its sidecar metadata.

    The id, label, attribute and feature columns are parsed by one
    np.loadtxt call; attribute cells are 0 or 1. ParseError, with the line,
    for a bad row; SchemaError, naming the sidecar, for a class count or
    layout that `LabeledDataset.from_arrays` refuses. Bytes read before with
    the same class count and layout come back as the dataset they gave then
    (`_reuse`).
    """
    csv_path = Path(csv_path)
    meta_path = _meta_path(csv_path)
    if not meta_path.exists():
        raise SchemaError(f"missing sidecar metadata {meta_path}")
    meta = read_json_object(meta_path)
    data, header, start = _read_csv(csv_path)
    if header[:2] != ["example_id", "true_label"]:
        raise SchemaError(
            f"{csv_path}: header must start with example_id,true_label"
        )
    attr_names = []
    col = 2
    while col < len(header) and header[col].startswith("attr_"):
        attr_names.append(header[col][len("attr_"):])
        col += 1
    feat_cols = header[col:]
    expected = [f"f{j}" for j in range(len(feat_cols))]
    if feat_cols != expected:
        raise SchemaError(f"{csv_path}: feature columns must be f0..f{{d-1}}")
    try:  # the sidecar by `from_arrays`' own rules, before any row is parsed
        num_classes = int_at_least(meta["num_classes"], "'num_classes'")
        layout = None
        if meta.keys() & {"height", "width"}:
            layout = checked_layout(
                [int_at_least(meta[key], repr(key)) for key in ("height", "width")], len(feat_cols)
            )
    except KeyError as exc:
        raise SchemaError(f"{meta_path}: missing key {exc}") from None
    except ConfigError as exc:
        raise SchemaError(f"{meta_path}: {exc}") from None

    def parse() -> LabeledDataset:
        table = _read_table(data, start, [
            ("example_id", "int"),
            ("true_label", "int"),
            ("attribute", "flag", len(attr_names)),
            ("features", "float", len(feat_cols)),
        ])
        return LabeledDataset.from_arrays(
            table["example_id"],
            table["true_label"],
            table["features"],
            num_classes,
            attribute_names=attr_names,
            attributes=table["attribute"],
            layout=layout,
        )

    return _reuse(("dataset", hashlib.sha256(data).digest(), num_classes, layout), parse)


def read_json_object(path: str | Path) -> dict:
    """A JSON file that must hold one object; anything else is a SchemaError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # a JSON or a text decoding error
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".meta.json")
