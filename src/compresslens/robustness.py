"""Feature-space corruptions at five severities and relative-degradation metrics.

Accuracy of a compressed population on a corruption is normalized by the
baseline population's accuracy on the same corruption, averaging over
severities 1..5 first. A normalized value of 0 means compression added no
sensitivity to that corruption.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import astuple, dataclass, replace

import numpy as np

from .data_model import (
    CompressionSpec,
    ExampleRecord,
    LabeledDataset,
    check_field_types,
    write_table,
)
from .errors import ConfigError, LayoutRequired, ShapeError, ZeroBaseline
from .trainer import MLPModel, rank_topk, ranking_depth

CORRUPTION_KINDS = (
    "gaussian_noise",
    "shot_noise",
    "impulse_noise",
    "brightness",
    "contrast",
    "pixelate",
)

# per-severity parameter tables (index 0 = severity 1)
_GAUSSIAN_SIGMA = (0.04, 0.08, 0.12, 0.18, 0.26)  # fraction of feature range
_SHOT_LAMBDA = (500.0, 250.0, 100.0, 50.0, 25.0)
_IMPULSE_FRACTION = (0.01, 0.02, 0.05, 0.10, 0.17)
_BRIGHTNESS_SHIFT = (0.05, 0.10, 0.15, 0.22, 0.30)  # fraction of feature range
_CONTRAST_SCALE = (0.75, 0.6, 0.45, 0.3, 0.15)
_PIXELATE_BLOCK = (2, 3, 4, 6, 8)

_KIND_INDEX = {k: i for i, k in enumerate(CORRUPTION_KINDS)}


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in CORRUPTION_KINDS:
            raise ConfigError(f"unknown corruption kind {self.kind!r}")
        if not 1 <= self.severity <= 5:
            raise ConfigError(f"severity must be in 1..5, got {self.severity}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RobustnessRow:
    """One corruption's row of the robustness CSV; the fields are its columns, in order."""

    kind: str
    sparsity: float
    top1_abs: float  # percent
    topk_abs: float
    top1_norm: float  # percent relative change vs baseline
    topk_norm: float


def _seed_words(n) -> list[int]:
    """The little-endian uint32 words numpy's `SeedSequence` makes of one integer."""
    n = operator.index(n)
    if n < 0:
        raise ConfigError(f"corruption keys must be non-negative, got {n}")
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _example_rngs(spec: CorruptionSpec, example_ids) -> Iterator[np.random.Generator]:
    """One generator per id, each the stream of
    `np.random.default_rng([spec.seed, kind index, spec.severity, example_id])`.

    `default_rng` turns that key into these uint32 words one integer at a
    time; seeding from the words directly gives the same stream for less.
    """
    key = [w for n in (spec.seed, _KIND_INDEX[spec.kind], spec.severity) for w in _seed_words(n)]
    for example_id in example_ids:
        words = np.array(key + _seed_words(example_id), dtype=np.uint32)
        yield np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def corrupt_features(
    features: np.ndarray,
    spec: CorruptionSpec,
    example_id,
    lo=0.0,
    hi=1.0,
    layout: tuple[int, int] | None = None,
) -> np.ndarray:
    """Apply one corruption to a feature vector, or to each row of an (N, d) matrix.

    A vector takes one `example_id`, a matrix one id per row. Row i of the
    result depends only on (features[i], spec, example_id[i]), so corrupting
    a matrix gives the rows that corrupting each vector alone would.
    `lo`/`hi` bound the feature domain (scalars or per-coordinate arrays);
    severity magnitudes are expressed as fractions of hi - lo, and the
    result is clamped back into [lo, hi].
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    x, ids = (x[None, :], [example_id]) if single else (x, example_id)
    if x.ndim != 2 or np.ndim(ids) != 1 or len(ids) != x.shape[0]:
        raise ShapeError(
            "expected one vector and one id, or an (N, d) matrix and N ids; got "
            f"features of shape {np.shape(features)} and ids of shape {np.shape(ids)}"
        )
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = hi - lo
    s = spec.severity - 1
    # the noise kinds draw row by row, each row from its own example's stream
    rngs = _example_rngs(spec, ids)

    # (N, d) temporaries are updated in place, which keeps the peak memory of
    # a large batch near that of the input; x + y == y + x bit for bit
    if spec.kind == "gaussian_noise":
        noise = np.empty_like(x)
        for row, rng in zip(noise, rngs):
            row[:] = rng.normal(0.0, 1.0, row.shape)
        noise *= _GAUSSIAN_SIGMA[s] * span
        noise += x
        x = noise
    elif spec.kind == "shot_noise":
        lam = _SHOT_LAMBDA[s]
        counts = x - lo
        np.maximum(counts, 0.0, out=counts)
        counts *= lam
        for row, rng in zip(counts, rngs):
            row[:] = rng.poisson(row)  # the row holds its Poisson rate until drawn
        counts /= lam
        counts += lo
        x = counts
    elif spec.kind == "impulse_noise":
        hit = np.empty(x.shape, dtype=bool)
        extreme_high = np.empty(x.shape, dtype=bool)
        for hit_row, high_row, rng in zip(hit, extreme_high, rngs):
            hit_row[:] = rng.random(hit_row.shape) < _IMPULSE_FRACTION[s]
            high_row[:] = rng.random(high_row.shape) < 0.5
        x = np.where(hit, np.where(extreme_high, hi, lo), x)
    elif spec.kind == "brightness":
        x = x + _BRIGHTNESS_SHIFT[s] * span
    elif spec.kind == "contrast":
        mean = x.mean(axis=1, keepdims=True)
        x = x - mean
        x *= _CONTRAST_SCALE[s]
        x += mean
    elif spec.kind == "pixelate":
        if layout is None:
            raise LayoutRequired("pixelate requires a height x width layout")
        h, w = layout
        if h * w != x.shape[1]:
            raise ShapeError(f"layout {h}x{w} does not match feature length {x.shape[1]}")
        block = _PIXELATE_BLOCK[s]
        img = x.reshape(-1, h, w)
        out = np.empty_like(img)
        for r0 in range(0, h, block):
            for c0 in range(0, w, block):
                patch = img[:, r0 : r0 + block, c0 : c0 + block]
                out[:, r0 : r0 + block, c0 : c0 + block] = patch.mean(axis=(1, 2), keepdims=True)
        x = out.reshape(x.shape)

    np.clip(x, lo, hi, out=x)  # every branch made x a new array
    return x[0] if single else x


def corrupt(example: ExampleRecord, spec: CorruptionSpec, lo=0.0, hi=1.0) -> ExampleRecord:
    """Corrupted copy of an example; deterministic given (example, spec)."""
    if not np.all(np.isfinite(example.features)):
        raise ConfigError("features must be finite")
    feats = corrupt_features(
        example.features, spec, example.example_id, lo, hi, example.layout
    )
    return replace(example, features=feats)


def relative_accuracy(acc_comp: float, acc_base: float) -> float:
    """Signed percent change of compressed accuracy relative to the baseline."""
    if acc_base <= 0:
        raise ZeroBaseline(f"baseline accuracy must be positive, got {acc_base}")
    return 100.0 * (acc_comp - acc_base) / acc_base


def _hit_rates(
    models: list[MLPModel], x: np.ndarray, y: np.ndarray, k: int
) -> tuple[float, float]:
    """(top-1, top-k) accuracy averaged over models, ranked by `rank_topk`."""
    hits = [rank_topk(m.logits(x), k) == y[:, None] for m in models]
    return (
        float(np.mean([h[:, 0].mean() for h in hits])),
        float(np.mean([h.any(axis=1).mean() for h in hits])),
    )


def robustness_report(
    test_ds: LabeledDataset,
    kinds: list[str],
    base_models: list[MLPModel],
    comp_models: list[MLPModel],
    comp_spec: CompressionSpec,
    topk: int | None = None,
    seed: int = CorruptionSpec.seed,
) -> list[RobustnessRow]:
    """One row per corruption kind: absolute and baseline-normalized accuracy.

    Per kind, accuracy is the mean over severities 1..5 and over models;
    normalization divides by the baseline population's mean accuracy on the
    same corruption. Each example's corruption and hits depend only on its
    own features and id, so the rows do not depend on the split's row order.
    """
    topk = ranking_depth(topk, test_ds.num_classes)
    feats, y, ids = test_ds.feature_matrix, test_ds.labels, test_ds.example_ids
    lo, hi = feats.min(axis=0), feats.max(axis=0)
    layout = test_ds.layout

    rows = []
    for kind in kinds:
        rates = np.zeros((2, 2))  # (base, comp) x (top-1, top-k), mean over severities
        for severity in range(1, 6):
            spec = CorruptionSpec(kind=kind, severity=severity, seed=seed)
            xc = corrupt_features(feats, spec, ids, lo, hi, layout)
            rates += np.array(
                [_hit_rates(models, xc, y, topk) for models in (base_models, comp_models)]
            ) / 5.0
        (base1, basek), (comp1, compk) = (100.0 * rates).tolist()
        rows.append(
            RobustnessRow(
                kind=kind,
                sparsity=comp_spec.sparsity,
                top1_abs=comp1,
                topk_abs=compk,
                top1_norm=relative_accuracy(comp1, base1),
                topk_norm=relative_accuracy(compk, basek),
            )
        )
    return rows


ROBUSTNESS_HEADER = ["corruption", "sparsity", "top1_abs", "topk_abs", "top1_norm", "topk_norm"]


def write_robustness_report(rows: list[RobustnessRow], path) -> None:
    cells = [cell for r in rows for cell in astuple(r)]
    write_table(path, ROBUSTNESS_HEADER, "%s,%g" + ",%.2f" * 4, [cells])
