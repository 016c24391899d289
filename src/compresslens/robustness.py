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
from functools import cache, cached_property

import numpy as np

from .data_model import (
    CompressionSpec,
    ExampleRecord,
    LabeledDataset,
    check_field_types,
    checked_layout,
    int64_array,
    int_at_least,
    write_table,
)
from .errors import ConfigError, EmptySample, LayoutRequired, ShapeError, ZeroBaseline
from .trainer import MLPModel, label_ranks, ranking_depth

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
        int_at_least(self.seed, "seed", 0)

    @cached_property
    def _key_words(self) -> tuple[int, ...]:
        """uint32 words of the stream key's first three integers: seed, kind index, severity."""
        key = (self.seed, _KIND_INDEX[self.kind], self.severity)
        return tuple(w for n in key for w in _seed_words(n))


@dataclass(frozen=True)
class RobustnessRow:
    """One corruption's row of the robustness CSV; the fields are its columns, in order."""

    kind: str
    sparsity: float
    top1_abs: float  # percent
    topk_abs: float
    top1_norm: float  # percent relative change vs baseline
    topk_norm: float


# numpy's `SeedSequence` hash (numpy/random/bit_generator.pyx): a pool of
# four uint32 words mixed from the key's words, stretched into PCG64's seed
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# generate_state xors state word i with INIT_B * MULT_B**i, then multiplies
# it by INIT_B * MULT_B**(i + 1)
_STATE_HASH = tuple(
    (_INIT_B * _MULT_B**i & _MASK32, _INIT_B * _MULT_B ** (i + 1) & _MASK32)
    for i in range(2 * _POOL_SIZE)
)


def _seed_words(n) -> list[int]:
    """The little-endian uint32 words numpy's `SeedSequence` makes of one non-negative integer."""
    n = operator.index(n)
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix_pool(key: list[np.ndarray]) -> list[np.ndarray]:
    """`SeedSequence(key).pool` for many keys at once; `key[j]` is the uint32 column of word j.

    uint32 arithmetic wraps as numpy's C code does. Every key has
    `len(key)` words, at least the pool size.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(w) for w in key[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in key[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    return pool


def _pcg64_seed(pool: list) -> list:
    """`SeedSequence.generate_state(4, np.uint64)` of a pool of uint64 columns, one per word.

    Every product is masked to 32 bits, as numpy's uint32 arithmetic wraps.
    """
    state = []
    for i, (xor, mult) in enumerate(_STATE_HASH):
        value = (pool[i % _POOL_SIZE] ^ xor) * mult & _MASK32
        state.append(value ^ value >> 16)
    # uint32 words 2k and 2k + 1 make uint64 word k, little-endian as in numpy
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(_POOL_SIZE)]


@cache
def _pcg64_seed_type() -> type:
    """A seed-sequence type that hands `PCG64` a precomputed `generate_state(4, np.uint64)`.

    It is built on first use: subclassing numpy's `ISeedSequence` imports
    `numpy.random`, which would add ~14 ms to the start of every command.
    """

    class PCG64Seed(np.random.bit_generator.ISeedSequence):
        def __init__(self, seed: np.ndarray):
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
            return self.seed

    return PCG64Seed


def _example_rngs(spec: CorruptionSpec, example_ids) -> Iterator[np.random.Generator]:
    """One generator object per id, each the stream of
    `np.random.default_rng([spec.seed, kind index, spec.severity, example_id])`.

    `default_rng` mixes the key's uint32 words into `SeedSequence`'s pool and
    seeds `PCG64` with `generate_state(4, np.uint64)` of it. One id's
    generator is `default_rng`'s own, which costs less than setting up
    columns. For more, that state is computed for every id at once, the
    pools mixed together as uint32 columns, one group per key length (an id
    of 2**32 or more adds a word), and handed to `PCG64` as it is.
    """
    ids = int64_array(example_ids, "example ids", non_negative=True)
    if len(ids) == 1:
        yield np.random.default_rng([spec.seed, _KIND_INDEX[spec.kind], spec.severity, int(ids[0])])
        return
    # the one or two words `_seed_words` makes of an id below 2**63
    words = np.stack([ids & _MASK32, ids >> 32]).astype(np.uint32)
    lengths = 1 + (words[1] != 0)
    pool = np.empty((_POOL_SIZE, len(ids)), dtype=np.uint64)
    for length in (1, 2):
        rows = lengths == length
        if not rows.any():
            continue
        key = [np.array([w], dtype=np.uint32) for w in spec._key_words] + list(words[:length, rows])
        pool[:, rows] = _mix_pool(key)
    seeds = np.stack(_pcg64_seed(pool), axis=1)
    seed_type = _pcg64_seed_type()
    for seed in seeds:
        yield np.random.Generator(np.random.PCG64(seed_type(seed)))


def corrupt_features(
    features: np.ndarray,
    spec: CorruptionSpec,
    example_ids,
    lo=0.0,
    hi=1.0,
    layout: tuple[int, int] | None = None,
) -> np.ndarray:
    """Apply one corruption to each row of an (N, d) matrix; row i belongs to `example_ids[i]`.

    Row i of the result depends only on (features[i], spec, example_ids[i]),
    so corrupting a matrix gives the rows that corrupting each row alone
    would (`corrupt` does that for one record). `lo`/`hi` bound the feature
    domain (scalars or per-coordinate arrays); severity magnitudes are
    expressed as fractions of hi - lo, and the result is clamped back into
    [lo, hi]. Ids must be non-negative integers (`int64_array`), features
    finite and a layout given a pair whose product is d (`checked_layout`),
    for every kind; otherwise it is a ConfigError.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or np.ndim(example_ids) != 1 or len(example_ids) != x.shape[0]:
        raise ShapeError(
            "expected an (N, d) matrix and N ids; got "
            f"features of shape {x.shape} and ids of shape {np.shape(example_ids)}"
        )
    ids = int64_array(example_ids, "example ids", non_negative=True)
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ConfigError("features must be finite")
    layout = checked_layout(layout, x.shape[1])
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
        # a row's two uniform blocks (hit, then high) are consecutive in its stream
        u = np.empty((x.shape[0], 2 * x.shape[1]))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        hit = u[:, : x.shape[1]] < _IMPULSE_FRACTION[s]
        extreme_high = u[:, x.shape[1] :] < 0.5
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
        block = _PIXELATE_BLOCK[s]
        img = x.reshape(-1, h, w)
        out = np.empty_like(img)
        for r0 in range(0, h, block):
            for c0 in range(0, w, block):
                patch = img[:, r0 : r0 + block, c0 : c0 + block]
                out[:, r0 : r0 + block, c0 : c0 + block] = patch.mean(axis=(1, 2), keepdims=True)
        x = out.reshape(x.shape)

    x.clip(lo, hi, out=x)  # every branch made x a new array
    return x


def corrupt(example: ExampleRecord, spec: CorruptionSpec, lo=0.0, hi=1.0) -> ExampleRecord:
    """Corrupted copy of an example (a one-row batch); deterministic given (example, spec)."""
    feats = corrupt_features(
        example.features[None, :], spec, [example.example_id], lo, hi, example.layout
    )
    return replace(example, features=feats[0])


def relative_accuracy(acc_comp: float, acc_base: float) -> float:
    """Signed percent change of compressed accuracy relative to the baseline."""
    if acc_base <= 0:
        raise ZeroBaseline(f"baseline accuracy must be positive, got {acc_base}")
    return 100.0 * (acc_comp - acc_base) / acc_base


def _hit_rates(
    models: list[MLPModel], x: np.ndarray, y: np.ndarray, k: int
) -> tuple[float, float]:
    """(top-1, top-k) accuracy averaged over models, in `rank_topk`'s order (`label_ranks`)."""
    ranks = [label_ranks(m.logits(x), y) for m in models]
    return (
        float(np.mean([(r == 0).mean() for r in ranks])),
        float(np.mean([(r < k).mean() for r in ranks])),
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
    An unknown kind or a `topk` outside 1..C is a ConfigError, an empty split
    an EmptySample, a model with other than the split's d inputs or C outputs
    a ShapeError; all before anything is drawn.
    """
    specs = [[CorruptionSpec(kind, severity, seed) for severity in range(1, 6)] for kind in kinds]
    topk = ranking_depth(topk, test_ds.num_classes)
    feats, y, ids = test_ds.feature_matrix, test_ds.labels, test_ds.example_ids
    if len(ids) == 0:
        raise EmptySample("the robustness audit needs a split with at least one example")
    for model in (*base_models, *comp_models):
        if model.layer_dims[0] != feats.shape[1]:
            raise ShapeError(
                f"a model has {model.layer_dims[0]} inputs, the split {feats.shape[1]} features"
            )
        if model.num_classes != test_ds.num_classes:
            raise ShapeError(
                f"a model has {model.num_classes} outputs, the split {test_ds.num_classes} classes"
            )
    lo, hi = feats.min(axis=0), feats.max(axis=0)
    layout = test_ds.layout

    rows = []
    for kind, severities in zip(kinds, specs):
        rates = np.zeros((2, 2))  # (base, comp) x (top-1, top-k), mean over severities
        for spec in severities:
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
