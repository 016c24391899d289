"""Population training for small MLP classifiers, with pruning and quantization.

Each population member is a plain ReLU MLP trained by minibatch SGD on
softmax cross-entropy plus weight decay, from its own seeded random
initialization (model k uses seed + k). Gradual magnitude pruning runs
during training on a cubic sparsity ramp; quantization is applied after
training. Everything is float64 numpy and fully deterministic given
(seed, config, dataset).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import (
    QUANT_KINDS,
    CompressionSpec,
    LabeledDataset,
    PredictionLog,
    atomic_write_text,
    check_class_support,
    check_field_types,
    check_labels,
    int64_array,
    int_at_least,
    read_json_object,
)
from .errors import ConfigError, DivergenceError, SchemaError, ShapeError

# fixed_int8 calibrates activation ranges on this many leading training examples
REPRESENTATIVE_COUNT = 100
# `MLPModel.logits` scores a batch this many rows at a time. With OpenBLAS
# 0.3.31 (Haswell kernels), a block of 313 rows or more through the desk
# model (16-320-10) rounds each row as one whole-split product does; a
# smaller block runs another kernel, which changes last bits
LOGITS_BLOCK_ROWS = 512
# the learning rate is multiplied by this every `TrainConfig.lr_decay_steps` steps
LR_DECAY_FACTOR = 0.3


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2500
    batch_size: int = 64
    learning_rate: float = 0.1
    lr_decay_steps: int | None = 1500
    weight_decay: float = 1.5e-3
    seed: int = 0
    population_size: int = 10
    hidden_dims: tuple[int, ...] = (320,)
    # the default is calibrated on the desk-scale experiment: excluding biases
    # from pruning keeps the learned Zipf class priors intact at high sparsity
    prune_biases: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        check_field_types(self)
        for d in self.hidden_dims:
            int_at_least(d, "each of hidden_dims")
        for name, low in (("steps", 0), ("seed", 0), ("batch_size", 1), ("population_size", 1)):
            int_at_least(getattr(self, name), name, low)
        if self.lr_decay_steps is not None:
            int_at_least(self.lr_decay_steps, "lr_decay_steps")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")


@dataclass(frozen=True)
class PruneSchedule:
    """Cubic sparsity ramp: events every `prune_every` steps in [start, end]."""

    target_sparsity: float
    prune_start: int
    prune_end: int
    prune_every: int

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ConfigError("target_sparsity must be in [0, 1)")
        if not 0 <= self.prune_start < self.prune_end:
            raise ConfigError("need 0 <= prune_start < prune_end")
        int_at_least(self.prune_every, "prune_every")
        if self.prune_end - self.prune_start < self.prune_every:
            raise ConfigError("at least one pruning interval must fit in the ramp")


def prune_window(steps: int, start=None, end=None, every=None) -> tuple[int, int, int]:
    """The (start, end, every) of the cubic ramp (Zhu & Gupta 2017) for `steps` steps.

    By default the ramp spans steps // 10 to 7 * steps // 10, an event every
    fifteenth of the span: 250, 1750, 100 at 2500 steps. A value given
    overrides its part, and `every` follows the resolved start and end.
    """
    start = steps // 10 if start is None else start
    end = 7 * steps // 10 if end is None else end
    every = max(1, (end - start) // 15) if every is None else every
    return start, end, every


def prune_schedule(
    compression: CompressionSpec, steps: int, start=None, end=None, every=None
) -> PruneSchedule | None:
    """The ramp `compression` trains on, over `prune_window`; None unless it prunes."""
    if compression.method != "magnitude_prune":
        return None
    return PruneSchedule(compression.sparsity, *prune_window(steps, start, end, every))


class MLPModel:
    """ReLU MLP: the weights, biases and clamp ranges that inference reads.

    Weight matrices have shape (fan_in, fan_out); a pruned entry is exactly
    0.0, and every entry is finite. `activation_ranges` holds per-layer
    pre-activation (lo, hi) pairs for fixed-point inference, None otherwise.
    """

    def __init__(
        self,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        activation_ranges: list[tuple[float, float]] | None = None,
    ):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeError("weights and biases must have one entry per layer, at least one")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} vs bias {b.shape}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeError(f"layer {i}: fan-in mismatch")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ConfigError(f"layer {i}: weights and biases must be finite")
        self.activation_ranges = _checked_ranges(activation_ranges, len(self.weights))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]

    @classmethod
    def initialize(cls, layer_dims: tuple[int, ...], rng: np.random.Generator) -> "MLPModel":
        if len(layer_dims) < 2:
            raise ConfigError(f"bad layer dims {layer_dims}")
        layer_dims = [int_at_least(d, "each of layer_dims") for d in layer_dims]
        weights = []
        biases = []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on a (N, d) batch, clamping pre-activations when calibrated.

        The rows go through in blocks of `LOGITS_BLOCK_ROWS`, each into its
        slice of the (N, C) result, so a call holds one block's hidden
        activation whatever N is.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_dims[0]:
            raise ShapeError(f"input of shape {x.shape} is not an (N, {self.layer_dims[0]}) batch")
        out = np.empty((x.shape[0], self.num_classes))
        for i in range(0, x.shape[0], LOGITS_BLOCK_ROWS):
            for z in self._layers(x[i:i + LOGITS_BLOCK_ROWS], self.activation_ranges):
                pass
            out[i:i + LOGITS_BLOCK_ROWS] = z
        return out

    def _layers(self, x: np.ndarray, ranges: list[tuple[float, float]] | None = None):
        """Yield each layer's pre-activation on the (N, d) batch `x`; the last is the logits.

        Pre-activations are clamped to `ranges[i]` when ranges are given. When
        the caller resumes, a hidden layer's array is rectified in place and
        becomes the next layer's input, so one hidden activation is alive at
        a time: read a pre-activation before resuming, keep it to get the
        activation.
        """
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w
            z += b
            if ranges is not None:
                np.clip(z, *ranges[i], out=z)
            yield z
            if i < last:
                h = np.maximum(z, 0.0, out=z)


def _checked_ranges(ranges, layers: int) -> list[tuple[float, float]] | None:
    """`ranges` as one finite (lo, hi) float pair per layer with lo <= hi; None stays None."""
    if ranges is None:
        return None
    try:
        pairs = [(lo, hi) for lo, hi in ranges]
    except (TypeError, ValueError):
        pairs = []
    if len(pairs) != layers or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        for pair in pairs for v in pair
    ) or any(lo > hi for lo, hi in pairs):
        raise ConfigError(f"activation_ranges must be {layers} finite (lo, hi) pairs, lo <= hi")
    return [(float(lo), float(hi)) for lo, hi in pairs]


def rank_topk(logits: np.ndarray, k: int) -> np.ndarray:
    """Top-k labels of each row by descending logit, ties to the lower label."""
    return np.argsort(-logits, axis=1, kind="stable")[:, :k]


def label_ranks(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's 0-based position of its label (in [0, C)) in `rank_topk`'s order.

    Counted, not sorted: the labels ahead are those with a larger logit and
    those with an equal logit and a lower index. A NaN logit ranks after
    every number, and NaNs among themselves go by label, as `argsort` orders
    them. So `label_ranks(z, y) < k` is "y is in the top k" of each row.
    """
    own = logits[np.arange(len(labels)), labels]
    # label-major (C, N), so that each comparison and the count run along N
    # examples rather than along one example's few labels: ~2x faster
    z = logits.T.copy()
    lower = np.arange(len(z))[:, None] < labels
    ahead = z > own
    ahead |= (z == own) & lower
    nan = np.isnan(own)
    if nan.any():  # a NaN compares false with everything, itself included
        ahead[:, nan] = ~np.isnan(z[:, nan]) | lower[:, nan]
    return np.count_nonzero(ahead, axis=0)


def ranking_depth(topk: int | None, num_classes: int) -> int:
    """`topk`, or by default five ranks capped at the class count.

    A depth outside 1..`num_classes` is a ConfigError.
    """
    if topk is None:
        return min(5, num_classes)
    if not 1 <= topk <= num_classes:
        raise ConfigError(f"topk must be in 1..{num_classes}, got {topk}")
    return topk


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def sparsity_at_step(schedule: PruneSchedule, step: int) -> float:
    """Sparsity target in effect at `step`; constant between pruning events.

    The ramp is cubic: s(p) = s_f * (1 - (1 - p)^3) with p the fraction of
    the pruning window elapsed, evaluated only at event steps
    (start, start + every, ...); the last event's value holds in between.
    """
    int_at_least(step, "step", 0)
    start = schedule.prune_start
    if step < start:
        return 0.0
    if step >= schedule.prune_end:
        return schedule.target_sparsity
    event = start + schedule.prune_every * ((step - start) // schedule.prune_every)
    p = (event - start) / (schedule.prune_end - start)
    return schedule.target_sparsity * (1.0 - (1.0 - p) ** 3)


def apply_magnitude_mask(weights: np.ndarray, target_sparsity: float) -> np.ndarray:
    """Mask the round(s*n) smallest-magnitude entries of one tensor.

    Ties are broken by flattened index ascending. Entries masked earlier are
    exactly 0.0 (the training loop keeps them zeroed), so they sort first and
    the masked set grows monotonically across events.
    """
    if not 0.0 <= target_sparsity < 1.0:
        raise ConfigError("target_sparsity must be in [0, 1)")
    flat = np.abs(np.asarray(weights, dtype=np.float64).ravel())
    n = flat.size
    z = round(target_sparsity * n)
    mask = np.ones(n)
    if z > 0:
        order = np.argsort(flat, kind="stable")
        mask[order[:z]] = 0.0
    return mask.reshape(np.asarray(weights).shape)


def _prune_events(schedule: PruneSchedule, steps: int) -> dict[int, float]:
    """{step: target} for the steps up to `steps` at which the ramp's target can change.

    `sparsity_at_step` is constant between these steps: the events
    start, start + every, ... before prune_end, and prune_end itself, where
    the ramp reaches its final target even when no event falls on it.
    """
    candidates = list(range(schedule.prune_start, schedule.prune_end, schedule.prune_every))
    candidates.append(schedule.prune_end)
    return {t: sparsity_at_step(schedule, t) for t in candidates if t <= steps}


def _refresh_masks(tensors: list[np.ndarray], target: float) -> list[np.ndarray]:
    """Mask each tensor at `target` and zero its masked entries in place; return the masks."""
    masks = [apply_magnitude_mask(t, target) for t in tensors]
    for t, m in zip(tensors, masks):
        t *= m
    return masks


# ---------------------------------------------------------------------------
# loss / gradients
# ---------------------------------------------------------------------------

def loss_and_gradients(
    model: MLPModel,
    x: np.ndarray,
    y: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean softmax cross-entropy plus 0.5*wd*sum(W^2), with exact gradients.

    Weight decay applies to weight matrices only. The returned gradients are
    fresh arrays for all entries; the caller may scale them in place and
    re-applies masks after the update. `x` and the model are left untouched.
    A label that is not an integer in [0, C) is a ConfigError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = int64_array(y, "labels")  # a split's int64 labels as they are; a float, bool or str refused
    check_labels(y, model.num_classes)
    n = x.shape[0]
    rows = np.arange(n)
    # training never clamps: activation ranges apply to inference only
    acts = [x, *model._layers(x)]  # each hidden array rectified once the next is asked for
    # each hidden layer's ReLU derivative as 0.0/1.0 (h > 0 exactly where z > 0)
    relu_masks = [(h > 0.0).astype(np.float64) for h in acts[1:-1]]

    # softmax in place on the logits, which nothing else holds
    logits = acts.pop()
    logits -= logits.max(axis=1, keepdims=True)
    delta = np.exp(logits)
    total = delta.sum(axis=1)
    nll = -(logits[rows, y] - np.log(total))
    loss = float(nll.sum()) / n  # nll.mean() to the bit, without its overhead
    if weight_decay:
        loss += 0.5 * weight_decay * sum(float((w * w).sum()) for w in model.weights)

    delta /= total[:, None]
    delta[rows, y] -= 1.0
    delta /= n

    grads_w: list[np.ndarray] = [None] * len(model.weights)  # type: ignore[list-item]
    grads_b: list[np.ndarray] = [None] * len(model.biases)  # type: ignore[list-item]
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        if weight_decay:
            grads_w[i] += weight_decay * model.weights[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= relu_masks[i - 1]
    return loss, grads_w, grads_b


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _quantize_tensor_int8(w: np.ndarray) -> np.ndarray:
    max_abs = float(np.abs(w).max()) if w.size else 0.0
    if max_abs == 0.0:
        return w.copy()  # degenerate tensor: scale would be 0; pass through
    scale = max_abs / 127.0
    q = np.clip(_round_half_away(w / scale), -127, 127)
    return q * scale


def quantize_model(
    model: MLPModel, kind: str, calibration: np.ndarray | None = None
) -> MLPModel:
    """Post-training quantization; returns a new model, the input is untouched.

    `kind` is a key of QUANT_KINDS; any other is a ConfigError. float16
    rounds every weight and bias to the nearest IEEE-754 binary16 value.
    dynamic_int8 applies per-tensor symmetric int8 to the weight matrices.
    fixed_int8 additionally records each layer's pre-activation range over
    the calibration slice; inference then saturates to it.
    """
    if kind not in QUANT_KINDS:
        raise ConfigError(f"unknown quantization kind {kind!r}")
    if kind == "float16":
        return MLPModel(
            [w.astype(np.float16).astype(np.float64) for w in model.weights],
            [b.astype(np.float16).astype(np.float64) for b in model.biases],
            model.activation_ranges,
        )

    weights = [_quantize_tensor_int8(w) for w in model.weights]
    biases = [b.copy() for b in model.biases]
    if kind == "dynamic_int8":
        return MLPModel(weights, biases, model.activation_ranges)

    # fixed_int8: calibrate activation ranges with the quantized weights
    if calibration is None:
        raise ConfigError("fixed_int8 quantization requires calibration examples")
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.shape[0] < 1:
        raise ConfigError("calibration slice is empty")
    layers = MLPModel(weights, biases)._layers(calibration)
    return MLPModel(weights, biases, [(float(z.min()), float(z.max())) for z in layers])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _train_single(
    train_ds: LabeledDataset,
    config: TrainConfig,
    schedule: PruneSchedule | None,
    model_seed: int,
) -> MLPModel:
    rng = np.random.default_rng(model_seed)
    dims = (train_ds.dim,) + config.hidden_dims + (train_ds.num_classes,)
    model = MLPModel.initialize(dims, rng)

    x_all = train_ds.feature_matrix
    y_all = train_ds.labels
    n = x_all.shape[0]
    batch = min(config.batch_size, n)

    # updates are in place, so these stay the model's own arrays
    prunable = model.weights + (model.biases if config.prune_biases else [])
    masks: list[np.ndarray] = []
    events = _prune_events(schedule, config.steps) if schedule is not None else {}
    perm = rng.permutation(n)
    pos = n  # trigger reshuffle on first use

    # overflow/invalid values surface as a non-finite loss (DivergenceError),
    # so numpy warnings during training are redundant noise
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            if step in events:
                masks = _refresh_masks(prunable, events[step])

            if pos + batch > n:
                perm = rng.permutation(n)
                pos = 0
            idx = perm[pos : pos + batch]
            pos += batch

            lr = config.learning_rate
            if config.lr_decay_steps:
                lr *= LR_DECAY_FACTOR ** (step // config.lr_decay_steps)

            loss, grads_w, grads_b = loss_and_gradients(
                model, x_all[idx], y_all[idx], config.weight_decay
            )
            if not math.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at step {step}")
            for i in range(len(model.weights)):
                grads_w[i] *= lr
                model.weights[i] -= grads_w[i]
                grads_b[i] *= lr
                model.biases[i] -= grads_b[i]
            for t, m in zip(prunable, masks):
                t *= m

    if config.steps in events:  # a ramp that ends on the last step
        _refresh_masks(prunable, events[config.steps])
    return model


def evaluate_population(
    models: list[MLPModel],
    test_ds: LabeledDataset,
    compression: CompressionSpec,
    topk: int | None = None,
) -> PredictionLog:
    """Log each model's top-k ranked predictions on the test split under the compression's label."""
    topk = ranking_depth(topk, test_ds.num_classes)
    # filled model by model: a stacked `rank_topk` view would pin its model's (N, C) argsort
    preds = np.empty((len(models), len(test_ds), topk), dtype=np.int64)
    for model, out in zip(models, preds):
        out[:] = rank_topk(model.logits(test_ds.feature_matrix), topk)
    return PredictionLog(  # orders the rows by example id
        population_id=compression.label,
        compression=compression,
        example_ids=test_ds.example_ids,
        truth=test_ds.labels,
        predictions=preds,
        explicit_num_classes=test_ds.num_classes,
    )


def check_schedule(
    config: TrainConfig, compression: CompressionSpec, schedule: PruneSchedule | None, n: int
) -> None:
    """ConfigError unless `compression` trains with `schedule`, `config.steps` and `n` examples."""
    if compression.method == "magnitude_prune":
        if schedule is None:
            raise ConfigError("magnitude_prune requires a PruneSchedule")
        if schedule.target_sparsity != compression.sparsity:
            raise ConfigError(
                f"schedule target {schedule.target_sparsity} != "
                f"compression sparsity {compression.sparsity}"
            )
        if config.steps < schedule.prune_end:
            raise ConfigError("steps must be >= prune_end when pruning is active")
    elif schedule is not None:
        raise ConfigError("a PruneSchedule is only valid with magnitude_prune")
    if compression.method == "quant_fixed_int8" and n < REPRESENTATIVE_COUNT:
        raise ConfigError(f"fixed_int8 calibrates on {REPRESENTATIVE_COUNT} examples, got {n}")


def train_population(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    config: TrainConfig,
    compression: CompressionSpec = CompressionSpec("none"),
    schedule: PruneSchedule | None = None,
    topk: int | None = None,
) -> tuple[list[MLPModel], PredictionLog]:
    """Train K models from independent seeded inits and log them on the test split.

    Model k is seeded with config.seed + k. The log's population id is the
    compression's label.
    """
    check_schedule(config, compression, schedule, len(train_ds))
    if train_ds.dim != test_ds.dim or train_ds.num_classes != test_ds.num_classes:
        raise ConfigError("train/test splits disagree on dimensions or classes")
    topk = ranking_depth(topk, test_ds.num_classes)
    check_class_support(train_ds.labels, train_ds.num_classes, "training")
    for split, ds in (("training", train_ds), ("test", test_ds)):
        bad = np.flatnonzero(~np.isfinite(ds.feature_matrix).all(axis=1))
        if bad.size:
            raise ConfigError(
                f"{split} split: example {ds.example_ids[bad[0]]} has a non-finite feature"
            )

    models = [
        _train_single(train_ds, config, schedule, config.seed + k)
        for k in range(config.population_size)
    ]
    if compression.is_quantization():  # only fixed_int8 reads the calibration slice
        calibration = train_ds.feature_matrix[:REPRESENTATIVE_COUNT]
        models = [quantize_model(m, compression.label, calibration) for m in models]

    log = evaluate_population(models, test_ds, compression, topk)
    return models, log


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def save_model(model: MLPModel, compression: CompressionSpec, path: str | Path) -> None:
    doc = {
        "layer_dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "compression": {
            "method": compression.method,
            "sparsity": compression.sparsity,
        },
        "activation_ranges": (
            [list(r) for r in model.activation_ranges]
            if model.activation_ranges is not None
            else None
        ),
    }
    atomic_write_text(path, json.dumps(doc) + "\n")


def _json_numbers(value, what: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float64 array; a bool, str or null in them is refused."""
    cells = np.array(value, dtype=object)  # each value as JSON gave it
    if not set(map(type, cells.flat)) <= {int, float}:
        bad = next(v for v in cells.flat if type(v) not in (int, float))
        raise ConfigError(f"{what} must be lists of numbers, all of one length, got {bad!r}")
    return cells.astype(np.float64)


def load_model(path: str | Path) -> tuple[MLPModel, CompressionSpec]:
    """Read a `save_model` snapshot; a missing key or a malformed value is a SchemaError.

    Weights and biases must be JSON numbers and layer dims integers: a bool, a
    string or null is refused, never cast. Only a missing or null
    `activation_ranges` means a model without ranges.
    """
    doc = read_json_object(path)
    try:
        model = MLPModel(
            weights=[_json_numbers(w, "weights") for w in doc["weights"]],
            biases=[_json_numbers(b, "biases") for b in doc["biases"]],
            activation_ranges=doc.get("activation_ranges"),
        )
        spec = CompressionSpec(**doc["compression"])
        layer_dims = tuple(int_at_least(d, "each of layer_dims") for d in doc["layer_dims"])
    except KeyError as exc:
        raise SchemaError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError, ShapeError, ConfigError) as exc:
        raise SchemaError(f"{path}: malformed snapshot: {exc}") from None
    if layer_dims != model.layer_dims:
        raise SchemaError(f"{path}: layer_dims do not match the stored arrays")
    if spec.method == "quant_fixed_int8" and model.activation_ranges is None:
        raise SchemaError(f"{path}: a quant_fixed_int8 snapshot needs activation_ranges")
    return model, spec
