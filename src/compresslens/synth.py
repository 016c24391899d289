"""Synthetic Zipf long-tail dataset generator used for desk-scale validation.

Classes are Gaussian clusters in feature space with example counts decaying
as (c+1)^-z. The most frequent half of the classes ("heads") sit far apart;
each remaining rare class is a smaller satellite cluster placed against a
head, on a difficulty ladder: the rarest classes are broader and closer to
the most frequent hosts, so they are the first to be cannibalized when model
capacity shrinks.

Three attribute flags feed the downstream PIE analyses:

- ``attr_minority``: the class's count is below the median class count.
- ``attr_noisy``: the recorded label is unreliable; the features are drawn
  between the recorded class's cluster and another cluster, modeling the
  confusable examples that attract wrong labels in real data.
- ``attr_atypical``: features drawn far off the cluster center.

The geometry is fixed by the private constants below, calibrated on the
desk-scale experiment so that the rarest classes are the first to go under
pruning; a spec sets only the dataset's shape, noise and seed. Head centers
sit ``_CENTER_SCALE * sqrt(dim)`` from the origin with spread
``_CLUSTER_SPREAD``. Tail class j of n sits ``_TAIL_OFFSET_*`` cluster
spreads from its host with ``_TAIL_SPREAD_*`` times the host's spread, each
linear from the ``_EASY`` value at j = 0 to the ``_HARD`` one at j = n - 1.
A noisy example starts a fraction gamma ~ U(``_NOISY_GAMMA``) of the way
from another class's center to its own; an atypical one is drawn with
``_ATYPICAL_SCALE`` times its class's spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import LabeledDataset, check_field_types, int_at_least, write_dataset
from .errors import ConfigError

_CENTER_SCALE = 1.6
_CLUSTER_SPREAD = 0.9
# satellite ladder, easiest (most frequent tail class) to hardest (rarest)
_TAIL_OFFSET_EASY = 2.0
_TAIL_OFFSET_HARD = 1.45
_TAIL_SPREAD_EASY = 0.28
_TAIL_SPREAD_HARD = 0.40
_NOISY_GAMMA = (0.4, 0.65)
_ATYPICAL_SCALE = 2.4


@dataclass(frozen=True)
class SynthLongTailSpec:
    num_classes: int = 10
    dim: int = 16
    train_count: int = 5000
    test_count: int = 2000
    zipf_exponent: float = 1.0
    noisy_fraction: float = 0.05
    atypical_fraction: float = 0.08
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name, low in (("seed", 0), ("num_classes", 2), ("dim", 1)):
            int_at_least(getattr(self, name), name, low)
        if self.train_count < self.num_classes or self.test_count < self.num_classes:
            raise ConfigError("each split needs at least one example per class")
        if self.zipf_exponent < 0:
            raise ConfigError("zipf_exponent must be >= 0")
        for name in ("noisy_fraction", "atypical_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")


def zipf_allocate(total: int, num_classes: int, exponent: float) -> list[int]:
    """Integer class counts proportional to (c+1)^-exponent, summing to total.

    Largest-remainder rounding, ties to the lower class; every class gets at
    least one example.
    """
    weights = np.array([(c + 1.0) ** (-exponent) for c in range(num_classes)])
    ideal = total * weights / weights.sum()
    counts = np.floor(ideal).astype(int)
    remainder = total - int(counts.sum())
    order = sorted(range(num_classes), key=lambda c: (-(ideal[c] - counts[c]), c))
    for c in order[:remainder]:
        counts[c] += 1
    # tiny totals can starve the tail; steal from the head to keep support
    for c in range(num_classes):
        if counts[c] == 0:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[c] = 1
    return counts.tolist()


def _cluster_geometry(
    spec: SynthLongTailSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Class centers and per-class spreads: separated heads, ladder of satellites."""
    n_head = (spec.num_classes + 1) // 2
    dirs = rng.standard_normal((n_head, spec.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = np.zeros((spec.num_classes, spec.dim))
    spreads = np.zeros(spec.num_classes)
    centers[:n_head] = dirs * _CENTER_SCALE * np.sqrt(spec.dim)
    spreads[:n_head] = _CLUSTER_SPREAD

    n_tail = spec.num_classes - n_head
    for j, c in enumerate(range(n_head, spec.num_classes)):
        # the rarest satellite rides the most frequent head and is the
        # broadest and closest-in: first to go when capacity drops
        host = (n_head - 1 - j) % n_head
        frac = j / max(1, n_tail - 1)
        offset = _TAIL_OFFSET_EASY + frac * (_TAIL_OFFSET_HARD - _TAIL_OFFSET_EASY)
        ratio = _TAIL_SPREAD_EASY + frac * (_TAIL_SPREAD_HARD - _TAIL_SPREAD_EASY)
        direction = rng.standard_normal(spec.dim)
        direction /= np.linalg.norm(direction)
        centers[c] = centers[host] + direction * offset * _CLUSTER_SPREAD
        spreads[c] = _CLUSTER_SPREAD * ratio
    return centers, spreads


def _sample_split(
    spec: SynthLongTailSpec,
    centers: np.ndarray,
    spreads: np.ndarray,
    total: int,
    rng: np.random.Generator,
    id_offset: int,
) -> LabeledDataset:
    counts = zipf_allocate(total, spec.num_classes, spec.zipf_exponent)
    median = float(np.median(counts))

    # each example is drawn straight into its row, in class order
    labels = np.repeat(np.arange(spec.num_classes), counts)
    feats = np.empty((total, spec.dim))
    flags = np.zeros((total, 3), dtype=bool)  # atypical, minority, noisy
    flags[:, 1] = np.repeat(np.array(counts) < median, counts)
    for c, row, flag in zip(labels.tolist(), feats, flags):
        u = rng.random()
        if u < spec.noisy_fraction:
            other = int(rng.integers(spec.num_classes - 1))
            if other >= c:
                other += 1
            gamma = rng.uniform(*_NOISY_GAMMA)
            center = (1.0 - gamma) * centers[other] + gamma * centers[c]
            scale = spreads[c]
            flag[2] = True
        else:
            center = centers[c]
            flag[0] = u < spec.noisy_fraction + spec.atypical_fraction
            scale = _ATYPICAL_SCALE * spreads[c] if flag[0] else spreads[c]
        rng.standard_normal(out=row)
        row *= scale
        row += center

    order = rng.permutation(total)
    return LabeledDataset.from_arrays(
        example_ids=id_offset + np.arange(total),
        labels=labels[order],
        feature_matrix=feats[order],
        num_classes=spec.num_classes,
        attribute_names=("atypical", "minority", "noisy"),
        attributes=flags[order],
    )


def synthesize(spec: SynthLongTailSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic (train, test) splits for a spec; same spec, same data."""
    rng = np.random.default_rng(spec.seed)
    centers, spreads = _cluster_geometry(spec, rng)
    train = _sample_split(spec, centers, spreads, spec.train_count, rng, id_offset=0)
    test = _sample_split(
        spec, centers, spreads, spec.test_count, rng, id_offset=spec.train_count
    )
    return train, test


def generate(spec: SynthLongTailSpec, out_dir: str | Path) -> tuple[Path, Path]:
    """Synthesize and write train.csv / test.csv (plus sidecars) into out_dir."""
    out_dir = Path(out_dir)
    train, test = synthesize(spec)
    train_path = out_dir / "train.csv"
    test_path = out_dir / "test.csv"
    write_dataset(train, train_path)
    write_dataset(test, test_path)
    return train_path, test_path
