"""Pruning Identified Exemplar detection and the analyses built on it.

An example is a PIE when the modal label (most frequent rank-1 prediction
across a model population) differs between a compressed population and the
baseline population. Detection never reads true labels, so it can run on
unlabeled traffic at test time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import (
    CompressionSpec,
    LabeledDataset,
    PredictionLog,
    atomic_write_text,
    read_table,
)
from .errors import EmptyPIESet, ExampleSetMismatch, RankDepthExceeded


@dataclass(frozen=True, eq=False)
class PIESet:
    """Modal rank-1 labels of both populations on every example of a split.

    The (N,) arrays are aligned and ordered by example id; an example is a
    PIE when its two modal labels differ.
    """

    example_ids: np.ndarray
    modal_base: np.ndarray
    modal_comp: np.ndarray
    compression: CompressionSpec

    @cached_property
    def pie_ids(self) -> tuple[int, ...]:
        return tuple(self.example_ids[self.modal_base != self.modal_comp].tolist())

    def __len__(self) -> int:
        return len(self.pie_ids)


def vote_counts(log: PredictionLog) -> np.ndarray:
    """(N, C) histogram of the population's rank-1 votes on each example.

    `.argmax(axis=1)` is each example's modal label, ties to the lowest label.
    """
    n, c = log.num_examples, log.num_classes
    cells = np.arange(n) * c + log.predictions[:, :, 0]  # (K, N) flat (example, label) index
    return np.bincount(cells.ravel(), minlength=n * c).reshape(n, c)


def identify_pies(base_log: PredictionLog, comp_log: PredictionLog) -> PIESet:
    """Find the examples whose modal labels disagree between the two populations.

    Voting uses rank-1 predictions only; ties go to the lowest label. Output
    is ordered by example_id and independent of the input row/model order.
    """
    if not base_log.same_example_set(comp_log):
        raise ExampleSetMismatch("logs cover different example sets")
    return PIESet(
        example_ids=base_log.example_ids,
        modal_base=vote_counts(base_log).argmax(axis=1),
        modal_comp=vote_counts(comp_log).argmax(axis=1),
        compression=comp_log.compression,
    )


def subset_accuracy(
    eval_log: PredictionLog, pies: PIESet, k: int = 1
) -> tuple[float | None, float | None, float | None]:
    """Mean-over-models top-k accuracy on (PIE subset, non-PIE subset, all examples).

    An empty subset is reported as None rather than 0.
    """
    if k < 1 or k > eval_log.topk:
        raise RankDepthExceeded(f"rank depth {k} outside [1, {eval_log.topk}]")
    pie_mask = np.isin(eval_log.example_ids, pies.pie_ids)
    if pie_mask.sum() != len(pies):
        raise ExampleSetMismatch("PIE ids not contained in the evaluation log")
    hits = (
        (eval_log.predictions[:, :, :k] == eval_log.truth[np.newaxis, :, np.newaxis])
        .any(axis=2)
    )

    def _mean(mask: np.ndarray) -> float | None:
        if not mask.any():
            return None
        return float(hits[:, mask].mean(axis=1).mean())

    return _mean(pie_mask), _mean(~pie_mask), _mean(np.ones_like(pie_mask))


def _attribute_shares(
    pies: PIESet, dataset: LabeledDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Dataset-wide and PIE shares of each of `dataset.attribute_names`."""
    if not pies.pie_ids:
        raise EmptyPIESet("attribute analysis needs at least one PIE")
    on_pies = dataset.attributes[np.isin(dataset.example_ids, pies.pie_ids)]
    return dataset.attributes.mean(axis=0), on_pies.sum(axis=0) / max(len(on_pies), 1)


def attribute_relative_representation(
    pies: PIESet, dataset: LabeledDataset
) -> dict[str, float]:
    """Share of PIEs carrying each attribute, normalized by the dataset-wide share.

    Only attributes that some example carries are reported, so the ratio is
    always defined.
    """
    share_all, share_pie = _attribute_shares(pies, dataset)
    return dict(zip(dataset.attribute_names, (share_pie / share_all).tolist()))


PIE_HEADER = ["example_id", "true_label", "modal_base", "modal_comp", "is_pie"]
PIE_COLUMNS = list(zip(PIE_HEADER, ["int"] * 4 + ["flag"]))
ATTR_HEADER = ["attribute", "share_dataset", "share_pie", "relative_representation"]


def write_pie_report(pies: PIESet, truth: np.ndarray, path) -> None:
    """One row per example; `truth` holds the true labels aligned with `pies`."""
    lines = [",".join(PIE_HEADER)]
    for eid, label, mb, mc in zip(
        pies.example_ids.tolist(),
        np.asarray(truth).tolist(),
        pies.modal_base.tolist(),
        pies.modal_comp.tolist(),
    ):
        lines.append(f"{eid},{label},{mb},{mc},{1 if mb != mc else 0}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_pie_report(path) -> dict[str, np.ndarray]:
    """The columns of a `write_pie_report` CSV, keyed by `PIE_HEADER`; `is_pie` is bool."""
    return read_table(path, PIE_COLUMNS, "PIE")


def write_attribute_report(pies: PIESet, dataset: LabeledDataset, path) -> None:
    share_all, share_pie = _attribute_shares(pies, dataset)
    lines = [",".join(ATTR_HEADER)]
    for name, a, p in zip(dataset.attribute_names, share_all, share_pie):
        lines.append(f"{name},{a:.6f},{p:.6f},{p / a:.6f}")
    atomic_write_text(path, "\n".join(lines) + "\n")
