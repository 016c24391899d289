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
    LabeledDataset,
    PredictionLog,
    int64_array,
    read_table,
    write_table,
)
from .errors import EmptyPIESet, ExampleSetMismatch


@dataclass(frozen=True, eq=False)
class PIESet:
    """Modal rank-1 labels of both populations on every example of a split.

    The (N,) arrays are aligned and ordered by example id; an example is a
    PIE when its two modal labels differ.
    """

    example_ids: np.ndarray
    modal_base: np.ndarray
    modal_comp: np.ndarray

    @cached_property
    def pie_ids(self) -> tuple[int, ...]:
        return tuple(self.example_ids[self.modal_base != self.modal_comp].tolist())

    def __len__(self) -> int:
        return len(self.pie_ids)

    def is_pie(self, example_ids) -> np.ndarray:
        """(N,) bool: is each id a PIE; the ids must be this set's examples, in any order."""
        ids = int64_array(example_ids, "example ids", non_negative=True)
        order = np.argsort(ids, kind="stable")
        if not np.array_equal(ids[order], self.example_ids):
            raise ExampleSetMismatch(
                f"{ids.size} example ids do not match the {self.example_ids.size} of the PIE set"
            )
        return (self.modal_base != self.modal_comp)[np.argsort(order)]


def modal_labels(log: PredictionLog) -> np.ndarray:
    """(N,) modal rank-1 label of the population on each example, ties to the lowest label.

    Only the labels that occur are counted, so nothing scales with the class count.
    """
    votes = np.sort(log.predictions[:, :, 0].T, axis=1)  # (N, K): each example's votes, ascending
    # flat index where each run of one label begins; labels are >= 0, so -1 starts every row
    starts = np.flatnonzero(np.diff(votes, axis=1, prepend=-1))
    counts = np.diff(starts, append=votes.size)
    example = starts // log.num_models
    # runs by example, then longest first; lexsort is stable, so the lowest label leads a tie
    order = np.lexsort((-counts, example))
    first = order[np.searchsorted(example[order], np.arange(log.num_examples))]
    return votes.ravel()[starts[first]]


def identify_pies(base_log: PredictionLog, comp_log: PredictionLog) -> PIESet:
    """Find the examples whose modal labels disagree between the two populations.

    Voting uses rank-1 predictions only; ties go to the lowest label. Output
    is ordered by example_id and independent of the input row/model order.
    """
    if not base_log.same_example_set(comp_log):
        raise ExampleSetMismatch("logs cover different example sets")
    return PIESet(
        example_ids=base_log.example_ids,
        modal_base=modal_labels(base_log),
        modal_comp=modal_labels(comp_log),
    )


def subset_accuracy(
    eval_log: PredictionLog, pies: PIESet, k: int = 1
) -> tuple[float | None, float | None, float | None]:
    """Mean-over-models top-k accuracy on (PIE subset, non-PIE subset, all examples).

    `eval_log` covers exactly the PIEs' split; an empty subset is reported as None.
    """
    hits = eval_log.hits(k)
    pie_mask = pies.is_pie(eval_log.example_ids)

    def _mean(mask: np.ndarray) -> float | None:
        if not mask.any():
            return None
        return float(hits[:, mask].mean(axis=1).mean())

    return _mean(pie_mask), _mean(~pie_mask), _mean(np.ones_like(pie_mask))


def attribute_shares(
    pies: PIESet, dataset: LabeledDataset
) -> dict[str, tuple[float, float, float]]:
    """Each attribute's (dataset share, PIE share, PIE share / dataset share).

    `dataset` is exactly the PIEs' split. Only attributes that some example
    carries are listed, so the ratio is always defined.
    """
    if not pies.pie_ids:
        raise EmptyPIESet("attribute analysis needs at least one PIE")
    on_pies = dataset.attributes[pies.is_pie(dataset.example_ids)]
    share_all = dataset.attributes.mean(axis=0).tolist()
    share_pie = (on_pies.sum(axis=0) / len(on_pies)).tolist()
    return {a: (s, p, p / s) for a, s, p in zip(dataset.attribute_names, share_all, share_pie)}


def attribute_relative_representation(
    pies: PIESet, dataset: LabeledDataset
) -> dict[str, float]:
    """Share of PIEs carrying each attribute, normalized by the dataset-wide share."""
    return {a: r for a, (*_, r) in attribute_shares(pies, dataset).items()}


PIE_HEADER = ["example_id", "true_label", "modal_base", "modal_comp", "is_pie"]
PIE_COLUMNS = list(zip(PIE_HEADER, ["int"] * 4 + ["flag"]))
ATTR_HEADER = ["attribute", "share_dataset", "share_pie", "relative_representation"]


def write_pie_report(pies: PIESet, truth: np.ndarray, path) -> None:
    """One row per example; `truth` holds the true labels aligned with `pies`."""
    is_pie = pies.modal_base != pies.modal_comp
    cells = np.stack([pies.example_ids, truth, pies.modal_base, pies.modal_comp, is_pie], axis=1)
    write_table(path, PIE_HEADER, "%d,%d,%d,%d,%d", [cells.ravel().tolist()])


def read_pie_report(path) -> dict[str, np.ndarray]:
    """The columns of a `write_pie_report` CSV, keyed by `PIE_HEADER`; `is_pie` is bool."""
    return read_table(path, PIE_COLUMNS, "PIE")


def write_attribute_report(shares: dict[str, tuple[float, float, float]], path) -> None:
    cells = [cell for name, share in shares.items() for cell in (name, *share)]
    write_table(path, ATTR_HEADER, "%s,%.6f,%.6f,%.6f", [cells])
