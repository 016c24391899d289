"""Prediction arrays for the audit_logs workload, with every audit result known by construction.

Three populations of K models share one test split: a baseline, a pruned
population and a quantized one. Each population has a modal label per
example that at least K - MAX_DISSENT models vote for, so the modal label
is fixed by construction whatever the dissenters vote. Dissenters never vote
for the true label, so a model is right on an example exactly when it does
not dissent there and the modal label is the true label.

All populations share one dissent pattern (model k dissents on example i in
every population or in none). A compressed population then changes the
modal label of a known slice of examples:

- in its harmed classes (rare, minority classes), a share of the examples
  whose baseline modal label is right flip to a wrong label, so those
  classes lose a large share of their recall;
- elsewhere, some examples whose baseline modal label is already wrong flip
  to another wrong label, weighted toward noisy, atypical and minority ones.

Classes outside the harmed set keep exactly the baseline per-model recall,
so their mean-shifted recall moves only by the small overall accuracy loss,
while the per-model dissent rates spread each class's recall by ~10 pp
across models. The per-class Welch test is therefore far from the 0.05
threshold on both sides: harmed classes have t < -4, the others |t| < 1.5.
`generate` asserts both margins, so a seed that broke them fails loudly.
"""

from __future__ import annotations

import numpy as np

NUM_CLASSES = 20
NUM_MODELS = 10
NUM_EXAMPLES = 6000
TOPK = 3
DIM = 16
MAX_DISSENT = 3
DISSENT_RATE = (0.02, 0.38)
ID_OFFSET = 100_000

# population label -> (harmed classes counted from the rarest, flip share in
# harmed classes, wrong-to-wrong flip share for noisy / atypical / other)
POPULATIONS = {
    "prune_0.9": ((1, 2), 0.6, (0.5, 0.3, 0.15)),
    "dynamic_int8": ((3,), 0.65, (0.3, 0.2, 0.08)),
}
MINORITY_FLIP_BONUS = 0.2
# design margins on the Welch t; with K = 10 per population, |t| > 4 gives
# p < 0.003 and |t| < 1.5 gives p > 0.15, both far from alpha = 0.05
HARMED_T = -4.0
OTHER_T = 1.5


def _other_labels(rng, avoid_a, avoid_b, num_classes):
    """A uniform label differing from both avoid arrays, elementwise."""
    out = rng.integers(0, num_classes, avoid_a.shape)
    bad = (out == avoid_a) | (out == avoid_b)
    while bad.any():
        out[bad] = rng.integers(0, num_classes, int(bad.sum()))
        bad = (out == avoid_a) | (out == avoid_b)
    return out


def _ranked(rng, rank1, num_classes, topk):
    """(K, N, topk) distinct ranked labels whose first column is rank1."""
    keys = rng.random(rank1.shape + (num_classes,))
    np.put_along_axis(keys, rank1[..., None], -1.0, axis=2)
    return np.argsort(keys, axis=2)[:, :, :topk]


def shifted_recall(rank1, truth, num_classes):
    """(C, K) per-model class recall minus the model's overall accuracy."""
    hits = rank1 == truth[None, :]
    acc = hits.mean(axis=1)
    return np.stack([hits[:, truth == c].mean(axis=1) - acc for c in range(num_classes)])


def _welch_t(a, b):
    return (a.mean() - b.mean()) / np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)


def generate(seed: int, num_examples: int = NUM_EXAMPLES) -> dict:
    """All arrays of one audit_logs input set; the same seed gives the same arrays."""
    rng = np.random.default_rng([seed % 2**32, 20191112])
    C, K, N = NUM_CLASSES, NUM_MODELS, num_examples

    weights = 1.0 / np.arange(1, C + 1)
    counts = np.floor(N * weights / weights.sum()).astype(np.int64)
    counts[0] += N - counts.sum()
    truth = rng.permutation(np.repeat(np.arange(C), counts))
    ids = ID_OFFSET + np.sort(rng.choice(10 * N, N, replace=False))
    minority = (counts < np.median(counts))[truth]
    u = rng.random(N)
    noisy = u < 0.05
    atypical = (u >= 0.05) & (u < 0.13)
    features = rng.normal(size=(N, DIM))

    p_wrong = np.where(noisy, 0.6, np.where(atypical, 0.4, 0.03))
    modal = {"baseline": truth.copy()}
    base_wrong = rng.random(N) < p_wrong
    modal["baseline"][base_wrong] = _other_labels(
        rng, truth[base_wrong], truth[base_wrong], C
    )
    modal_b = modal["baseline"]

    rates = rng.uniform(*DISSENT_RATE, size=(K, C))
    dissent = rng.random((K, N)) < rates[:, truth]
    dissent &= np.cumsum(dissent, axis=0) <= MAX_DISSENT

    harmed = {}
    for label, (rare, flip_share, (p_noisy, p_atyp, p_other)) in POPULATIONS.items():
        harmed[label] = sorted(C - r for r in rare)
        in_harmed = np.isin(truth, harmed[label])
        flip = in_harmed & (modal_b == truth) & (rng.random(N) < flip_share)
        p_hard = np.where(noisy, p_noisy, np.where(atypical, p_atyp, p_other))
        p_hard = p_hard + MINORITY_FLIP_BONUS * minority
        flip |= ~in_harmed & (modal_b != truth) & (rng.random(N) < p_hard)
        m = modal_b.copy()
        m[flip] = _other_labels(rng, truth[flip], modal_b[flip], C)
        modal[label] = m

    predictions = {}
    for label, m in modal.items():
        votes = np.broadcast_to(m, (K, N)).copy()
        votes[dissent] = _other_labels(
            rng, np.broadcast_to(truth, (K, N))[dissent], votes[dissent], C
        )
        predictions[label] = _ranked(rng, votes, C, TOPK)

    arrays = {
        "ids": ids,
        "truth": truth,
        "features": features,
        "minority": minority,
        "noisy": noisy,
        "atypical": atypical,
        "dissent": dissent,
        **{f"modal:{k}": v for k, v in modal.items()},
        **{f"pred:{k}": v for k, v in predictions.items()},
        **{f"harmed:{k}": np.array(v) for k, v in harmed.items()},
    }
    for label, t in welch_t_by_class(arrays).items():
        for c, tc in enumerate(t):
            if not (tc < HARMED_T if c in harmed[label] else abs(tc) < OTHER_T):
                raise AssertionError(
                    f"seed {seed}: class {c} of {label} breaks the design margin (t={tc:.2f})"
                )
    return arrays


def welch_t_by_class(arrays: dict) -> dict[str, np.ndarray]:
    """Welch t of each class's shifted recall, compressed against baseline."""
    truth = arrays["truth"]
    base = shifted_recall(arrays["pred:baseline"][:, :, 0], truth, NUM_CLASSES)
    out = {}
    for label in POPULATIONS:
        comp = shifted_recall(arrays[f"pred:{label}"][:, :, 0], truth, NUM_CLASSES)
        out[label] = np.array([_welch_t(comp[c], base[c]) for c in range(NUM_CLASSES)])
    return out
