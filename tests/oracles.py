"""Independent high-precision oracles the tests check the implementation against.

Nothing here shares code with the package: the t-distribution tail comes
from mpmath's arbitrary-precision incomplete beta, binary16 rounding is done
bit by bit, and PIE detection is a dict-based recount; `vote_counts` is the
package's former (N, C) vote histogram. The CSV readers are the package's
former row-by-row readers (`csv` module, `int()`/`float()` per cell) and the
writers its former per-row f-string writers; they build and take the
package's types but share none of its parsing or formatting. The training step is the
package's former out-of-place loop and gradient routine: it builds on the
unchanged public pieces (`MLPModel.initialize`, `sparsity_at_step`,
`apply_magnitude_mask`, `quantize_model`) but runs its own forward pass.
The synthetic split is the package's former per-example sampler, which
builds one feature array and one flag tuple per example. The robustness
audit's hit rates are its former scoring: one `rank_topk` sort per model.
The incomplete beta's continued fraction is the package's former one, with
each half-step of the modified Lentz method written out.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np

from compresslens.data_model import (
    LOG_HEADER,
    CompressionSpec,
    LabeledDataset,
    PredictionLog,
    _meta_path,
    read_json_object,
)
from compresslens.errors import DivergenceError, NumericError, ParseError, SchemaError
from compresslens.synth import (
    _ATYPICAL_SCALE,
    _NOISY_GAMMA,
    SynthLongTailSpec,
    _cluster_geometry,
    zipf_allocate,
)
from compresslens.trainer import (
    LR_DECAY_FACTOR,
    REPRESENTATIVE_COUNT,
    MLPModel,
    QuantizationScheme,
    apply_magnitude_mask,
    quantize_model,
    rank_topk,
    sparsity_at_step,
)

mp.mp.dps = 50


def welch_oracle(a, b) -> tuple[float, float, float]:
    """(t, df, two-sided p) for Welch's test, computed at 50 decimal digits.

    The p-value is the regularized incomplete beta I_{df/(df+t^2)}(df/2, 1/2)
    evaluated by mpmath, far below the 1e-12 tolerance this suite needs.
    """
    a = [mp.mpf(repr(float(x))) for x in a]
    b = [mp.mpf(repr(float(x))) for x in b]
    na, nb = len(a), len(b)
    mean_a = mp.fsum(a) / na
    mean_b = mp.fsum(b) / nb
    var_a = mp.fsum((x - mean_a) ** 2 for x in a) / (na - 1)
    var_b = mp.fsum((x - mean_b) ** 2 for x in b) / (nb - 1)
    sa = var_a / na
    sb = var_b / nb
    if sa + sb == 0:
        df = mp.mpf(na + nb - 2)
        if mean_a == mean_b:
            return 0.0, float(df), 1.0
        t = math.copysign(math.inf, float(mean_a - mean_b))
        return t, float(df), 0.0
    t = (mean_a - mean_b) / mp.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    x = df / (df + t * t)
    p = mp.betainc(df / 2, mp.mpf("0.5"), 0, x, regularized=True)
    return float(t), float(df), float(p)


def reference_beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The former continued fraction for the incomplete beta, modified Lentz, unrolled."""
    fpmin, tol = 1e-300, 3e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise NumericError(f"did not converge (a={a}, b={b}, x={x})")


def student_t_tail_by_quadrature(t: float, df: float) -> float:
    """2*P(T_df > |t|) via direct numeric integration of the t density."""
    df_mp = mp.mpf(repr(float(df)))
    tt = mp.mpf(repr(abs(float(t))))
    norm = mp.gamma((df_mp + 1) / 2) / (mp.sqrt(df_mp * mp.pi) * mp.gamma(df_mp / 2))

    def density(x):
        return norm * (1 + x * x / df_mp) ** (-(df_mp + 1) / 2)

    return float(2 * mp.quad(density, [tt, mp.inf]))


def float16_round(value: float) -> float:
    """Round a float to the nearest IEEE-754 binary16 value, ties to even.

    Pure-Python bit construction: sign * mantissa * 2^exp with a 10-bit
    stored mantissa, subnormals below 2^-14, infinity beyond the max finite
    value 65504.
    """
    if value == 0.0 or math.isnan(value) or math.isinf(value):
        return value
    sign = -1.0 if value < 0 else 1.0
    mag = abs(value)

    exp = math.floor(math.log2(mag))
    # guard logarithm edge cases
    while 2.0**exp > mag:
        exp -= 1
    while 2.0 ** (exp + 1) <= mag:
        exp += 1

    if exp < -14:  # subnormal range: fixed scale 2^-24
        scaled = mag / 2.0**-24
    else:
        scaled = mag / 2.0**exp * 1024.0  # normal: 10 fractional bits

    floor_m = math.floor(scaled)
    frac = scaled - floor_m
    if frac > 0.5 or (frac == 0.5 and floor_m % 2 == 1):
        floor_m += 1

    if exp < -14:
        result = sign * floor_m * 2.0**-24
    else:
        if floor_m == 2048:  # mantissa overflowed into the next exponent
            floor_m = 1024
            exp += 1
        result = sign * floor_m / 1024.0 * 2.0**exp
    if exp > 15 or abs(result) > 65504:
        return sign * math.inf
    return result


def pie_brute_force(base_rank1: dict[int, list[int]], comp_rank1: dict[int, list[int]]):
    """Recount vote histograms with Counters and return the disagreement ids.

    `base_rank1`/`comp_rank1` map example_id to the list of rank-1 votes of
    every model. Ties resolve to the lowest label.
    """
    assert set(base_rank1) == set(comp_rank1)
    pies = []
    for eid in sorted(base_rank1):
        modal = []
        for votes in (base_rank1[eid], comp_rank1[eid]):
            counts = Counter(votes)
            best = max(counts.values())
            modal.append(min(lbl for lbl, n in counts.items() if n == best))
        if modal[0] != modal[1]:
            pies.append(eid)
    return pies


def vote_counts(log: PredictionLog) -> np.ndarray:
    """(N, C) histogram of the population's rank-1 votes on each example.

    `.argmax(axis=1)` is each example's modal label, ties to the lowest label.
    """
    n, c = log.num_examples, log.num_classes
    cells = np.arange(n) * c + log.predictions[:, :, 0]  # (K, N) flat (example, label) index
    return np.bincount(cells.ravel(), minlength=n * c).reshape(n, c)


def _write_lines(path: str | Path, lines: list[str]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def write_prediction_log(log: PredictionLog, path: str | Path) -> None:
    """Serialize a log as long-format CSV, rows ordered by (model, example, rank)."""
    spec = log.compression
    prefix = f"{log.population_id},{spec.method},{spec.sparsity!r}"
    ids, truth = log.example_ids.tolist(), log.truth.tolist()
    lines = [",".join(LOG_HEADER)]
    for k in range(log.num_models):
        for eid, label, ranked in zip(ids, truth, log.predictions[k].tolist()):
            lines.extend(
                f"{prefix},{k},{eid},{r},{p},{label}" for r, p in enumerate(ranked, 1)
            )
    _write_lines(path, lines)


def write_dataset(dataset: LabeledDataset, csv_path: str | Path) -> None:
    """Write a dataset CSV plus its `<stem>.meta.json` sidecar."""
    csv_path = Path(csv_path)
    header = ["example_id", "true_label"]
    header += [f"attr_{a}" for a in dataset.attribute_names]
    header += [f"f{j}" for j in range(dataset.dim)]
    lines = [",".join(header)]
    for eid, label, flags, feats in zip(
        dataset.example_ids.tolist(),
        dataset.labels.tolist(),
        dataset.attributes.tolist(),
        dataset.feature_matrix.tolist(),
    ):
        row = [str(eid), str(label)]
        row += ["1" if on else "0" for on in flags]
        row += [repr(v) for v in feats]
        lines.append(",".join(row))
    _write_lines(csv_path, lines)

    meta: dict[str, object] = {"num_classes": dataset.num_classes}
    if dataset.layout is not None:
        meta["height"], meta["width"] = dataset.layout
    _write_lines(_meta_path(csv_path), [json.dumps(meta, sort_keys=True)])


def write_pie_report(pies, truth, path) -> None:
    lines = ["example_id,true_label,modal_base,modal_comp,is_pie"]
    for eid, label, mb, mc in zip(
        pies.example_ids.tolist(),
        np.asarray(truth).tolist(),
        pies.modal_base.tolist(),
        pies.modal_comp.tolist(),
    ):
        lines.append(f"{eid},{label},{mb},{mc},{1 if mb != mc else 0}")
    _write_lines(path, lines)


def write_attribute_report(shares, path) -> None:
    lines = ["attribute,share_dataset,share_pie,relative_representation"]
    for name, (a, p, r) in shares.items():
        lines.append(f"{name},{a:.6f},{p:.6f},{r:.6f}")
    _write_lines(path, lines)


def write_audit_csv(rows, path) -> None:
    lines = ["class,mean_recall_base,mean_recall_comp,norm_recall_diff,t_stat,df,p_value,significant"]
    for r in rows:
        lines.append(
            f"{r.class_id},{r.mean_recall_base:.6f},{r.mean_recall_comp:.6f},"
            f"{r.norm_recall_diff:.6f},{r.t_stat:.6f},{r.df:.6f},"
            f"{r.p_value:.6f},{1 if r.significant else 0}"
        )
    _write_lines(path, lines)


def write_robustness_report(rows, path) -> None:
    lines = ["corruption,sparsity,top1_abs,topk_abs,top1_norm,topk_norm"]
    for r in rows:
        lines.append(
            f"{r.kind},{r.sparsity:g},{r.top1_abs:.2f},{r.topk_abs:.2f},"
            f"{r.top1_norm:.2f},{r.topk_norm:.2f}"
        )
    _write_lines(path, lines)


def write_chart(rows: list[dict], path) -> None:
    """`report --chart`'s chart.csv from the rows of its report.json."""
    lines = ["class,norm_recall_diff,significant"]
    for r in rows:
        lines.append(f"{r['class']},{r['norm_recall_diff']:.6f},{1 if r['significant'] else 0}")
    _write_lines(path, lines)


def read_prediction_log(path: str | Path) -> PredictionLog:
    """Parse a long-format CSV log; the inverse of `write_prediction_log`.

    Rows may appear in any order. Raises SchemaError for a bad header and
    ParseError (with a 1-based line number) for a bad row.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if header != LOG_HEADER:
            missing = [c for c in LOG_HEADER if c not in header]
            extra = [c for c in header if c not in LOG_HEADER]
            detail = []
            if missing:
                detail.append(f"missing columns {missing}")
            if extra:
                detail.append(f"unexpected columns {extra}")
            raise SchemaError(f"{path}: {'; '.join(detail) or 'columns out of order'}")

        population: tuple[str, str, float] | None = None
        cells = array("q")  # per row: model, example, rank, pred, truth, line number
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(LOG_HEADER):
                raise ParseError(f"expected {len(LOG_HEADER)} fields, got {len(row)}", lineno)
            try:
                cell = (int(row[3]), int(row[4]), int(row[5]), int(row[6]), int(row[7]))
                row_population = (row[0], row[1], float(row[2]))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if population is None:
                population = row_population
            elif row_population != population:
                raise ParseError("mixed populations in one log file", lineno)
            if cell[2] < 1:
                raise ParseError(f"ranks are 1-based, got {cell[2]}", lineno)
            cells.extend(cell)
            cells.append(lineno)

    if population is None:
        raise ParseError("log contains no data rows", None)
    table = np.frombuffer(cells, np.int64).reshape(-1, 6)
    model, example, rank, pred, truth, line = table.T
    example_ids, first, col = np.unique(example, return_index=True, return_inverse=True)
    # the first row that repeats a cell or gives its example a second true label
    repeated = np.ones(len(line), dtype=bool)
    repeated[np.unique(table[:, :3], axis=0, return_index=True)[1]] = False
    bad = np.flatnonzero(repeated | (truth != truth[first][col]))
    if bad.size:
        i = bad[0]
        if repeated[i]:
            key = tuple(table[i, :3].tolist())
            raise ParseError(f"duplicate (model_id, example_id, rank) {key}", int(line[i]))
        raise ParseError(f"conflicting true_label for example {example[i]}", int(line[i]))
    model_ids, ranks = np.unique(model).tolist(), np.unique(rank).tolist()
    K, N, topk = len(model_ids), len(example_ids), len(ranks)
    if model_ids != list(range(K)):
        raise ParseError(f"model ids must be 0..K-1, got {model_ids}", None)
    if ranks != list(range(1, topk + 1)):
        raise ParseError(f"ranks must be contiguous from 1, got {ranks}", None)
    if len(line) != K * N * topk:
        raise ParseError(
            f"incomplete log: expected {K * N * topk} rows, got {len(line)}", None
        )
    preds = np.empty((K, N, topk), dtype=np.int64)
    preds[model, col, rank - 1] = pred
    pid, method, sparsity = population
    return PredictionLog(
        population_id=pid,
        compression=CompressionSpec(method=method, sparsity=sparsity),
        example_ids=example_ids,
        truth=truth[first],
        predictions=preds,
    )


def read_dataset(csv_path: str | Path) -> LabeledDataset:
    """Read a dataset CSV and its sidecar metadata."""
    csv_path = Path(csv_path)
    meta_path = _meta_path(csv_path)
    if not meta_path.exists():
        raise SchemaError(f"missing sidecar metadata {meta_path}")
    meta = read_json_object(meta_path)
    for key in ("num_classes", "height", "width"):
        if (key == "num_classes" or key in meta) and type(meta.get(key)) is not int:
            raise SchemaError(f"{meta_path}: {key!r} must be an integer, got {meta.get(key)!r}")
    num_classes = meta["num_classes"]
    layout = None
    if "height" in meta and "width" in meta:
        layout = (meta["height"], meta["width"])

    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{csv_path}: empty file") from None
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

        ids, labels, flags, feats = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", lineno
                )
            try:
                ids.append(int(row[0]))
                labels.append(int(row[1]))
                feats.append([float(v) for v in row[col:]])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            flags.append([cell == "1" for cell in row[2:col]])
    return LabeledDataset.from_arrays(
        ids,
        labels,
        np.array(feats, dtype=np.float64).reshape(len(ids), len(feat_cols)),
        num_classes,
        attribute_names=attr_names,
        attributes=flags,
        layout=layout,
    )


def reference_loss_and_gradients(model: MLPModel, x, y, weight_decay: float = 0.0):
    """(loss, grads_w, grads_b) computed out of place: every step a fresh array."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    last = len(model.weights) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        acts = [x]
        pre = []
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = acts[-1] @ w + b
            pre.append(z)
            acts.append(z if i == last else np.maximum(z, 0.0))

        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        nll = -(shifted[np.arange(n), y] - np.log(exp.sum(axis=1)))
        loss = float(nll.mean())
        if weight_decay:
            loss += 0.5 * weight_decay * sum(
                float((w * w).sum()) for w in model.weights
            )

        delta = probs
        delta[np.arange(n), y] -= 1.0
        delta /= n

        grads_w = [None] * len(model.weights)
        grads_b = [None] * len(model.biases)
        for i in range(len(model.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            if weight_decay:
                grads_w[i] += weight_decay * model.weights[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grads_w, grads_b


def reference_train_single(train_ds, config, compression, schedule, model_seed) -> MLPModel:
    """One population member trained by the out-of-place SGD loop.

    It asks `sparsity_at_step` for the target at every step, updates with
    `w -= lr * g` and multiplies every tensor by its mask after every step.
    """
    rng = np.random.default_rng(model_seed)
    dims = (train_ds.dim,) + config.hidden_dims + (train_ds.num_classes,)
    model = MLPModel.initialize(dims, rng)
    weight_masks = [np.ones_like(w) for w in model.weights]
    bias_masks = [np.ones_like(b) for b in model.biases]

    def refresh(target):
        pairs = [(model.weights, weight_masks)]
        if config.prune_biases:
            pairs.append((model.biases, bias_masks))
        for i in range(len(model.weights)):
            for tensors, masks in pairs:
                masks[i] = apply_magnitude_mask(tensors[i], target)
                tensors[i] *= masks[i]

    x_all = train_ds.feature_matrix
    y_all = train_ds.labels
    n = x_all.shape[0]
    batch = min(config.batch_size, n)

    applied = -1.0
    perm = rng.permutation(n)
    pos = n

    for step in range(config.steps):
        if schedule is not None:
            target = sparsity_at_step(schedule, step)
            if target > applied:
                refresh(target)
                applied = target

        if pos + batch > n:
            perm = rng.permutation(n)
            pos = 0
        idx = perm[pos : pos + batch]
        pos += batch

        lr = config.learning_rate
        if config.lr_decay_steps:
            lr *= LR_DECAY_FACTOR ** (step // config.lr_decay_steps)

        loss, grads_w, grads_b = reference_loss_and_gradients(
            model, x_all[idx], y_all[idx], config.weight_decay
        )
        if not math.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at step {step}")
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(model.weights)):
                model.weights[i] -= lr * grads_w[i]
                model.biases[i] -= lr * grads_b[i]
                model.weights[i] *= weight_masks[i]
                model.biases[i] *= bias_masks[i]

    if schedule is not None:
        target = sparsity_at_step(schedule, config.steps)
        if target > applied:
            refresh(target)

    if compression.is_quantization():
        scheme = QuantizationScheme(kind=compression.label)
        calibration = x_all[:REPRESENTATIVE_COUNT] if scheme.kind == "fixed_int8" else None
        model = quantize_model(model, scheme, calibration)
    return model


def reference_sample_split(
    spec: SynthLongTailSpec, centers, spreads, total: int, rng, id_offset: int
) -> LabeledDataset:
    """One synthetic split, drawn example by example into lists of arrays and tuples."""
    counts = zipf_allocate(total, spec.num_classes, spec.zipf_exponent)
    median = float(np.median(counts))
    minority = {c for c in range(spec.num_classes) if counts[c] < median}

    labels: list[int] = []
    rows: list[np.ndarray] = []
    flags: list[tuple[bool, bool, bool]] = []  # atypical, minority, noisy
    for c in range(spec.num_classes):
        for _ in range(counts[c]):
            u = rng.random()
            noisy = u < spec.noisy_fraction
            atypical = not noisy and u < spec.noisy_fraction + spec.atypical_fraction
            if noisy:
                other = int(rng.integers(spec.num_classes - 1))
                if other >= c:
                    other += 1
                gamma = rng.uniform(*_NOISY_GAMMA)
                base = (1.0 - gamma) * centers[other] + gamma * centers[c]
                feats = base + spreads[c] * rng.standard_normal(spec.dim)
            elif atypical:
                feats = centers[c] + (
                    _ATYPICAL_SCALE * spreads[c]
                ) * rng.standard_normal(spec.dim)
            else:
                feats = centers[c] + spreads[c] * rng.standard_normal(spec.dim)
            labels.append(c)
            rows.append(feats)
            flags.append((atypical, c in minority, noisy))

    order = rng.permutation(len(labels))
    return LabeledDataset.from_arrays(
        example_ids=id_offset + np.arange(len(labels)),
        labels=np.array(labels, dtype=np.int64)[order],
        feature_matrix=np.array(rows)[order],
        num_classes=spec.num_classes,
        attribute_names=("atypical", "minority", "noisy"),
        attributes=np.array(flags)[order],
    )


def reference_synthesize(spec: SynthLongTailSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """`synthesize` with both splits drawn by `reference_sample_split`."""
    rng = np.random.default_rng(spec.seed)
    centers, spreads = _cluster_geometry(spec, rng)
    train = reference_sample_split(spec, centers, spreads, spec.train_count, rng, 0)
    test = reference_sample_split(
        spec, centers, spreads, spec.test_count, rng, spec.train_count
    )
    return train, test


def reference_hit_rates(models, x, y, k: int) -> tuple[float, float]:
    """(top-1, top-k) accuracy averaged over models, from each model's `rank_topk` rows.

    The robustness audit's former `_hit_rates`: the same per-model means and
    the same mean over models, so its floats are comparable with `==`.
    """
    hits = [rank_topk(m.logits(x), k) == y[:, None] for m in models]
    return (
        float(np.mean([h[:, 0].mean() for h in hits])),
        float(np.mean([h.any(axis=1).mean() for h in hits])),
    )
