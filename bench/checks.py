"""Correctness checks made apart from the program.

Every check returns a list of problems (empty when the output is right).
Prediction logs and datasets are parsed here with the csv module, modal
labels are counted with a Counter, Welch p-values are recomputed with mpmath
at 50 digits, and robustness rows are recomputed with a numpy forward pass
over the snapshot JSON. The only program functions used are `corrupt` (to
make the corrupted inputs) and `read_prediction_log` / `read_dataset` (whose
read-back is itself under test).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

import mpmath as mp
import numpy as np

LOG_COLUMNS = [
    "population_id", "compression_method", "sparsity", "model_id",
    "example_id", "rank", "predicted_label", "true_label",
]
ALPHA = 0.05


def close(a, b, tol: float) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# shared recomputations
# ---------------------------------------------------------------------------

def welch_mp(a, b) -> tuple[float, float, float]:
    """(t, df, two-sided p) of Welch's test on a - b, at 50 decimal digits."""
    with mp.workdps(50):
        a = [mp.mpf(repr(float(x))) for x in a]
        b = [mp.mpf(repr(float(x))) for x in b]
        mean_a, mean_b = mp.fsum(a) / len(a), mp.fsum(b) / len(b)
        sa = mp.fsum((x - mean_a) ** 2 for x in a) / (len(a) - 1) / len(a)
        sb = mp.fsum((x - mean_b) ** 2 for x in b) / (len(b) - 1) / len(b)
        if sa + sb == 0:
            df = float(len(a) + len(b) - 2)
            if mean_a == mean_b:
                return 0.0, df, 1.0
            return math.copysign(math.inf, float(mean_a - mean_b)), df, 0.0
        t = (mean_a - mean_b) / mp.sqrt(sa + sb)
        df = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
        p = mp.betainc(df / 2, mp.mpf("0.5"), 0, df / (df + t * t), regularized=True)
        return float(t), float(df), float(p)


def shifted_recall_samples(rank1: np.ndarray, truth: np.ndarray, c: int) -> np.ndarray:
    """Per-model recall of class c minus the model's top-1 accuracy."""
    hits = rank1 == truth[None, :]
    return hits[:, truth == c].mean(axis=1) - hits.mean(axis=1)


def modal_votes(rank1: np.ndarray) -> np.ndarray:
    """Modal rank-1 label per example (column); ties go to the lowest label."""
    out = np.empty(rank1.shape[1], dtype=np.int64)
    for i in range(rank1.shape[1]):
        counts = Counter(rank1[:, i].tolist())
        out[i] = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    return out


def read_log_csv(path) -> dict:
    """A prediction-log CSV as arrays: ids, truth, (K, N, topk) ranked labels."""
    ranked: dict[tuple[int, int], dict[int, int]] = defaultdict(dict)
    truth: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != LOG_COLUMNS:
            raise ValueError(f"{path}: unexpected header")
        for row in reader:
            model, eid, rank = int(row[3]), int(row[4]), int(row[5])
            ranked[(model, eid)][rank] = int(row[6])
            truth[eid] = int(row[7])
    ids = sorted(truth)
    models = sorted({m for m, _ in ranked})
    depth = len(next(iter(ranked.values())))
    preds = np.array(
        [[[ranked[(m, e)][r] for r in range(1, depth + 1)] for e in ids] for m in models]
    )
    return {
        "ids": np.array(ids),
        "truth": np.array([truth[e] for e in ids]),
        "preds": preds,
    }


def topk_accuracy(preds: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Mean over models of top-k accuracy, in percent."""
    return 100.0 * float((preds[:, :, :k] == truth[None, :, None]).any(axis=2).mean())


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def digest_tree(root) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    root = Path(root)
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# desk_run
# ---------------------------------------------------------------------------

def desk_recount(bundle) -> dict:
    """Per-level figures of a bundle recomputed from its CSV logs."""
    bundle = Path(bundle)
    logs = {p.stem: read_log_csv(p) for p in sorted((bundle / "logs").glob("*.csv"))}
    base = logs["baseline"]
    k = base["preds"].shape[2]
    base_modal = modal_votes(base["preds"][:, :, 0])
    truth = base["truth"]
    support = np.bincount(truth)
    base_hits = base["preds"][:, :, 0] == truth[None, :]
    out = {"baseline": {"top1": topk_accuracy(base["preds"], truth, 1),
                        f"top{k}": topk_accuracy(base["preds"], truth, k)},
           "levels": {}, "support": support}
    for label, log in logs.items():
        if label == "baseline":
            continue
        rank1 = log["preds"][:, :, 0]
        pie = modal_votes(rank1) != base_modal
        classes = []
        for c in range(len(support)):
            sc = shifted_recall_samples(rank1, truth, c)
            sb = shifted_recall_samples(base["preds"][:, :, 0], truth, c)
            classes.append({"class": c, "p": welch_mp(sc, sb)[2], "diff": float(sc.mean() - sb.mean())})
        out["levels"][label] = {
            "top1": topk_accuracy(log["preds"], truth, 1),
            f"top{k}": topk_accuracy(log["preds"], truth, k),
            "pie_ids": set(base["ids"][pie].tolist()),
            "base_top1_on_pies": 100.0 * float(base_hits[:, pie].mean()) if pie.any() else None,
            "base_top1_on_non_pies": 100.0 * float(base_hits[:, ~pie].mean()),
            "base_top1_on_all": 100.0 * float(base_hits.mean()),
            "classes": classes,
        }
    return out


def desk_summary_problems(summary: dict, recount: dict, pie_csv_ids: dict) -> list[str]:
    """summary.json and the PIE CSVs against the recount from the logs."""
    problems = []
    for key, value in recount["baseline"].items():
        if not close(summary["baseline"].get(key), value, 1e-4):
            problems.append(f"baseline {key}: summary {summary['baseline'].get(key)} != {value}")
    levels = {e["label"]: e for e in summary["levels"]}
    if set(levels) != set(recount["levels"]):
        problems.append(f"levels {sorted(levels)} != logs {sorted(recount['levels'])}")
        return problems
    for label, mine in recount["levels"].items():
        entry = levels[label]
        for key in [k for k in mine if k.startswith("top")]:
            if not close(entry.get(key), mine[key], 1e-4):
                problems.append(f"{label} {key}: summary {entry.get(key)} != {mine[key]}")
        if entry["pie_count"] != len(mine["pie_ids"]):
            problems.append(f"{label} pie_count: summary {entry['pie_count']} != {len(mine['pie_ids'])}")
        if pie_csv_ids.get(label) != mine["pie_ids"]:
            problems.append(f"{label}: PIE CSV ids differ from the recount")
        for key in ("on_pies", "on_non_pies", "on_all"):
            want = mine[f"base_top1_{key}"]
            got = entry.get(f"baseline_top1_{key}")
            if want is not None and not close(got, want, 1e-4):
                problems.append(f"{label} baseline_top1_{key}: summary {got} != {want}")
        signif = sum(c["p"] <= ALPHA for c in mine["classes"])
        if entry["significant_classes"] != signif:
            problems.append(
                f"{label} significant_classes: summary {entry['significant_classes']} != {signif}"
            )
    return problems


# Properties whose margin is thin or that fail at some seeds of the built-in
# configuration (see the README's seed table); they are reported, not gated.
SEED_FRAGILE = ("top1_delta", "pie_counts_monotone")


def desk_paper_properties(recount: dict, attrs: dict) -> dict[str, tuple[bool, str]]:
    """The paper's properties on the 0.9 level: name -> (holds, figure).

    attrs maps an attribute name to (example ids, flags) of the test split.
    """
    levels = recount["levels"]
    top = levels["prune_0.9"]
    delta = abs(recount["baseline"]["top1"] - top["top1"])
    support = recount["support"]
    harmed = [c["class"] for c in top["classes"]
              if support[c["class"]] < np.median(support) and c["p"] <= ALPHA and c["diff"] < 0]
    gap = (top["base_top1_on_non_pies"] - top["base_top1_on_pies"]
           if top["base_top1_on_pies"] is not None else 0.0)
    out = {
        "top1_delta": (delta <= 3.0, f"top-1 delta at 0.9 = {delta:.2f} pp (<= 3)"),
        "harmed_class": (bool(harmed), f"below-median classes significantly harmed = {harmed}"),
        "pie_gap": (gap >= 15.0, f"PIE gap = {gap:.1f} pp (>= 15)"),
    }
    for name in ("minority", "noisy"):
        ids, flags = attrs[name]
        in_pie = np.isin(ids, sorted(top["pie_ids"]))
        ratio = flags[in_pie].mean() / flags.mean() if in_pie.any() else 0.0
        out[name] = (ratio > 1.2, f"{name} representation among PIEs = {ratio:.2f} (> 1.2)")
    counts = [len(levels[f"prune_{s}"]["pie_ids"]) for s in ("0.3", "0.5", "0.7", "0.9")]
    out["pie_counts_monotone"] = (
        all(a <= b for a, b in zip(counts, counts[1:])),
        f"PIE counts by sparsity = {counts} (non-decreasing)",
    )
    return out


# ---------------------------------------------------------------------------
# audit_logs
# ---------------------------------------------------------------------------

def audit_expected(arrays: dict, label: str) -> dict:
    """What the audits of one compressed population must report, from the construction."""
    truth = arrays["truth"]
    base1 = arrays["pred:baseline"][:, :, 0]
    comp1 = arrays[f"pred:{label}"][:, :, 0]
    pie = arrays["modal:baseline"] != arrays[f"modal:{label}"]
    hits = base1 == truth[None, :]
    classes = []
    for c in range(int(truth.max()) + 1):
        sb = shifted_recall_samples(base1, truth, c)
        sc = shifted_recall_samples(comp1, truth, c)
        t, df, p = welch_mp(sc, sb)
        members = truth == c
        classes.append({
            "class": c,
            "mean_recall_base": float((base1[:, members] == c).mean()),
            "mean_recall_comp": float((comp1[:, members] == c).mean()),
            "norm_recall_diff": float(sc.mean() - sb.mean()),
            "t_stat": t, "df": df, "p_value": p,
        })
    shares = {}
    for name in ("atypical", "minority", "noisy"):
        flags = arrays[name]
        shares[name] = (float(flags.mean()), float(flags[pie].mean()))
    return {
        "pie": pie,
        "harmed": set(arrays[f"harmed:{label}"].tolist()),
        "classes": classes,
        "acc_pie": float(hits[:, pie].mean(axis=1).mean()),
        "acc_non": float(hits[:, ~pie].mean(axis=1).mean()),
        "acc_all": float(hits.mean(axis=1).mean()),
        "shares": shares,
    }


def class_audit_problems(rows: list[list[str]], want: dict) -> list[str]:
    problems = []
    by_class = {c["class"]: c for c in want["classes"]}
    got_signif = {int(r[0]) for r in rows if r[7] == "1"}
    if got_signif != want["harmed"]:
        problems.append(f"significant classes {sorted(got_signif)} != harmed {sorted(want['harmed'])}")
    if sorted(int(r[0]) for r in rows) != sorted(by_class):
        return problems + ["class audit does not list every class once"]
    diffs = [float(r[3]) for r in rows]
    if diffs != sorted(diffs):
        problems.append("class audit rows not sorted most-harmed first")
    for r in rows:
        c = by_class[int(r[0])]
        for col, key in ((1, "mean_recall_base"), (2, "mean_recall_comp"),
                         (3, "norm_recall_diff"), (6, "p_value")):
            if not close(float(r[col]), c[key], 6e-7):
                problems.append(f"class {r[0]} {key}: {r[col]} != {c[key]:.9f}")
        for col, key in ((4, "t_stat"), (5, "df")):
            if not close(float(r[col]), c[key], 6e-7 + 1e-9 * abs(c[key])):
                problems.append(f"class {r[0]} {key}: {r[col]} != {c[key]:.9f}")
        if c["class"] in want["harmed"] and not float(r[3]) < 0:
            problems.append(f"harmed class {r[0]} has non-negative recall difference")
    return problems


def pie_problems(rows, summary: dict, attr_rows, arrays: dict, label: str, want: dict) -> list[str]:
    problems = []
    expected_rows = [
        [str(i), str(t), str(b), str(c), "1" if p else "0"]
        for i, t, b, c, p in zip(arrays["ids"], arrays["truth"], arrays["modal:baseline"],
                                 arrays[f"modal:{label}"], want["pie"])
    ]
    if rows != expected_rows:
        bad = sum(a != b for a, b in zip(rows, expected_rows)) + abs(len(rows) - len(expected_rows))
        problems.append(f"pie.csv differs from the constructed PIE set in {bad} rows")
    if summary.get("pie_count") != int(want["pie"].sum()):
        problems.append(f"pie_count {summary.get('pie_count')} != {int(want['pie'].sum())}")
    if summary.get("examples") != len(expected_rows):
        problems.append(f"examples {summary.get('examples')} != {len(expected_rows)}")
    for key, value in (("baseline_topk_on_pies", want["acc_pie"]),
                       ("baseline_topk_on_non_pies", want["acc_non"]),
                       ("baseline_topk_on_all", want["acc_all"])):
        if not close(summary.get(key), value, 1e-12):
            problems.append(f"{key} {summary.get(key)} != {value}")
    ratios = summary.get("attribute_relative_representation", {})
    for name, (share_all, share_pie) in want["shares"].items():
        if not close(ratios.get(name), share_pie / share_all, 1e-12):
            problems.append(f"{name} ratio {ratios.get(name)} != {share_pie / share_all}")
    for name in ("minority", "noisy"):
        if not ratios.get(name, 0.0) > 1.2:
            problems.append(f"{name} representation {ratios.get(name)} <= 1.2")
    expected_attr = [
        [n, f"{a:.6f}", f"{p:.6f}", f"{p / a:.6f}"] for n, (a, p) in sorted(want["shares"].items())
    ]
    if attr_rows != expected_attr:
        problems.append(f"attributes.csv {attr_rows} != {expected_attr}")
    return problems


def report_problems(doc: dict, chart_rows, audit_rows, want: dict) -> list[str]:
    """report.json and chart.csv against the construction and the class-audit CSV."""
    problems = []
    if doc.get("classes") != len(want["classes"]):
        problems.append(f"report classes {doc.get('classes')} != {len(want['classes'])}")
    if doc.get("significant_classes") != len(want["harmed"]):
        problems.append(f"report significant {doc.get('significant_classes')} != {len(want['harmed'])}")
    if doc.get("pie_count") != int(want["pie"].sum()):
        problems.append(f"report pie_count {doc.get('pie_count')} != {int(want['pie'].sum())}")
    order = sorted((float(r[3]), int(r[0])) for r in audit_rows)
    expected = [(c, "1" if c in want["harmed"] else "0") for _, c in order]
    if [(int(r[0]), r[2]) for r in chart_rows] != expected:
        problems.append("chart.csv class order or significance flags differ")
    return problems


def readback_problems(log, arrays: dict, label: str) -> list[str]:
    if not (np.array_equal(log.example_ids, arrays["ids"])
            and np.array_equal(log.truth, arrays["truth"])
            and np.array_equal(log.predictions, arrays[f"pred:{label}"])):
        return [f"log {label} read back differs from the generated arrays"]
    return []


def dataset_readback_problems(ds, arrays: dict) -> list[str]:
    flags = {name: ds.attribute_mask(name) for name in ("minority", "noisy", "atypical")}
    if not (np.array_equal(ds.example_ids, arrays["ids"])
            and np.array_equal(ds.labels, arrays["truth"])
            and np.array_equal(ds.feature_matrix, arrays["features"])
            and all(np.array_equal(flags[n], arrays[n]) for n in flags)):
        return ["test split read back differs from the generated arrays"]
    return []


def audit_logs_problems(out, arrays: dict, labels) -> list[str]:
    from compresslens import read_dataset, read_prediction_log

    out = Path(out)
    problems = []
    for label in ["baseline", *labels]:
        problems += readback_problems(read_prediction_log(out / "logs" / f"{label}.csv"), arrays, label)
    problems += dataset_readback_problems(read_dataset(out / "data" / "test.csv"), arrays)
    for label in labels:
        want = audit_expected(arrays, label)
        _, rows = read_csv_rows(out / "audits" / f"class_{label}.csv")
        problems += class_audit_problems(rows, want)
        pies = out / "pies" / label
        _, pie_rows = read_csv_rows(pies / "pie.csv")
        _, attr_rows = read_csv_rows(pies / "attributes.csv")
        summary = json.loads((pies / "pie_summary.json").read_text())
        problems += pie_problems(pie_rows, summary, attr_rows, arrays, label, want)
        report = out / "reports" / label
        _, chart_rows = read_csv_rows(report / "chart.csv")
        doc = json.loads((report / "report.json").read_text())
        problems += report_problems(doc, chart_rows, rows, want)
    return [f"audit_logs: {p}" for p in problems]


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------

def read_snapshot(path) -> dict:
    doc = json.loads(Path(path).read_text())
    return {
        "weights": [np.array(w, dtype=np.float64) for w in doc["weights"]],
        "biases": [np.array(b, dtype=np.float64) for b in doc["biases"]],
        "ranges": doc.get("activation_ranges"),
        "sparsity": float(doc["compression"]["sparsity"]),
    }


def forward(snap: dict, x: np.ndarray) -> np.ndarray:
    h = x
    last = len(snap["weights"]) - 1
    for i, (w, b) in enumerate(zip(snap["weights"], snap["biases"])):
        z = h @ w + b
        if snap["ranges"]:
            z = np.clip(z, *snap["ranges"][i])
        h = z if i == last else np.maximum(z, 0.0)
    return h


def hit_rates(snaps: list[dict], x: np.ndarray, y: np.ndarray, k: int) -> tuple[float, float]:
    """Mean over models of top-1 and top-k hits; ties rank the lower label first."""
    top1 = topk = 0.0
    for snap in snaps:
        order = np.argsort(-forward(snap, x), axis=1, kind="stable")
        top1 += float((order[:, 0] == y).mean())
        topk += float((order[:, :k] == y[:, None]).any(axis=1).mean())
    return top1 / len(snaps), topk / len(snaps)


def read_test_split(data_dir) -> dict:
    data_dir = Path(data_dir)
    header, rows = read_csv_rows(data_dir / "test.csv")
    meta = json.loads((data_dir / "test.meta.json").read_text())
    first = header.index("f0")
    return {
        "ids": [int(r[0]) for r in rows],
        "labels": np.array([int(r[1]) for r in rows]),
        "features": np.array([[float(v) for v in r[first:]] for r in rows]),
        "layout": (meta["height"], meta["width"]) if "height" in meta else None,
        "num_classes": meta["num_classes"],
    }


def robustness_expected(split: dict, base: list[dict], comp: list[dict], kinds, seed: int) -> list[list]:
    """Robustness rows, unrounded, recomputed from the snapshots and the public `corrupt`."""
    from compresslens import CorruptionSpec, ExampleRecord, corrupt

    x, y = split["features"], split["labels"]
    lo, hi = x.min(axis=0), x.max(axis=0)
    k = min(5, split["num_classes"])
    examples = [
        ExampleRecord(example_id=i, features=f, true_label=int(t), layout=split["layout"])
        for i, f, t in zip(split["ids"], x, y)
    ]
    rows = []
    for kind in kinds:
        b1 = bk = c1 = ck = 0.0
        for severity in range(1, 6):
            spec = CorruptionSpec(kind=kind, severity=severity, seed=seed)
            xc = np.stack([corrupt(ex, spec, lo, hi).features for ex in examples])
            rb = hit_rates(base, xc, y, k)
            rc = hit_rates(comp, xc, y, k)
            b1, bk, c1, ck = b1 + rb[0] / 5, bk + rb[1] / 5, c1 + rc[0] / 5, ck + rc[1] / 5
        rows.append([
            kind, f"{comp[0]['sparsity']:g}", 100 * c1, 100 * ck,
            100 * (c1 - b1) / b1, 100 * (ck - bk) / bk,
        ])
    return rows


def robustness_row_problems(rows: list[list[str]], expected: list[list]) -> list[str]:
    """CSV rows (two decimals) against the unrounded recomputation."""
    if [r[:2] for r in rows] != [e[:2] for e in expected]:
        return [f"robustness kinds/sparsity {[r[:2] for r in rows]} != {[e[:2] for e in expected]}"]
    problems = []
    for r, e in zip(rows, expected):
        for col in range(2, 6):
            if not close(float(r[col]), e[col], 0.005 + 1e-9):
                problems.append(f"{r[0]} column {col}: {r[col]} != {e[col]:.4f}")
    return problems


def self_compare_problems(rows: list[list[str]], kinds) -> list[str]:
    """Comparing a population with itself must give 0.00 normalised accuracy."""
    problems = []
    if [r[0] for r in rows] != list(kinds):
        problems.append(f"self comparison kinds {[r[0] for r in rows]} != {list(kinds)}")
    for r in rows:
        if r[4] != "0.00" or r[5] != "0.00":
            problems.append(f"self comparison {r[0]}: normalised {r[4]}, {r[5]} != 0.00")
    return problems
