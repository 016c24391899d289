"""Per-class hypothesis testing: mean-shifted recall, Welch's t-test, and the audit report.

The null hypothesis for a class is that compression shifts its recall by the
same amount as the population's overall accuracy; the mean-shifted samples
(per-model class recall minus that model's top-1 accuracy) from the two
populations are compared with a two-tailed independent Welch's t-test.

The Student-t tail probability is evaluated through the regularized
incomplete beta function, computed here with a modified Lentz continued
fraction (double precision, converged to machine epsilon, comfortably inside
the 1e-12 absolute tolerance the audit requires).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .data_model import (
    AuditConfig,
    PredictionLog,
    check_class_support,
    check_same_split,
    class_recall_matrix,
    model_accuracy,
    read_table,
    write_table,
)
from .errors import (
    EmptySample,
    LengthMismatch,
    NonFiniteInput,
    NumericError,
    SampleTooSmall,
)

_FPMIN = 1e-300
_CF_TOL = 3e-16
_CF_MAX_ITER = 500


def _nonzero(value: float) -> float:
    """`value`, or _FPMIN in place of one closer to 0: a Lentz term is never divided by 0."""
    return _FPMIN if abs(value) < _FPMIN else value


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # the even, then the odd term
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise NumericError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise NumericError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # use the expansion on the side where it converges fastest
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability 2*P(T_df > |t|) of the Student-t distribution."""
    if df <= 0:
        raise NumericError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    t2 = t * t
    a = df / 2.0
    x = df / (df + t2)
    if x < (a + 1.0) / (a + 2.5):
        return min(1.0, regularized_incomplete_beta(a, 0.5, x))
    # near x = 1 the beta function would take 1 - x, which cancels (and is 0
    # once t * t < df * eps); take the complement with 1 - x formed directly
    return 1.0 - regularized_incomplete_beta(0.5, a, t2 / (df + t2))


@dataclass(frozen=True)
class WelchResult:
    t_stat: float
    df: float
    p_value: float
    mean_a: float
    mean_b: float


@dataclass(frozen=True)
class ClassAccuracySample:
    """Mean-shifted recall sample of one class under one population."""

    class_id: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).view()  # the caller's stays writeable
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ClassAuditRow:
    """One class's row of the audit CSV; the fields are its columns, in order."""

    class_id: int
    mean_recall_base: float
    mean_recall_comp: float
    norm_recall_diff: float
    t_stat: float
    df: float
    p_value: float
    significant: bool


def mean_shift(class_recalls: np.ndarray, model_accs: np.ndarray) -> np.ndarray:
    """Elementwise class recall minus overall model accuracy, per model."""
    class_recalls = np.asarray(class_recalls, dtype=np.float64)
    model_accs = np.asarray(model_accs, dtype=np.float64)
    if class_recalls.shape != model_accs.shape:
        raise LengthMismatch(
            f"lengths differ: {class_recalls.shape} vs {model_accs.shape}"
        )
    return class_recalls - model_accs


def _mean(values) -> float:
    """fsum mean; a constant's is its value (fsum([0.1] * 3) / 3 is an ulp off)."""
    if min(values) == max(values):
        return float(values[0])
    return math.fsum(values) / len(values)


def _mean_and_var(values: list[float]) -> tuple[float, float, int]:
    """Mean, and sample variance in units of 4**e.

    Squares of deviations below ~1e-154 underflow (above ~1e154, overflow),
    so when the largest deviation is beyond 2**±256, 2**e is taken from it.
    Otherwise e = 0: `x ** 2` is not always correctly rounded, and rescaling
    could move the last bit. fsum keeps the shift/scale invariance tight.
    """
    n = len(values)
    mean = _mean(values)
    devs = [v - mean for v in values]
    e = math.frexp(max(map(abs, devs)))[1]
    if abs(e) <= 256:
        e = 0
    var = math.fsum(math.ldexp(d, -e) ** 2 for d in devs) / (n - 1)
    return mean, var, e


def welch_t_test(a, b) -> WelchResult:
    """Two-tailed independent Welch's t-test with Welch-Satterthwaite df.

    Degenerate inputs where both samples have zero variance are reported
    directly: p = 1 when the means agree, p = 0 (with t = +/-inf) when they
    do not, df falling back to n_a + n_b - 2.
    """
    a = [float(v) for v in np.asarray(a, dtype=np.float64).ravel()]
    b = [float(v) for v in np.asarray(b, dtype=np.float64).ravel()]
    if len(a) < 2 or len(b) < 2:
        raise SampleTooSmall(f"need >= 2 values per sample, got {len(a)} and {len(b)}")
    if not all(map(math.isfinite, a)) or not all(map(math.isfinite, b)):
        raise NonFiniteInput("samples must be finite")

    mean_a, var_a, ea = _mean_and_var(a)
    mean_b, var_b, eb = _mean_and_var(b)
    na, nb = len(a), len(b)

    if var_a == 0.0 and var_b == 0.0:
        df = float(na + nb - 2)
        if mean_a == mean_b:
            return WelchResult(0.0, df, 1.0, mean_a, mean_b)
        t = math.copysign(math.inf, mean_a - mean_b)
        return WelchResult(t, df, 0.0, mean_a, mean_b)

    # common unit 4**e for both variance terms, from the samples that vary
    e = max(ex for ex, var in ((ea, var_a), (eb, var_b)) if var > 0.0)
    sa = math.ldexp(var_a, 2 * (ea - e)) / na
    sb = math.ldexp(var_b, 2 * (eb - e)) / nb
    se2 = sa + sb
    try:
        t = math.ldexp(mean_a - mean_b, -e) / math.sqrt(se2)
    except OverflowError:  # the mean gap is beyond float range in units of 2**e
        t = math.copysign(math.inf, mean_a - mean_b)
    # scale-invariant Welch-Satterthwaite: u = sa/(sa+sb) keeps the ratio
    # well-conditioned even when the variances are denormally small
    u = sa / se2
    df = 1.0 / (u * u / (na - 1) + (1.0 - u) * (1.0 - u) / (nb - 1))
    p = student_t_two_sided_p(t, df)
    return WelchResult(t, df, p, mean_a, mean_b)


def normalized_recall_difference(
    base: ClassAccuracySample, comp: ClassAccuracySample
) -> float:
    """Mean of the compressed shifted sample minus mean of the baseline one.

    Controls for the top-line accuracy shift: if both populations move a
    class exactly as much as their overall accuracy, the difference is 0.
    """
    if base.values.size == 0 or comp.values.size == 0:
        raise EmptySample("both samples must be non-empty")
    return _mean(comp.values) - _mean(base.values)


def audit_classes(
    base_log: PredictionLog,
    comp_log: PredictionLog,
    config: AuditConfig = AuditConfig(),
) -> list[ClassAuditRow]:
    """Run the per-class Welch audit of a compressed population against a baseline.

    Returns one row per class, sorted by normalized recall difference
    ascending (most harmed classes first). Significance uses p <= alpha,
    optionally Bonferroni-corrected across classes.
    """
    check_same_split(base_log, comp_log.example_ids, comp_log.truth, "logs")
    # with every label below the larger count in the truth, neither log's
    # count (at least its largest label + 1) can fall short of it; the per-log
    # checks in `class_recall_matrix` take each log's own count, so they would
    # name only the classes missing below the base log's
    check_class_support(base_log.truth, max(base_log.num_classes, comp_log.num_classes), "test")
    if base_log.num_models < 2 or comp_log.num_models < 2:
        raise SampleTooSmall("audit needs K >= 2 models per population")

    base_recalls = class_recall_matrix(base_log)
    comp_recalls = class_recall_matrix(comp_log)
    base_acc = model_accuracy(base_log, 1)
    comp_acc = model_accuracy(comp_log, 1)

    num_classes = base_log.num_classes
    alpha = config.alpha / num_classes if config.bonferroni else config.alpha

    rows = []
    for c in range(num_classes):
        shifted_base = mean_shift(base_recalls[c], base_acc)
        shifted_comp = mean_shift(comp_recalls[c], comp_acc)
        welch = welch_t_test(shifted_comp, shifted_base)
        rows.append(
            ClassAuditRow(
                class_id=c,
                mean_recall_base=float(base_recalls[c].mean()),
                mean_recall_comp=float(comp_recalls[c].mean()),
                # `normalized_recall_difference`, from the means the test took
                norm_recall_diff=welch.mean_a - welch.mean_b,
                t_stat=welch.t_stat,
                df=welch.df,
                p_value=welch.p_value,
                significant=welch.p_value <= alpha,
            )
        )
    rows.sort(key=lambda r: (r.norm_recall_diff, r.class_id))
    return rows


AUDIT_HEADER = [
    "class",
    "mean_recall_base",
    "mean_recall_comp",
    "norm_recall_diff",
    "t_stat",
    "df",
    "p_value",
    "significant",
]
AUDIT_COLUMNS = list(zip(AUDIT_HEADER, ["int"] + ["float"] * 6 + ["flag"]))


def write_audit_csv(rows: list[ClassAuditRow], path) -> None:
    cells = [cell for r in rows for cell in astuple(r)]
    write_table(path, AUDIT_HEADER, "%d" + ",%.6f" * 6 + ",%d", [cells])


def read_audit_csv(path) -> dict[str, np.ndarray]:
    """The columns of a `write_audit_csv` CSV, keyed by `AUDIT_HEADER`; `significant` is bool."""
    return read_table(path, AUDIT_COLUMNS, "audit")
