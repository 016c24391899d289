"""Tests for the Welch audit pipeline against the mpmath oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compresslens.data_model import (
    AuditConfig,
    CompressionSpec,
    PredictionLog,
    class_recall_matrix,
    model_accuracy,
)
from compresslens.errors import (
    EmptySample,
    ExampleSetMismatch,
    LengthMismatch,
    MissingClassSupport,
    NonFiniteInput,
    NumericError,
    SampleTooSmall,
)
from compresslens.stats_audit import (
    ClassAccuracySample,
    _beta_continued_fraction,
    audit_classes,
    mean_shift,
    normalized_recall_difference,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    welch_t_test,
    write_audit_csv,
)

from oracles import (
    reference_beta_continued_fraction,
    student_t_tail_by_quadrature,
    welch_oracle,
)

finite_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
# multiples of 2**-20 in [-1, 1]: sums of two are exact in float64
dyadic_floats = st.integers(-(2**20), 2**20).map(lambda i: i / 2**20)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        for a, b, x in [(2.0, 0.5, 0.3), (5.0, 5.0, 0.72), (0.5, 9.0, 0.01)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_against_quadrature(self):
        for t, df in [(0.5, 3.0), (2.1, 7.5), (12.0, 4.0), (0.01, 29.0)]:
            expected = student_t_tail_by_quadrature(t, df)
            assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 500.0, exclude_min=True),
        st.floats(0.0, 500.0, exclude_min=True),
        st.floats(0.0, 1.0),
    )
    def test_continued_fraction_matches_the_unrolled_one(self, a, b, x):
        """Bit for bit, and NumericError where the unrolled one raises it."""
        outcomes = []
        for fraction in (_beta_continued_fraction, reference_beta_continued_fraction):
            try:
                outcomes.append(fraction(a, b, x).hex())
            except NumericError:
                outcomes.append("NumericError")
        assert outcomes[0] == outcomes[1]

    def test_against_scipy(self):
        # a second, independent implementation next to the quadrature oracle;
        # scipy is only needed by this test. Tiny |t| with large df is where
        # 1 - x cancels (t=1e-6, df=5e4 once gave p=1.0); rel 1e-9 leaves room
        # for the lgamma differences of the prefactor (up to ~7e-10 near df=8e4)
        scipy_stats = pytest.importorskip("scipy.stats")
        ts = (0.0, 1e-6, 0.3, 1.0, 1.96, 2.5, 4.0, 8.0, 15.0, 40.0)
        # integers and fractional Welch degrees of freedom
        dfs = (0.7, 1.0, 1.5, 2.0, 3.3, 7.25, 9.81, 30.0, 117.6, 1000.0, 5e4)
        for df in dfs:
            for t in ts + tuple(-t for t in ts):
                expected = 2.0 * scipy_stats.t.sf(abs(t), df)
                got = student_t_two_sided_p(t, df)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-300), (t, df)


class TestWelch:
    def test_frozen_hand_case(self):
        # oracle values computed with mpmath at 50 digits
        r = welch_t_test([0.80, 0.82, 0.81], [0.70, 0.72, 0.71])
        assert r.t_stat == pytest.approx(12.247448713915890, abs=1e-12)
        assert r.df == pytest.approx(4.0, abs=1e-12)
        assert r.p_value == pytest.approx(2.552167494419267e-04, abs=1e-12)

    def test_identical_samples(self):
        r = welch_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert r.t_stat == 0.0
        assert r.p_value == 1.0

    def test_antisymmetry(self):
        a = [0.5, 0.52, 0.47, 0.55]
        b = [0.42, 0.44, 0.46]
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert fwd.t_stat == pytest.approx(-rev.t_stat, abs=1e-14)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-14)
        assert fwd.df == pytest.approx(rev.df, abs=1e-12)

    def test_degenerate_equal_means(self):
        r = welch_t_test([0.5, 0.5], [0.5, 0.5])
        assert r.p_value == 1.0
        assert r.t_stat == 0.0
        assert r.df == 2.0

    def test_constant_samples_have_no_variance(self):
        # fsum([0.1] * 3) / 3 is 0.10000000000000002: the mean must still be 0.1
        r = welch_t_test([0.1] * 3, [0.1] * 2)
        assert (r.t_stat, r.df, r.p_value, r.mean_a) == (0.0, 3.0, 1.0, 0.1)
        r = welch_t_test([0.0, 0.0], [0.1] * 3)
        assert (r.t_stat, r.p_value, r.mean_b) == (-math.inf, 0.0, 0.1)
        a, b = (ClassAccuracySample(0, np.array([0.1] * n)) for n in (3, 2))
        assert normalized_recall_difference(a, b) == 0.0

    def test_degenerate_distinct_means(self):
        r = welch_t_test([0.5, 0.5], [0.4, 0.4])
        assert r.p_value == 0.0
        assert r.t_stat == math.inf
        assert welch_t_test([0.4, 0.4], [0.5, 0.5]).t_stat == -math.inf

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            welch_t_test([0.5], [0.4, 0.3])

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            welch_t_test([0.5, float("nan")], [0.4, 0.3])

    def test_tiny_deviation_does_not_underflow(self):
        # squaring the 4.7e-176 deviations directly underflows to 0
        r = welch_t_test([0.0, 0.0], [0.0, 9.37e-176])
        assert r.t_stat == pytest.approx(-1.0, rel=1e-12)
        assert r.df == pytest.approx(1.0, rel=1e-12)
        assert r.p_value == pytest.approx(0.5, rel=1e-12)

    # the shift must be exact for the property to hold in floating point:
    # with b = [0, 1e-20] and c = 1, x + c rounds and t goes from -1 to 0
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(dyadic_floats, min_size=2, max_size=20),
        b=st.lists(dyadic_floats, min_size=2, max_size=20),
        c=dyadic_floats,
    )
    def test_shift_invariance(self, a, b, c):
        base = welch_t_test(a, b)
        shifted = welch_t_test([x + c for x in a], [x + c for x in b])
        assert shifted.t_stat == pytest.approx(base.t_stat, abs=1e-9, rel=1e-9)
        assert shifted.df == pytest.approx(base.df, abs=1e-9, rel=1e-9)
        assert shifted.p_value == pytest.approx(base.p_value, abs=1e-12, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(finite_floats, min_size=2, max_size=20),
        b=st.lists(finite_floats, min_size=2, max_size=20),
        lam=st.floats(0.1, 10.0, allow_nan=False),
    )
    def test_positive_scale_invariance(self, a, b, lam):
        # the property is about the same data, scaled: a subnormal that rounds
        # when scaled (5e-324 * 0.5 is 0.0) changes the data, not its scale
        assume(all(v * lam / lam == v for v in a + b))
        base = welch_t_test(a, b)
        scaled = welch_t_test([x * lam for x in a], [x * lam for x in b])
        assert scaled.t_stat == pytest.approx(base.t_stat, abs=1e-9, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-12, rel=1e-9)

    def test_p_monotone_in_t_at_fixed_df(self):
        for df in (1.5, 4.0, 29.0):
            ps = [student_t_two_sided_p(t, df) for t in np.linspace(0.0, 20.0, 101)]
            assert all(x >= y for x, y in zip(ps, ps[1:]))
            assert all(0.0 <= p <= 1.0 for p in ps)

    def test_matches_oracle_on_random_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            na, nb = rng.integers(2, 20, 2)
            a = rng.normal(0, 1, na)
            b = rng.normal(rng.normal(), rng.uniform(0.5, 2), nb)
            mine = welch_t_test(a, b)
            t, df, p = welch_oracle(a, b)
            assert mine.t_stat == pytest.approx(t, abs=1e-12, rel=1e-12)
            assert mine.df == pytest.approx(df, abs=1e-12, rel=1e-12)
            assert mine.p_value == pytest.approx(p, abs=1e-9)


class TestMeanShift:
    def test_equal_gives_zero(self):
        np.testing.assert_array_equal(
            mean_shift(np.array([0.7, 0.7]), np.array([0.7, 0.7])), [0.0, 0.0]
        )

    def test_elementwise(self):
        np.testing.assert_allclose(
            mean_shift(np.array([0.9, 0.8]), np.array([0.7, 0.7])), [0.2, 0.1]
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mean_shift(np.zeros(3), np.zeros(2))


class TestClassAccuracySample:
    def test_caller_array_stays_writeable(self):
        a = np.array([0.1, 0.2])
        s = ClassAccuracySample(0, a)
        assert a.flags.writeable and not s.values.flags.writeable


class TestNormalizedRecallDifference:
    def test_identical_populations(self):
        s = ClassAccuracySample(0, np.array([0.1, 0.2]))
        assert normalized_recall_difference(s, s) == 0.0

    def test_hand_case(self):
        # base: class [0.9,0.9] model [0.8,0.8]; comp: class [0.6,0.6] model [0.78,0.78]
        base = ClassAccuracySample(0, mean_shift(np.array([0.9, 0.9]), np.array([0.8, 0.8])))
        comp = ClassAccuracySample(0, mean_shift(np.array([0.6, 0.6]), np.array([0.78, 0.78])))
        assert normalized_recall_difference(base, comp) == pytest.approx(-0.28, abs=1e-15)

    def test_topline_shift_is_controlled(self):
        base = ClassAccuracySample(0, np.array([0.05, 0.05]))
        comp = ClassAccuracySample(0, np.array([0.05, 0.05]))
        assert normalized_recall_difference(base, comp) == 0.0

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            normalized_recall_difference(
                ClassAccuracySample(0, np.array([])), ClassAccuracySample(0, np.array([0.1]))
            )


def _log_from_rank1(preds, truth, population_id="p"):
    preds = np.asarray(preds, dtype=np.int64)[:, :, np.newaxis]
    return PredictionLog(
        population_id=population_id,
        compression=CompressionSpec("none"),
        example_ids=np.arange(len(truth)),
        truth=np.asarray(truth, dtype=np.int64),
        predictions=preds,
    )


class TestAuditClasses:
    def test_self_audit_is_null(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 3, 40)
        truth[:3] = [0, 1, 2]
        preds = [np.where(rng.random(40) < 0.8, truth, (truth + 1) % 3) for _ in range(4)]
        log = _log_from_rank1(preds, truth)
        rows = audit_classes(log, log)
        assert all(r.p_value == 1.0 for r in rows)
        assert all(not r.significant for r in rows)
        assert all(r.norm_recall_diff == 0.0 for r in rows)

    def test_shifted_class_flagged(self):
        rng = np.random.default_rng(7)
        N = 300
        truth = rng.integers(0, 3, N)
        truth[:3] = [0, 1, 2]

        def population(drop_cls0):
            preds = []
            for _ in range(6):
                correct = rng.random(N) < (0.9 - 0.02 * rng.random())
                if drop_cls0:
                    correct &= ~((truth == 0) & (rng.random(N) < 0.35))
                preds.append(np.where(correct, truth, (truth + 1) % 3))
            return preds

        base = _log_from_rank1(population(False), truth, "base")
        comp = _log_from_rank1(population(True), truth, "comp")
        rows = audit_classes(base, comp)
        flagged = {r.class_id: r for r in rows}
        assert flagged[0].significant
        assert flagged[0].norm_recall_diff < -0.1
        # report sorted most harmed first
        assert rows[0].class_id == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_diff_is_normalized_recall_difference(self, seed):
        rng = np.random.default_rng(seed)
        truth = np.concatenate([np.arange(5), rng.integers(0, 5, 45)])
        base, comp = (
            _log_from_rank1(rng.integers(0, 5, (k, 50)), truth) for k in (4, 7)
        )
        rows = audit_classes(base, comp)
        samples = [
            [ClassAccuracySample(c, mean_shift(class_recall_matrix(log)[c],
                                               model_accuracy(log, 1)))
             for log in (base, comp)]
            for c in range(5)
        ]
        for r in rows:  # bit for bit
            assert r.norm_recall_diff == normalized_recall_difference(*samples[r.class_id])

    def test_example_set_mismatch(self):
        a = _log_from_rank1([[0, 1]], [0, 1])
        b = PredictionLog(
            population_id="q",
            compression=CompressionSpec("none"),
            example_ids=np.array([5, 6]),
            truth=np.array([0, 1]),
            predictions=np.array([[0, 1]])[:, :, np.newaxis],
        )
        with pytest.raises(ExampleSetMismatch):
            audit_classes(a, b)

    @pytest.mark.parametrize("base, comp, error, message", [
        # the same ids and true labels, but a class count of 3 on one side
        (_log_from_rank1([[0, 1], [1, 0]], [0, 1]),
         PredictionLog("q", CompressionSpec("none"), [0, 1], [0, 1], [[[0], [1]], [[1], [0]]],
                       explicit_num_classes=3),
         MissingClassSupport, "test split has 2 examples, too few for 3 classes"),
        (_log_from_rank1([[0, 1], [1, 0]], [0, 1]), _log_from_rank1([[0, 1]], [0, 1]),
         SampleTooSmall, "audit needs K >= 2 models per population"),
        (_log_from_rank1([[0, 1]], [0, 1]), _log_from_rank1([[0, 1], [1, 0]], [0, 1]),
         SampleTooSmall, "audit needs K >= 2 models per population"),
    ], ids=["class counts", "one compressed model", "one baseline model"])
    def test_refused(self, base, comp, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            audit_classes(base, comp)

    def test_row_order_invariance(self, tmp_path):
        rng = np.random.default_rng(9)
        truth = rng.integers(0, 3, 30)
        truth[:3] = [0, 1, 2]
        preds = [rng.integers(0, 3, 30) for _ in range(3)]
        ids = rng.permutation(100)[:30]
        fwd = PredictionLog(
            population_id="p",
            compression=CompressionSpec("none"),
            example_ids=ids,
            truth=truth,
            predictions=np.asarray(preds)[:, :, np.newaxis],
        )
        rev = PredictionLog(
            population_id="p",
            compression=CompressionSpec("none"),
            example_ids=ids[::-1].copy(),
            truth=truth[::-1].copy(),
            predictions=np.asarray(preds)[:, ::-1, np.newaxis].copy(),
        )
        base = _log_from_rank1([truth[np.argsort(ids)]] * 2, truth[np.argsort(ids)])
        base = PredictionLog(
            population_id="b",
            compression=CompressionSpec("none"),
            example_ids=np.sort(ids),
            truth=truth[np.argsort(ids)],
            predictions=np.asarray([truth[np.argsort(ids)]] * 2)[:, :, np.newaxis],
        )
        rows_fwd = audit_classes(base, fwd)
        rows_rev = audit_classes(base, rev)
        for x, y in zip(rows_fwd, rows_rev):
            assert x == y

    def test_h0_rejection_rate_calibrated(self):
        rng = np.random.default_rng(2024)
        trials = 2000
        rejections = 0
        for _ in range(trials):
            a = rng.normal(0.0, 0.05, 10)
            b = rng.normal(0.0, 0.05, 10)
            if welch_t_test(a, b).p_value <= 0.05:
                rejections += 1
        assert 0.03 <= rejections / trials <= 0.07

    def test_bonferroni_flag(self):
        cfg = AuditConfig(alpha=0.05, bonferroni=True)
        assert cfg.bonferroni

    def test_csv_formatting(self, tmp_path):
        rows = audit_classes(
            _log_from_rank1([[0, 1], [0, 1]], [0, 1]),
            _log_from_rank1([[0, 1], [0, 1]], [0, 1]),
        )
        write_audit_csv(rows, tmp_path / "audit.csv")
        text = (tmp_path / "audit.csv").read_text()
        header, *lines = text.strip().split("\n")
        assert header == (
            "class,mean_recall_base,mean_recall_comp,norm_recall_diff,"
            "t_stat,df,p_value,significant"
        )
        assert len(lines) == 2
        assert lines[0].endswith(",0")
