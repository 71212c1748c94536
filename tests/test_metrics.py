"""Tests for repro.core.metrics — pair-based metrics (pure arithmetic)."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import metrics as M
from repro.core.metrics import ConfusionCounts

C = ConfusionCounts

counts = st.builds(
    C,
    tp=st.integers(0, 10_000),
    fp=st.integers(0, 10_000),
    fn=st.integers(0, 10_000),
    tn=st.integers(0, 10_000),
)


class TestBasics:
    def test_precision(self):
        assert M.precision(C(tp=8, fp=2, fn=0, tn=0)) == pytest.approx(0.8)

    def test_recall(self):
        assert M.recall(C(tp=6, fp=0, fn=4, tn=0)) == pytest.approx(0.6)

    def test_f1_harmonic_mean(self):
        c = C(tp=6, fp=4, fn=4, tn=0)  # p = r = 0.6
        assert M.f1(c) == pytest.approx(0.6)

    def test_f1_known_value(self):
        c = C(tp=9, fp=1, fn=9, tn=0)  # p=0.9, r=0.5
        assert M.f1(c) == pytest.approx(2 * 0.9 * 0.5 / 1.4)

    def test_perfect_scores(self):
        c = C(tp=5, fp=0, fn=0, tn=5)
        for name in ("precision", "recall", "f1", "f_star", "accuracy",
                     "balanced_accuracy", "fowlkes_mallows", "mcc"):
            assert M.ALL_METRICS[name](c) == pytest.approx(1.0), name

    def test_empty_prediction_zero_not_nan(self):
        c = C(tp=0, fp=0, fn=5, tn=5)
        assert M.precision(c) == 0.0
        assert M.f1(c) == 0.0
        assert M.fowlkes_mallows(c) == 0.0

    def test_mcc_zero_denominator(self):
        assert M.matthews_corrcoef(C(tp=0, fp=0, fn=0, tn=10)) == 0.0


class TestPaperSpecificMetrics:
    def test_f_star_identity_with_f1(self):
        c = C(tp=30, fp=10, fn=20, tn=100)
        f1 = M.f1(c)
        assert M.f_star(c) == pytest.approx(f1 / (2 - f1))

    def test_accuracy_misleading_under_imbalance(self):
        # Paper §3.2.1: all-non-duplicate classification can score near 1.
        c = C(tp=0, fp=0, fn=10, tn=100_000)
        assert M.accuracy(c) > 0.99
        assert M.f1(c) == 0.0

    def test_reduction_ratio(self):
        c = C(tp=50, fp=50, fn=0, tn=900)  # predicted 100 of 1000
        assert M.reduction_ratio(c) == pytest.approx(0.9)

    def test_fowlkes_mallows_geometric_mean(self):
        c = C(tp=4, fp=12, fn=0, tn=0)  # p=0.25, r=1
        assert M.fowlkes_mallows(c) == pytest.approx(0.5)

    def test_mcc_inverse_classifier_negative(self):
        assert M.matthews_corrcoef(C(tp=0, fp=10, fn=10, tn=0)) == pytest.approx(-1.0)

    def test_balanced_accuracy(self):
        c = C(tp=5, fp=5, fn=5, tn=15)  # recall 0.5, specificity 0.75
        assert M.balanced_accuracy(c) == pytest.approx(0.625)


class TestProperties:
    @given(counts)
    def test_all_in_range(self, c):
        for name, fn in M.ALL_METRICS.items():
            v = fn(c)
            assert not math.isnan(v), name
            if name == "mcc":
                assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9
            else:
                assert -1e-9 <= v <= 1.0 + 1e-9, name

    @given(counts)
    def test_f1_between_p_and_r(self, c):
        p, r, f = M.precision(c), M.recall(c), M.f1(c)
        assert min(p, r) - 1e-9 <= f <= max(p, r) + 1e-9

    @given(counts)
    def test_fstar_never_above_f1(self, c):
        assert M.f_star(c) <= M.f1(c) + 1e-9

    @given(counts)
    def test_fm_between_p_and_r(self, c):
        p, r = M.precision(c), M.recall(c)
        assert min(p, r) - 1e-9 <= M.fowlkes_mallows(c) <= max(p, r) + 1e-9

    def test_all_metrics_dict_complete(self):
        c = C(tp=1, fp=1, fn=1, tn=1)
        out = M.all_metrics(c)
        assert set(out) == set(M.ALL_METRICS)
        assert all(isinstance(v, float) for v in out.values())
