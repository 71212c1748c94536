"""Tests for repro.experiments.table3 — cross-dataset transfer (small scale).

scale=0.15 keeps the 6-matcher x 4-split grid tractable in CI while the
transfer-asymmetry *shape* must already hold.
"""
import pytest

from repro.experiments.table3 import (
    develop_all,
    evaluate,
    load_splits,
    run_table3,
    table3_matrix,
)


@pytest.fixture(scope="module")
def tidy(spark):
    return run_table3(spark, scale=0.15)


def _avg(tidy, dev, applied, metric="f1"):
    sub = tidy[
        (tidy.developed_on == dev)
        & (tidy.applied_to == applied)
        & (tidy.matcher == "average")
    ]
    return float(sub[metric].iloc[0])


class TestTable3Shape:
    def test_grid_complete(self, tidy):
        avg = tidy[tidy.matcher == "average"]
        assert len(avg) == 8  # 2 dev sets x 4 splits
        per = tidy[tidy.matcher != "average"]
        assert len(per) == 24  # 3 matchers x 8 cells

    def test_own_dataset_excellent(self, tidy):
        assert _avg(tidy, "X2", "X2") > 0.8
        assert _avg(tidy, "X3", "X3") > 0.8

    def test_x2_collapses_on_sparse_d3(self, tidy):
        # The paper's key observation: dense-trained solutions fail on
        # sparse data (avg f1 35.7/47.0 vs own-data 99.8).
        assert _avg(tidy, "X2", "X3") < 0.6
        assert _avg(tidy, "X2", "Z3") < 0.6

    def test_x3_transfers_to_dense_d2(self, tidy):
        # Sparse-trained solutions transfer far better (paper ~80%).
        assert _avg(tidy, "X3", "X2") > 0.6
        assert _avg(tidy, "X3", "Z2") > 0.6

    def test_transfer_asymmetry(self, tidy):
        x3_to_d2 = (_avg(tidy, "X3", "X2") + _avg(tidy, "X3", "Z2")) / 2
        x2_to_d3 = (_avg(tidy, "X2", "X3") + _avg(tidy, "X2", "Z3")) / 2
        assert x3_to_d2 > x2_to_d3 + 0.2

    def test_metrics_in_unit_range(self, tidy):
        for m in ("precision", "recall", "f1"):
            assert tidy[m].between(0, 1).all()

    def test_matrix_layout(self, tidy):
        mat = table3_matrix(tidy)
        assert list(mat.columns) == ["X2", "X3", "Z2", "Z3"]
        assert len(mat) == 6  # 2 dev sets x 3 metrics


class TestComponents:
    def test_develop_all_yields_three_per_trainset(self, spark):
        splits = load_splits(spark, scale=0.1)
        matchers = develop_all(splits)
        assert {len(v) for v in matchers.values()} == {3}
        # X3-developed matchers must renormalise (sparse training data),
        # X2-developed must penalise (dense training data).
        assert {m.null_policy for m in matchers["D3"]} == {"renormalize"}
        assert {m.null_policy for m in matchers["D2"]} == {"penalize"}

    def test_evaluate_returns_unit_metrics(self, spark):
        splits = load_splits(spark, scale=0.1)
        m = develop_all(splits)["D2"][0]
        res = evaluate([m], splits[("D2", "train")])[m.name]
        assert set(res) == {"precision", "recall", "f1"}
        assert all(0 <= v <= 1 for v in res.values())
