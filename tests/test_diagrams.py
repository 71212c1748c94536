"""Tests for repro.core.diagrams — metric/metric diagrams and Spark sweep."""
import pandas as pd
import pytest

from repro.core.diagrams import (
    best_threshold,
    diagram_points,
    metric_metric_diagram,
    spark_pair_sweep,
)
from repro.core.incremental import Confusion


class TestDiagramPoints:
    def test_columns_and_length(self):
        series = [Confusion(float("inf"), 0, 0, 2, 4), Confusion(0.5, 2, 1, 0, 3)]
        out = diagram_points(series, "recall", "precision")
        assert list(out.columns) == ["threshold", "recall", "precision"]
        assert len(out) == 2

    def test_values(self):
        series = [Confusion(0.5, 2, 2, 2, 4)]
        out = diagram_points(series, "recall", "precision")
        assert out.loc[0, "precision"] == pytest.approx(0.5)
        assert out.loc[0, "recall"] == pytest.approx(0.5)


class TestMetricMetricDiagram:
    def test_precision_recall_curve_shape(self):
        # Good matches first, bad matches later: precision decays as the
        # threshold drops, recall grows.
        truth = [0, 0, 1, 1, 2, 2, 3, 3]
        matches = [
            (0.9, 0, 1),  # true
            (0.8, 2, 3),  # true
            (0.4, 0, 2),  # false
            (0.3, 4, 6),  # false
        ]
        d = metric_metric_diagram(8, truth, matches, s=5)
        assert d["recall"].is_monotonic_increasing
        assert d.iloc[1]["precision"] == pytest.approx(1.0)
        assert d.iloc[-1]["precision"] < 1.0

    def test_f1_against_threshold(self):
        truth = [0, 0, 1, 1]
        matches = [(0.9, 0, 1), (0.2, 0, 2)]
        d = metric_metric_diagram(4, truth, matches, s=3, x_metric="recall",
                                  y_metric="f1")
        assert "f1" in d.columns


class TestBestThreshold:
    def test_picks_max(self):
        d = pd.DataFrame(
            {"threshold": [0.9, 0.5, 0.1], "f1": [0.4, 0.8, 0.6]}
        )
        thr, val = best_threshold(d, "f1")
        assert (thr, val) == (0.5, 0.8)

    def test_no_phantom_point_at_ties(self):
        # The two 0.9 matches enter together: no threshold admits only the
        # first, so no row may show its precision of 1.0.
        matches = [(0.9, 0, 1), (0.9, 1, 2), (0.5, 2, 3)]
        d = metric_metric_diagram(4, [0, 0, 1, 1], matches, s=4)
        thr, val = best_threshold(d, "precision")
        assert (thr, val) == (0.9, pytest.approx(1 / 3))


class TestSparkPairSweep:
    @pytest.fixture
    def scored(self, spark):
        rows = [
            ("a", "b", 0.95),  # true
            ("c", "d", 0.90),  # true
            ("a", "c", 0.60),  # false
            ("e", "f", 0.40),  # true
            ("b", "d", 0.20),  # false
        ]
        return spark.createDataFrame(
            pd.DataFrame(rows, columns=["id1", "id2", "similarity"])
        )

    @pytest.fixture
    def gold(self, spark):
        rows = [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]
        return spark.createDataFrame(pd.DataFrame(rows, columns=["id1", "id2"]))

    def test_empty_gold_has_zero_recall(self, spark, scored):
        # recall is tp / |G|: with |G| = 0 it is 0, as in metrics.recall,
        # not a division by zero.
        gold = spark.createDataFrame([], "id1 string, id2 string")
        rows = spark_pair_sweep(scored, gold).collect()
        assert len(rows) == 5
        assert all(r["recall"] == 0.0 and r["f1"] == 0.0 for r in rows)

    def test_counts_per_threshold(self, scored, gold):
        out = {r["similarity"]: r for r in spark_pair_sweep(scored, gold).collect()}
        assert out[0.95]["tp"] == 1 and out[0.95]["predicted"] == 1
        assert out[0.60]["tp"] == 2 and out[0.60]["predicted"] == 3
        assert out[0.20]["tp"] == 3 and out[0.20]["predicted"] == 5

    def test_metric_values(self, scored, gold):
        rows = {r["similarity"]: r for r in spark_pair_sweep(scored, gold).collect()}
        assert rows[0.60]["precision"] == pytest.approx(2 / 3)
        assert rows[0.60]["recall"] == pytest.approx(2 / 4)
        p, r = 2 / 3, 0.5
        assert rows[0.60]["f1"] == pytest.approx(2 * p * r / (p + r))

    def test_recall_monotone_with_descending_threshold(self, scored, gold):
        recalls = [
            r["recall"] for r in spark_pair_sweep(scored, gold).collect()
        ]
        assert recalls == sorted(recalls)

    def test_ties_use_full_cumulative_count(self, spark, gold):
        rows = [("a", "b", 0.5), ("a", "c", 0.5), ("c", "d", 0.5)]
        scored = spark.createDataFrame(
            pd.DataFrame(rows, columns=["id1", "id2", "similarity"])
        )
        out = spark_pair_sweep(scored, gold).collect()
        assert len(out) == 1
        assert out[0]["predicted"] == 3 and out[0]["tp"] == 2

    def test_matches_duckdb_cumulative(self, spark, scored, gold):
        from repro.oracle import assert_equivalent

        out = spark_pair_sweep(scored, gold).select("similarity", "tp", "predicted")
        assert_equivalent(
            out,
            """
            WITH flagged AS (
              SELECT s.similarity,
                     CASE WHEN g.id1 IS NULL THEN 0 ELSE 1 END AS is_true
              FROM scored s LEFT JOIN gold g
                ON s.id1 = g.id1 AND s.id2 = g.id2
            )
            SELECT a.similarity,
                   SUM(b.is_true) AS tp,
                   COUNT(*) AS predicted
            FROM flagged a JOIN flagged b ON b.similarity >= a.similarity
            GROUP BY a.similarity
            """,
            scored=scored,
            gold=gold,
        )
