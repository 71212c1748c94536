"""Tests for repro.core.diagrams — metric/metric diagrams and Spark sweep."""
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.diagrams import (
    best_threshold,
    diagram_points,
    metric_metric_diagram,
    pair_sweeps,
    spark_pair_sweep,
)
from repro.core.incremental import Confusion


class TestDiagramPoints:
    def test_columns_and_length(self):
        series = [
            Confusion(threshold=float("inf"), tp=0, fp=0, fn=2, tn=4),
            Confusion(threshold=0.5, tp=2, fp=1, fn=0, tn=3),
        ]
        out = diagram_points(series, "recall", "precision")
        assert list(out.columns) == ["threshold", "recall", "precision"]
        assert len(out) == 2

    def test_values(self):
        series = [Confusion(threshold=0.5, tp=2, fp=2, fn=2, tn=4)]
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

    def test_null_similarity_is_no_threshold(self, spark):
        # A pair without a score is in no experiment "similarity >= s". It
        # must not come back as a NULL-similarity row that counts every
        # pair (predicted 3, recall 1, f1 0.8) and so wins the f1 maximum.
        scored = spark.createDataFrame(
            [("a", "b", 0.9), ("c", "d", None), ("e", "f", 0.4)],
            "id1 string, id2 string, similarity double",
        )
        gold = spark.createDataFrame([("a", "b"), ("c", "d")], "id1 string, id2 string")
        out = spark_pair_sweep(scored, gold).toPandas()
        assert list(out["similarity"]) == [0.9, 0.4]
        assert list(out["predicted"]) == [1, 2]
        assert out.loc[out["f1"].idxmax(), "similarity"] == 0.9

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


PAIRS = [(f"r{i}", f"r{j}") for i in range(4) for j in range(i + 1, 4)]
# Few distinct scores, so ties within and across results are common.
results = st.dictionaries(st.sampled_from(PAIRS), st.sampled_from([0.2, 0.5, 0.9]))


def _reference_sweep(result: dict, gold: set) -> list[tuple]:
    """(similarity, tp, predicted, precision, recall, f1) by cumulative counts."""
    rows = []
    for s in sorted(set(result.values()), reverse=True):
        found = {p for p, v in result.items() if v >= s}
        tp, n = len(found & gold), len(found)
        p, r = tp / n, tp / len(gold) if gold else 0.0
        rows.append((s, tp, n, p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0))
    return rows


class TestPairSweeps:
    @settings(max_examples=6, deadline=None)
    @given(
        gold=st.sets(st.sampled_from(PAIRS)),
        res=st.lists(results, min_size=2, max_size=4),
    )
    @example(gold=set(), res=[{PAIRS[0]: 0.5}, {PAIRS[1]: 0.9}])
    @example(gold=set(PAIRS[:2]), res=[{}, {PAIRS[0]: 0.5, PAIRS[2]: 0.5}])
    def test_matches_cumulative_reference(self, spark, gold, res):
        # One row per pair of gold or of any result (gold-only rows as in a
        # full outer join); a result's score is NULL where the pair is not
        # in it.
        names = [f"e{i}" for i in range(len(res))]
        rows = [
            (a, b, True if (a, b) in gold else None, *[r.get((a, b)) for r in res])
            for a, b in sorted(gold.union(*res))
        ]
        schema = ", ".join(
            ["id1 string", "id2 string", "gold boolean"] + [f"{n} double" for n in names]
        )
        pairs = spark.createDataFrame(rows, schema)
        scores = {n: F.col(n) for n in names}
        got = pair_sweeps(pairs, scores, F.col("gold"), len(gold)).collect()
        assert [r["solution"] for r in got] == sorted(
            n for n, r in zip(names, res) for _ in set(r.values())
        )
        gold_df = spark.createDataFrame(sorted(gold), "id1 string, id2 string")
        for n, r in zip(names, res):
            mine = [tuple(row)[1:] for row in got if row["solution"] == n]
            assert mine == pytest.approx(_reference_sweep(r, gold))
            alone = pairs.filter(F.col(n).isNotNull()).select(
                "id1", "id2", F.col(n).alias("similarity")
            )
            sweep = spark_pair_sweep(alone, gold_df, gold_size=len(gold))
            assert [tuple(row) for row in sweep.collect()] == mine
