"""Tests for the provided repro.oracle DuckDB equality checker."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def frost_tables(spark):
    """Deterministic Frost-shaped inputs: a clustering ``(rid, cluster)`` of
    2 000 records into 500 clusters, and about 6 000 canonical scored pairs
    ``(id1, id2, similarity)`` over those records."""
    g = np.random.default_rng(0)
    rids = np.array([f"r{i:04d}" for i in range(2000)])
    clustering = pd.DataFrame({"rid": rids, "cluster": g.integers(0, 500, len(rids))})
    ends = np.sort(g.integers(0, len(rids), (6100, 2)), axis=1)
    ends = np.unique(ends[ends[:, 0] != ends[:, 1]], axis=0)
    pairs = pd.DataFrame(
        {
            "id1": rids[ends[:, 0]],
            "id2": rids[ends[:, 1]],
            "similarity": g.random(len(ends)).round(3),
        }
    )
    return spark.createDataFrame(clustering), spark.createDataFrame(pairs)


class TestAssertEquivalent:
    def test_accepts_matching_aggregate(self, frost_tables):
        _, pairs = frost_tables
        got = pairs.groupBy("id1").agg(
            F.sum("similarity").alias("total"), F.count("*").alias("cnt")
        )
        assert_equivalent(
            got,
            """
            SELECT id1, sum(similarity) AS total, count(*) AS cnt
            FROM pairs GROUP BY id1
            """,
            pairs=pairs,
        )

    def test_accepts_pandas_input_tables(self, spark):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        got = spark.createDataFrame(pdf).groupBy("k").agg(F.sum("v").alias("s"))
        assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)

    def test_rejects_wrong_result(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        got = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "s": [99.0, 2.0]}))
        with pytest.raises(AssertionError):
            assert_equivalent(got, "SELECT k, v AS s FROM t", t=pdf)

    def test_rejects_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1]})
        got = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, "SELECT k FROM t", t=pdf)

    def test_column_order_irrelevant(self, spark):
        pdf = pd.DataFrame({"a": [1], "b": [2]})
        got = spark.createDataFrame(pd.DataFrame({"b": [2], "a": [1]}))[["b", "a"]]
        assert_equivalent(got, "SELECT a, b FROM t", t=pdf)

    def test_join_equivalence_on_synth_tables(self, frost_tables):
        clustering, pairs = frost_tables

        def end(k: int):
            return clustering.select(
                F.col("rid").alias(f"id{k}"), F.col("cluster").alias(f"c{k}")
            )

        got = (
            pairs.join(end(1), "id1")
            .join(end(2), "id2")
            .groupBy("c1")
            .agg(
                F.count("*").alias("cnt"),
                F.count_if(F.col("c1") == F.col("c2")).alias("intra"),
            )
        )
        assert_equivalent(
            got,
            """
            SELECT x.cluster AS c1, count(*) AS cnt,
                   count(*) FILTER (WHERE x.cluster = y.cluster) AS intra
            FROM pairs p JOIN clustering x ON p.id1 = x.rid
                         JOIN clustering y ON p.id2 = y.rid
            GROUP BY x.cluster
            """,
            pairs=pairs,
            clustering=clustering,
        )
