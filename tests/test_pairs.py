"""Tests for repro.core.pairs — canonical pair sets and conversions."""
import pandas as pd
import pytest

from repro.core import pairs as P
from repro.core.clustering import connected_components
from repro.oracle import assert_equivalent


def _pairs_df(spark, rows, cols=("id1", "id2")):
    return spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)))


class TestCanonicalize:
    def test_orders_ids(self, spark):
        df = _pairs_df(spark, [("b", "a")])
        assert df.transform(P.canonicalize).collect()[0].asDict() == {
            "id1": "a",
            "id2": "b",
        }

    def test_drops_self_pairs(self, spark):
        df = _pairs_df(spark, [("a", "a"), ("a", "b")])
        assert P.canonicalize(df).count() == 1

    def test_dedups_mirrored_pairs(self, spark):
        df = _pairs_df(spark, [("a", "b"), ("b", "a"), ("a", "b")])
        assert P.canonicalize(df).count() == 1

    def test_keeps_max_similarity_on_duplicates(self, spark):
        df = _pairs_df(
            spark,
            [("a", "b", 0.3), ("b", "a", 0.9)],
            cols=("id1", "id2", "similarity"),
        )
        row = P.canonicalize(df).collect()[0]
        assert row["similarity"] == pytest.approx(0.9)

    def test_empty_input(self, spark):
        df = spark.createDataFrame([], "id1 string, id2 string")
        assert P.canonicalize(df).count() == 0


class TestPairsFromClustering:
    def test_cluster_of_three_gives_three_pairs(self, spark):
        cl = _pairs_df(
            spark, [("a", 1), ("b", 1), ("c", 1), ("d", 2)], cols=("rid", "cluster")
        )
        got = P.pairs_from_clustering(cl)
        assert sorted(tuple(r) for r in got.collect()) == [
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
        ]

    def test_matches_duckdb_self_join(self, spark):
        cl = _pairs_df(
            spark,
            [(f"r{i}", i % 3) for i in range(12)],
            cols=("rid", "cluster"),
        )
        got = P.pairs_from_clustering(cl)
        assert_equivalent(
            got,
            """
            SELECT a.rid AS id1, b.rid AS id2
            FROM clustering a JOIN clustering b
              ON a.cluster = b.cluster AND a.rid < b.rid
            """,
            clustering=cl,
        )

    def test_singletons_give_no_pairs(self, spark):
        cl = _pairs_df(spark, [("a", 1), ("b", 2)], cols=("rid", "cluster"))
        assert P.pairs_from_clustering(cl).count() == 0


class TestClusteringFromPairs:
    def test_transitive_closure(self, spark):
        prs = _pairs_df(spark, [("a", "b"), ("b", "c")])
        recs = _pairs_df(spark, [("a",), ("b",), ("c",), ("d",)], cols=("rid",))
        cl = connected_components(prs, recs)
        m = {r["rid"]: r["cluster"] for r in cl.collect()}
        assert m["a"] == m["b"] == m["c"]
        assert m["d"] != m["a"]

    def test_all_records_present(self, spark):
        prs = _pairs_df(spark, [("a", "b")])
        recs = _pairs_df(spark, [("a",), ("b",), ("z",)], cols=("rid",))
        assert connected_components(prs, recs).count() == 3


class TestClosureMissingPairs:
    def test_triangle_missing_one_edge(self, spark):
        prs = _pairs_df(spark, [("a", "b"), ("b", "c")])
        recs = _pairs_df(spark, [("a",), ("b",), ("c",)], cols=("rid",))
        missing = P.closure_missing_pairs(prs, recs).collect()
        assert [tuple(r) for r in missing] == [("a", "c")]

    def test_closed_set_has_none_missing(self, spark):
        prs = _pairs_df(spark, [("a", "b"), ("b", "c"), ("a", "c")])
        recs = _pairs_df(spark, [("a",), ("b",), ("c",)], cols=("rid",))
        assert P.closure_missing_pairs(prs, recs).count() == 0


class TestWithRecords:
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_matches_duckdb_two_joins(self, spark, how):
        records = spark.createDataFrame(
            [
                ("a", "x y", 1.5, "acme"),
                ("b", None, -0.0, "acme"),
                ("c", "x", None, None),
                ("d", "z", 2.0, "zeta"),
            ],
            "rid string, name string, price double, brand string",
        )
        # "q" and "p" are not records; "b" has a null name, "c" a null price.
        pairs = spark.createDataFrame(
            [
                ("a", "b", 0.9),
                ("a", "c", 0.5),
                ("b", "d", 0.1),
                ("c", "q", 0.7),
                ("p", "q", 0.2),
            ],
            "id1 string, id2 string, similarity double",
        )
        got = P.with_records(pairs, records, ["name", "price"], how=how)
        assert got.columns == [
            "id1", "id2", "similarity", "a_name", "a_price", "b_name", "b_price"
        ]
        join = "JOIN" if how == "inner" else "LEFT JOIN"
        assert_equivalent(
            got,
            f"""
            SELECT p.id1, p.id2, p.similarity,
                   a.name AS a_name, a.price AS a_price,
                   b.name AS b_name, b.price AS b_price
            FROM pairs p {join} records a ON p.id1 = a.rid
                         {join} records b ON p.id2 = b.rid
            """,
            pairs=pairs,
            records=records,
        )
        assert got.count() == (3 if how == "inner" else 5)

