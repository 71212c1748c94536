"""Tests for repro.explore.attributes — nullRatio and equalRatio (§4.5.2-3)."""
import pandas as pd
import pytest

from repro.explore import attributes as A


@pytest.fixture
def dataset(spark):
    rows = [
        ("r1", "alice", "berlin"),
        ("r2", "alice", None),
        ("r3", "bob", "berlin"),
        ("r4", None, "hamburg"),
    ]
    return spark.createDataFrame(pd.DataFrame(rows, columns=["rid", "name", "city"]))


def _pairs(spark, rows):
    return spark.createDataFrame(rows, "id1 string, id2 string")


def _row(spark, dataset, attribute, mis=None):
    """The report row of one attribute, by default with no misclassified pair."""
    mis = _pairs(spark, []) if mis is None else mis
    return A.attribute_influence_report(mis, dataset, [attribute]).iloc[0]


class TestNullCounts:
    def test_closed_form(self, spark, dataset):
        # name: r4 null -> pairs with r4: 3 of C(4,2)=6.
        assert _row(spark, dataset, "name")["nullCount"] == 3
        # city: r2 null -> 3 pairs.
        assert _row(spark, dataset, "city")["nullCount"] == 3

    def test_no_nulls(self, spark):
        ds = spark.createDataFrame(
            pd.DataFrame([("a", "x"), ("b", "y")], columns=["rid", "v"])
        )
        assert _row(spark, ds, "v")["nullCount"] == 0

    def test_all_null(self, spark):
        ds = spark.createDataFrame(
            pd.DataFrame([("a", None), ("b", None), ("c", None)], columns=["rid", "v"])
        )
        assert _row(spark, ds, "v")["nullCount"] == 3


class TestEqualCounts:
    def test_value_groups(self, spark, dataset):
        # name: alice x2 -> 1 pair; city: berlin x2 -> 1 pair.
        assert _row(spark, dataset, "name")["equalCount"] == 1
        assert _row(spark, dataset, "city")["equalCount"] == 1

    def test_nulls_not_equal(self, spark):
        ds = spark.createDataFrame(
            pd.DataFrame([("a", None), ("b", None)], columns=["rid", "v"])
        )
        assert _row(spark, ds, "v")["equalCount"] == 0

    def test_triple_group(self, spark):
        ds = spark.createDataFrame(
            pd.DataFrame([("a", "x"), ("b", "x"), ("c", "x")], columns=["rid", "v"])
        )
        assert _row(spark, ds, "v")["equalCount"] == 3


class TestFalseCountsAndRatios:
    def test_false_null_count(self, spark, dataset):
        mis = _pairs(spark, [("r1", "r4"), ("r1", "r3")])
        # (r1,r4): r4 name is null -> counts; (r1,r3): both non-null.
        assert _row(spark, dataset, "name", mis)["falseNullCount"] == 1

    def test_false_equal_count(self, spark, dataset):
        mis = _pairs(spark, [("r1", "r2"), ("r1", "r3")])
        # (r1,r2): names equal -> counts; (r1,r3): alice vs bob.
        assert _row(spark, dataset, "name", mis)["falseEqualCount"] == 1

    def test_null_ratio(self, spark, dataset):
        mis = _pairs(spark, [("r1", "r4")])
        assert _row(spark, dataset, "name", mis)["nullRatio"] == pytest.approx(1 / 3)

    def test_equal_ratio(self, spark, dataset):
        mis = _pairs(spark, [("r1", "r2")])
        assert _row(spark, dataset, "name", mis)["equalRatio"] == pytest.approx(1.0)

    def test_zero_denominator_gives_zero(self, spark):
        ds = spark.createDataFrame(
            pd.DataFrame([("a", "x"), ("b", "y")], columns=["rid", "v"])
        )
        mis = _pairs(spark, [("a", "b")])
        assert _row(spark, ds, "v", mis)["nullRatio"] == 0.0
        assert _row(spark, ds, "v", mis)["equalRatio"] == 0.0


class TestInfluenceReport:
    def test_report_shape_and_values(self, spark, dataset):
        mis = _pairs(spark, [("r1", "r2"), ("r1", "r4")])
        rep = A.attribute_influence_report(mis, dataset)
        assert list(rep["attribute"]) == ["name", "city"]
        name_row = rep[rep.attribute == "name"].iloc[0]
        assert name_row["nullCount"] == 3
        assert name_row["falseNullCount"] == 1  # (r1, r4)
        assert name_row["equalCount"] == 1
        assert name_row["falseEqualCount"] == 1  # (r1, r2)

    def test_explicit_attribute_list(self, spark, dataset):
        mis = _pairs(spark, [("r1", "r2")])
        rep = A.attribute_influence_report(mis, dataset, ["city"])
        assert list(rep["attribute"]) == ["city"]

    def test_oracle_cross_check_false_equal(self, spark, dataset):
        # DuckDB reference for falseEqualCount on a larger random instance.
        import numpy as np

        rng = np.random.default_rng(3)
        values = ["x", "y", "z", None]
        rows = [
            (f"r{i}", values[int(rng.integers(0, 4))]) for i in range(30)
        ]
        ds = spark.createDataFrame(pd.DataFrame(rows, columns=["rid", "v"]))
        mis_rows = []
        for _ in range(40):
            i, j = rng.choice(30, 2, replace=False)
            a, b = f"r{min(i, j)}", f"r{max(i, j)}"
            mis_rows.append((a, b))
        mis = _pairs(spark, list(set(mis_rows)))
        got = _row(spark, ds, "v", mis)["falseEqualCount"]
        import duckdb

        con = duckdb.connect()
        con.register("ds", ds.toPandas())
        con.register("mis", mis.toPandas())
        expected = con.execute(
            """
            SELECT count(*) FROM mis m
            JOIN ds a ON m.id1 = a.rid JOIN ds b ON m.id2 = b.rid
            WHERE a.v IS NOT NULL AND a.v = b.v
            """
        ).fetchone()[0]
        con.close()
        assert got == expected


class TestReportAgainstDuckDB:
    """Every count of the report against DuckDB's pair-by-pair definition."""

    def test_string_and_double_columns(self, spark):
        import duckdb
        import numpy as np
        import pyarrow as pa

        rng = np.random.default_rng(11)
        names = ["ab", "cd", "ef", None]
        prices = [0.0, -0.0, 1.5, 2.25, None]
        rows = [
            (
                f"r{i:02d}",
                names[int(rng.integers(0, len(names)))],
                prices[int(rng.integers(0, len(prices)))],
            )
            for i in range(40)
        ]
        ds = spark.createDataFrame(rows, "rid string, name string, price double")
        rids = [r[0] for r in rows]
        mis_rows = sorted(
            {tuple(sorted(rng.choice(rids, 2, replace=False))) for _ in range(60)}
        )
        mis = _pairs(spark, mis_rows)
        rep = A.attribute_influence_report(mis, ds).set_index("attribute")
        assert list(rep.index) == ["name", "price"]

        con = duckdb.connect()
        columns = zip(("rid", "name", "price"), zip(*rows))
        con.register("ds", pa.table({k: list(v) for k, v in columns}))
        con.register("mis", pa.table(dict(zip(("id1", "id2"), map(list, zip(*mis_rows))))))
        for a in ("name", "price"):
            want = con.execute(
                f"""
                SELECT
                  (SELECT count(*) FROM ds x JOIN ds y ON x.rid < y.rid
                   WHERE x.{a} IS NULL OR y.{a} IS NULL),
                  (SELECT count(*) FROM mis m JOIN ds x ON m.id1 = x.rid
                   JOIN ds y ON m.id2 = y.rid WHERE x.{a} IS NULL OR y.{a} IS NULL),
                  (SELECT count(*) FROM ds x JOIN ds y ON x.rid < y.rid
                   WHERE x.{a} = y.{a}),
                  (SELECT count(*) FROM mis m JOIN ds x ON m.id1 = x.rid
                   JOIN ds y ON m.id2 = y.rid WHERE x.{a} = y.{a})
                """
            ).fetchone()
            cols = ["nullCount", "falseNullCount", "equalCount", "falseEqualCount"]
            assert tuple(int(v) for v in rep.loc[a, cols]) == want, a
        con.close()
        # 0.0 and -0.0 are one value under the typed =; a string cast would split them.
        zeros = sum(1 for r in rows if r[2] == 0.0)
        assert zeros >= 2 and any(str(r[2]) == "-0.0" for r in rows)
