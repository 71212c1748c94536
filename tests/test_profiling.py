"""Tests for repro.profiling.dataset_profile — SP/TX/TC/PR/VS (§3.1.3)."""
import pandas as pd
import pytest

from repro.profiling import dataset_profile as DP


def _ds(spark, rows, cols):
    return spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)))


class TestSparsity:
    def test_no_nulls(self, spark):
        ds = _ds(spark, [("a", "x", "y")], ("rid", "c1", "c2"))
        assert DP.sparsity(ds) == 0.0

    def test_half_null(self, spark):
        ds = _ds(
            spark, [("a", "x", None), ("b", None, "y")], ("rid", "c1", "c2")
        )
        assert DP.sparsity(ds) == pytest.approx(0.5)

    def test_rid_excluded(self, spark):
        ds = _ds(spark, [("a", None)], ("rid", "c1"))
        assert DP.sparsity(ds) == pytest.approx(1.0)

    def test_attribute_subset(self, spark):
        ds = _ds(spark, [("a", None, "y")], ("rid", "c1", "c2"))
        assert DP.sparsity(ds, ["c2"]) == 0.0


class TestTextuality:
    def test_single_words(self, spark):
        ds = _ds(spark, [("a", "x", "y")], ("rid", "c1", "c2"))
        assert DP.textuality(ds) == pytest.approx(1.0)

    def test_average_over_values(self, spark):
        ds = _ds(spark, [("a", "one two three", "x")], ("rid", "c1", "c2"))
        assert DP.textuality(ds) == pytest.approx(2.0)  # (3 + 1) / 2

    def test_nulls_excluded_from_denominator(self, spark):
        ds = _ds(spark, [("a", "one two", None)], ("rid", "c1", "c2"))
        assert DP.textuality(ds) == pytest.approx(2.0)

    def test_matches_duckdb(self, spark):
        import duckdb

        ds = _ds(
            spark,
            [("a", "x y", "p q r"), ("b", None, "s"), ("c", "z", None)],
            ("rid", "c1", "c2"),
        )
        got = DP.textuality(ds)
        con = duckdb.connect()
        con.register("t", ds.toPandas())
        expected = con.execute(
            """
            WITH vals AS (
              SELECT c1 AS v FROM t WHERE c1 IS NOT NULL
              UNION ALL SELECT c2 FROM t WHERE c2 IS NOT NULL
            )
            SELECT avg(len(string_split_regex(trim(v), '\\s+'))) FROM vals
            """
        ).fetchone()[0]
        con.close()
        assert got == pytest.approx(expected)


class TestPositiveRatio:
    def test_with_labeled_universe(self, spark):
        gold = _ds(spark, [("a", "b")], ("id1", "id2"))
        labeled = _ds(
            spark, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")], ("id1", "id2")
        )
        assert DP.positive_ratio(gold, labeled_pairs=labeled) == pytest.approx(0.25)

    def test_with_n_records(self, spark):
        gold = _ds(spark, [("a", "b")], ("id1", "id2"))
        assert DP.positive_ratio(gold, n_records=4) == pytest.approx(1 / 6)

    def test_requires_denominator(self, spark):
        gold = _ds(spark, [("a", "b")], ("id1", "id2"))
        with pytest.raises(ValueError):
            DP.positive_ratio(gold)


class TestVocabularySimilarity:
    def test_identical_datasets(self, spark):
        ds = _ds(spark, [("a", "x y z")], ("rid", "c"))
        assert DP.vocabulary_similarity(ds, ds) == pytest.approx(1.0)

    def test_disjoint(self, spark):
        d1 = _ds(spark, [("a", "x y")], ("rid", "c"))
        d2 = _ds(spark, [("a", "p q")], ("rid", "c"))
        assert DP.vocabulary_similarity(d1, d2) == 0.0

    def test_known_jaccard(self, spark):
        d1 = _ds(spark, [("a", "x y z")], ("rid", "c"))
        d2 = _ds(spark, [("a", "y z w")], ("rid", "c"))
        assert DP.vocabulary_similarity(d1, d2) == pytest.approx(0.5)

    def test_tokens_deduplicated(self, spark):
        d1 = _ds(spark, [("a", "x x x y")], ("rid", "c"))
        d2 = _ds(spark, [("a", "x")], ("rid", "c"))
        assert DP.vocabulary_similarity(d1, d2) == pytest.approx(0.5)

    def test_nulls_ignored(self, spark):
        d1 = _ds(spark, [("a", "x", None)], ("rid", "c1", "c2"))
        d2 = _ds(spark, [("a", "x", "x")], ("rid", "c1", "c2"))
        assert DP.vocabulary_similarity(d1, d2) == pytest.approx(1.0)


class TestProfileAndMatrix:
    def test_profile_keys(self, spark):
        ds = _ds(spark, [("a", "x")], ("rid", "c"))
        gold = _ds(spark, [("a", "b")], ("id1", "id2"))
        prof = DP.profile_dataset(ds, gold, labeled_pairs=gold)
        assert set(prof) == {"SP", "TX", "TC", "PR"}

    def test_profile_without_gold(self, spark):
        ds = _ds(spark, [("a", "x")], ("rid", "c"))
        assert set(DP.profile_dataset(ds)) == {"SP", "TX", "TC"}

    def test_decision_matrix_layout(self):
        m = DP.decision_matrix(
            {"X2": {"SP": 0.1, "TX": 28.0}, "Z2": {"SP": 0.2, "TX": 24.0}}
        )
        assert list(m.columns) == ["X2", "Z2"]
        assert m.loc["TX", "X2"] == 28.0


class TestProfileAgainstDuckDB:
    def test_with_an_all_null_column(self, spark):
        import duckdb
        import pyarrow as pa

        rows = [
            ("a", "one two", 1.5, None),
            ("b", None, None, None),
            ("c", "  three\tfour five ", -0.0, None),
            ("d", "", 2.0, None),
            ("e", "six", None, None),
        ]
        cols = ["rid", "title", "price", "brand"]
        ds = spark.createDataFrame(rows, "rid string, title string, price double, brand string")
        gold = _ds(spark, [("a", "c"), ("b", "d")], ("id1", "id2"))
        got = DP.profile_dataset(ds, gold)

        t = pa.table({k: list(v) for k, v in zip(cols, zip(*rows))})
        attrs = cols[1:]
        nulls, n = duckdb.sql(
            "SELECT " + " + ".join(f"count(*) - count({a})" for a in attrs)
            + ", count(*) FROM t"
        ).fetchone()
        values = " UNION ALL ".join(
            f"SELECT CAST({a} AS VARCHAR) AS v FROM t WHERE {a} IS NOT NULL" for a in attrs
        )
        tx = duckdb.sql(
            "SELECT avg(len(list_filter(string_split_regex(v, '\\s+'), w -> w <> '')))"
            f" FROM ({values})"
        ).fetchone()[0]
        assert got["TC"] == n == 5
        assert got["SP"] == pytest.approx(nulls / (n * len(attrs)))
        assert got["TX"] == pytest.approx(tx)
        assert got["PR"] == pytest.approx(2 / (n * (n - 1) // 2))
        assert DP.sparsity(ds) == got["SP"] and DP.textuality(ds) == got["TX"]
