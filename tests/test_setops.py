"""Tests for repro.explore.setops — set-based comparisons and Venn regions."""
import pandas as pd
import pytest

from repro.explore import setops as S
from repro.oracle import assert_equivalent


def _pairs(spark, rows):
    return spark.createDataFrame(pd.DataFrame(rows, columns=["id1", "id2"]))


@pytest.fixture
def three_exps(spark):
    e1 = _pairs(spark, [("a", "b"), ("c", "d"), ("e", "f")])
    e2 = _pairs(spark, [("a", "b"), ("c", "d")])
    gt = _pairs(spark, [("a", "b"), ("g", "h")])
    return {"e1": e1, "e2": e2, "gt": gt}


class TestTagMemberships:
    def test_columns(self, three_exps):
        out = S.tag_memberships(three_exps)
        assert set(out.columns) == {"id1", "id2", "in_e1", "in_e2", "in_gt"}

    def test_flags(self, three_exps):
        rows = {
            (r["id1"], r["id2"]): (r["in_e1"], r["in_e2"], r["in_gt"])
            for r in S.tag_memberships(three_exps).collect()
        }
        assert rows[("a", "b")] == (1, 1, 1)
        assert rows[("c", "d")] == (1, 1, 0)
        assert rows[("e", "f")] == (1, 0, 0)
        assert rows[("g", "h")] == (0, 0, 1)

    def test_union_covers_all_pairs(self, three_exps):
        assert S.tag_memberships(three_exps).count() == 4


class TestVennRegions:
    def test_region_counts(self, three_exps):
        regions = {
            r["region"]: r["pair_count"] for r in S.venn_regions(three_exps).collect()
        }
        assert regions == {"e1,e2,gt": 1, "e1,e2": 1, "e1": 1, "gt": 1}

    def test_two_identical_sets(self, spark):
        e = _pairs(spark, [("a", "b"), ("c", "d")])
        regions = {
            r["region"]: r["pair_count"]
            for r in S.venn_regions({"x": e, "y": e}).collect()
        }
        assert regions == {"x,y": 2}


class TestSelectRegion:
    def test_false_positives_of_e1(self, three_exps):
        fp = S.select_region(three_exps, include=["e1"], exclude=["gt"])
        assert sorted(map(tuple, fp.collect())) == [("c", "d"), ("e", "f")]

    def test_intersection_all(self, three_exps):
        inter = S.select_region(three_exps, include=["e1", "e2", "gt"])
        assert sorted(map(tuple, inter.collect())) == [("a", "b")]

    def test_matches_duckdb(self, spark, three_exps):
        got = S.select_region(three_exps, include=["e1", "e2"], exclude=["gt"])
        assert_equivalent(
            got,
            """
            SELECT a.id1, a.id2 FROM e1 a
            JOIN e2 b ON a.id1 = b.id1 AND a.id2 = b.id2
            ANTI JOIN gt g ON a.id1 = g.id1 AND a.id2 = g.id2
            """,
            **three_exps,
        )

    def test_unknown_name_raises(self, three_exps):
        with pytest.raises(KeyError):
            S.select_region(three_exps, include=["nope"])

    def test_empty_include_raises(self, three_exps):
        with pytest.raises(ValueError):
            S.select_region(three_exps, include=[])


class TestMissedByAtLeast:
    def test_case_study_query(self, spark):
        gt = _pairs(spark, [("a", "b"), ("c", "d"), ("e", "f")])
        e1 = _pairs(spark, [("a", "b")])
        e2 = _pairs(spark, [("a", "b"), ("c", "d")])
        e3 = _pairs(spark, [("x", "y")])
        out = {
            (r["id1"], r["id2"]): r["missed_by"]
            for r in S.missed_by_at_least(gt, {"e1": e1, "e2": e2, "e3": e3}, 2).collect()
        }
        # (a,b) missed only by e3 -> excluded; (c,d) missed by e1+e3 = 2;
        # (e,f) missed by all 3.
        assert out == {("c", "d"): 2, ("e", "f"): 3}

    def test_k_zero_returns_all_gold(self, spark):
        gt = _pairs(spark, [("a", "b")])
        e1 = _pairs(spark, [("a", "b")])
        assert S.missed_by_at_least(gt, {"e1": e1}, 0).count() == 1

    def test_no_experiments_miss_nothing(self, spark):
        # Used to fail with reduce's TypeError.
        gt = _pairs(spark, [("a", "b"), ("c", "d")])
        got = S.missed_by_at_least(gt, {}, 0).collect()
        assert sorted(map(tuple, got)) == [("a", "b", 0), ("c", "d", 0)]


@pytest.fixture
def with_empty(spark):
    """Overlapping experiments, one empty, and a gold standard."""
    rows = {
        "e1": [("a", "b"), ("c", "d"), ("e", "f")],
        "e2": [("a", "b"), ("c", "d"), ("g", "h")],
        "e3": [],
        "gt": [("a", "b"), ("g", "h"), ("i", "j")],
    }
    return {n: spark.createDataFrame(r, "id1 string, id2 string") for n, r in rows.items()}


def _union_sql(names):
    return " UNION ALL ".join(f"SELECT id1, id2, '{n}' AS name FROM {n}" for n in names)


class TestMembershipViewsAgainstDuckDB:
    def test_tag_memberships_with_empty_experiment(self, with_empty):
        assert_equivalent(
            S.tag_memberships(with_empty),
            f"""
            SELECT id1, id2,
                   max((name = 'e1')::INT) AS in_e1, max((name = 'e2')::INT) AS in_e2,
                   max((name = 'e3')::INT) AS in_e3, max((name = 'gt')::INT) AS in_gt
            FROM ({_union_sql(with_empty)}) GROUP BY id1, id2
            """,
            **with_empty,
        )

    def test_venn_regions(self, with_empty):
        assert_equivalent(
            S.venn_regions(with_empty),
            f"""
            SELECT region, count(*) AS pair_count FROM (
                SELECT string_agg(name, ',' ORDER BY name) AS region
                FROM ({_union_sql(with_empty)}) GROUP BY id1, id2
            ) GROUP BY region
            """,
            **with_empty,
        )

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_missed_by_at_least(self, with_empty, k):
        exps = {n: e for n, e in with_empty.items() if n != "gt"}
        assert_equivalent(
            S.missed_by_at_least(with_empty["gt"], exps, k),
            f"""
            SELECT g.id1, g.id2, 3 - count(f.name) AS missed_by
            FROM gt g LEFT JOIN ({_union_sql(exps)}) f USING (id1, id2)
            GROUP BY g.id1, g.id2 HAVING 3 - count(f.name) >= {k}
            """,
            **with_empty,
        )

    def test_only_empty_experiments(self, with_empty):
        gold = with_empty["gt"]
        exps = {"x": with_empty["e3"], "y": with_empty["e3"]}
        got = S.missed_by_at_least(gold, exps, 2).collect()
        assert sorted((r["id1"], r["id2"], r["missed_by"]) for r in got) == [
            ("a", "b", 2), ("g", "h", 2), ("i", "j", 2)
        ]
        assert S.venn_regions(exps).count() == 0


class TestEnrichWithRecords:
    def test_both_sides_joined(self, spark):
        ds = spark.createDataFrame(
            pd.DataFrame(
                [("a", "Alice", 1), ("b", "Bob", 2)], columns=["rid", "name", "x"]
            )
        )
        pairs = _pairs(spark, [("a", "b")])
        row = S.enrich_with_records(pairs, ds).collect()[0]
        assert row["a_name"] == "Alice" and row["b_name"] == "Bob"
        assert row["a_x"] == 1 and row["b_x"] == 2

    def test_missing_record_gives_nulls(self, spark):
        ds = spark.createDataFrame(
            pd.DataFrame([("a", "Alice")], columns=["rid", "name"])
        )
        pairs = _pairs(spark, [("a", "zz")])
        row = S.enrich_with_records(pairs, ds).collect()[0]
        assert row["a_name"] == "Alice" and row["b_name"] is None
