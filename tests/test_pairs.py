"""Tests for repro.core.pairs — canonical pair sets and conversions."""
import itertools
import re

import duckdb
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.errors import SparkRuntimeException
from pyspark.sql import functions as F

from repro.core import pairs as P
from repro.core.clustering import connected_components
from repro.core.confusion import confusion_counts, confusion_sets
from repro.core.diagrams import spark_pair_sweep
from repro.core.noground import consensus_deviations, majority_vote
from repro.explore.selection import plain_result_pairs
from repro.explore.setops import missed_by_at_least, select_region, venn_regions
from repro.oracle import assert_equivalent
from tests.test_spark_jobs import _job_ids


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

    def test_pair_listed_twice_raises_naming_it(self, spark):
        prs = _pairs_df(spark, [("a", "b"), ("b", "c"), ("a", "b")])
        recs = _pairs_df(spark, [("a",), ("b",), ("c",)], cols=("rid",))
        with pytest.raises(SparkRuntimeException, match=re.escape("pair (a, b)")):
            P.closure_missing_pairs(prs, recs).collect()


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



PAIRS = list(itertools.combinations("abcdef", 2))
pair_sets = st.sets(st.sampled_from(PAIRS))
SIMS = [0.1, 0.5, 0.9]


def _set_df(spark, pairs, sims=None):
    """A pair set; with ``sims``, scored by ``sims[PAIRS.index(pair)]``."""
    if sims is None:
        return spark.createDataFrame(sorted(pairs), "id1 string, id2 string")
    rows = [(a, b, sims[PAIRS.index((a, b))]) for a, b in sorted(pairs)]
    return spark.createDataFrame(rows, "id1 string, id2 string, similarity double")


def _rank(pair):
    """The second carried column's value of a pair in the last set."""
    return len(PAIRS) - PAIRS.index(pair)


def _duckdb_memberships(sets, scored, sims):
    """Per pair: how often each set lists it, and the maximum similarity and rank."""
    con = duckdb.connect()
    try:
        con.execute(
            "CREATE TABLE t (name VARCHAR, id1 VARCHAR, id2 VARCHAR, sim DOUBLE, rank BIGINT)"
        )
        last = len(sets) - 1
        rows = [
            (
                f"s{i}",
                a,
                b,
                sims[PAIRS.index((a, b))] if i == scored else None,
                _rank((a, b)) if i == last else None,
            )
            for i, s in enumerate(sets)
            for a, b in s
        ]
        if rows:
            con.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
        flags = ", ".join(f"count_if(name = 's{i}')" for i in range(len(sets)))
        query = f"SELECT id1, id2, {flags}, max(sim), max(rank) FROM t GROUP BY id1, id2"
        return sorted(con.execute(query).fetchall())
    finally:
        con.close()


class TestTagMemberships:
    def test_no_sets(self):
        with pytest.raises(ValueError, match="no pair sets"):
            P.tag_memberships({})

    @settings(max_examples=8, deadline=None)
    @given(
        sets=st.lists(pair_sets, min_size=1, max_size=4),
        scored=st.integers(0, 3),
        sims=st.lists(st.sampled_from(SIMS), min_size=len(PAIRS), max_size=len(PAIRS)),
    )
    @example(sets=[set(), set(PAIRS[:3]), set(PAIRS[2:5])], scored=1, sims=[0.5] * len(PAIRS))
    @example(sets=[set(PAIRS[:2])], scored=0, sims=[0.9] * len(PAIRS))
    def test_matches_duckdb(self, spark, sets, scored, sims):
        # One set carries a similarity and the last set a rank (the same set
        # when only one is given), the others neither; pairs are shared
        # across sets, and any set may be empty.
        scored = min(scored, len(sets) - 1)
        frames = {
            f"s{i}": _set_df(spark, s, sims if i == scored else None)
            for i, s in enumerate(sets)
        }
        last = f"s{len(sets) - 1}"
        ranks = spark.createDataFrame(
            [(*p, _rank(p)) for p in PAIRS], "id1 string, id2 string, rank long"
        )
        frames[last] = frames[last].join(ranks, ["id1", "id2"])
        table = P.tag_memberships(frames)
        carried = ["similarity", "rank"]
        assert table.columns == ["id1", "id2", *[f"in_{n}" for n in frames], *carried]
        got = sorted(tuple(r) for r in table.collect())
        assert got == _duckdb_memberships(sets, scored, sims)

    @pytest.mark.parametrize("column", ["_src", "in_y"])
    def test_carried_column_clashing_raises_before_any_job(self, spark, column):
        x = spark.createDataFrame([("a", "b", 1)], f"id1 string, id2 string, {column} int")
        y = _set_df(spark, [("a", "b")])

        def run():
            with pytest.raises(ValueError, match=re.escape(f"['{column}'] clash")):
                P.tag_memberships({"x": x, "y": y})

        assert _job_ids(spark, run) == []


def _scored(df):
    return df.withColumn("similarity", F.lit(0.5))


#: every view that puts pair sets side by side, fed one set that breaks the
#: contract (``bad``) and one valid set (``ok``).
ENTRY_POINTS = {
    "confusion_counts/experiment": lambda bad, ok: confusion_counts(bad, ok, n_records=7),
    "confusion_counts/gold": lambda bad, ok: confusion_counts(ok, bad, n_records=7),
    "confusion_sets/experiment": lambda bad, ok: [c.collect() for c in confusion_sets(bad, ok)],
    "confusion_sets/gold": lambda bad, ok: [c.collect() for c in confusion_sets(ok, bad)],
    "spark_pair_sweep/scored": lambda bad, ok: spark_pair_sweep(_scored(bad), ok, 1).collect(),
    "spark_pair_sweep/gold": lambda bad, ok: spark_pair_sweep(_scored(ok), bad, 1).collect(),
    "venn_regions": lambda bad, ok: venn_regions({"x": ok, "y": bad}).collect(),
    "select_region": lambda bad, ok: select_region({"x": ok, "y": bad}, ["x"]).collect(),
    "missed_by_at_least/gold": lambda bad, ok: missed_by_at_least(bad, {"x": ok}, 0).collect(),
    "missed_by_at_least/experiment": lambda bad, ok: (
        missed_by_at_least(ok, {"x": bad}, 0).collect()
    ),
    "majority_vote": lambda bad, ok: majority_vote([ok, bad, ok]).collect(),
    "consensus_deviations": lambda bad, ok: consensus_deviations([ok, bad, ok]),
    "plain_result_pairs/pairs": lambda bad, ok: plain_result_pairs(bad, ok).collect(),
    "plain_result_pairs/added": lambda bad, ok: plain_result_pairs(ok, bad).collect(),
}


def _broken(kind, a, b):
    """Rows that break the pair-set contract, and the pair the error names."""
    return {
        "duplicated": ([(a, b), (a, b)], (a, b)),
        "reversed": ([(b, a)], (b, a)),
        "self": ([(a, a)], (a, a)),
        "null": ([(None, b)], ("null", b)),
    }[kind]


class TestPairSetContract:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("kind", ["duplicated", "reversed", "self", "null"])
    # One example per entry point and kind: each is a failing Spark action.
    @settings(max_examples=1, deadline=None)
    @given(valid=pair_sets, ok=pair_sets, pair=st.sampled_from(PAIRS))
    def test_broken_set_raises_naming_the_pair(self, spark, entry, kind, valid, ok, pair):
        rows, named = _broken(kind, *pair)
        bad = spark.createDataFrame(sorted(valid) + rows, "id1 string, id2 string")
        message = re.escape(f"pair ({named[0]}, {named[1]})")
        with pytest.raises(SparkRuntimeException, match=message):
            ENTRY_POINTS[entry](bad, _set_df(spark, ok))
