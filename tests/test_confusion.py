"""Tests for repro.core.confusion — Fig. 2 confusion matrix over pair sets."""
import itertools

import duckdb
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.confusion import (
    ConfusionCounts,
    confusion_counts,
    confusion_grid,
    confusion_sets,
    pair_universe_size,
)
from repro.oracle import assert_equivalent


def _pairs(spark, rows):
    return spark.createDataFrame(pd.DataFrame(rows, columns=["id1", "id2"]))


class TestUniverse:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 0), (2, 1), (4, 6), (10, 45)])
    def test_universe_size(self, n, expected):
        assert pair_universe_size(n) == expected


class TestConfusionSets:
    def test_partition(self, spark):
        exp = _pairs(spark, [("a", "b"), ("a", "c"), ("d", "e")])
        gold = _pairs(spark, [("a", "b"), ("d", "e"), ("f", "g")])
        tp, fp, fn = confusion_sets(exp, gold)
        assert sorted(map(tuple, tp.collect())) == [("a", "b"), ("d", "e")]
        assert sorted(map(tuple, fp.collect())) == [("a", "c")]
        assert sorted(map(tuple, fn.collect())) == [("f", "g")]

    def test_fp_matches_duckdb(self, spark):
        exp = _pairs(spark, [("a", "b"), ("a", "c"), ("b", "c"), ("x", "y")])
        gold = _pairs(spark, [("a", "b"), ("b", "c")])
        _, fp, _ = confusion_sets(exp, gold)
        assert_equivalent(
            fp,
            """
            SELECT e.id1, e.id2 FROM exp e
            ANTI JOIN gold g ON e.id1 = g.id1 AND e.id2 = g.id2
            """,
            exp=exp,
            gold=gold,
        )

    def test_fn_matches_duckdb(self, spark):
        exp = _pairs(spark, [("a", "b")])
        gold = _pairs(spark, [("a", "b"), ("b", "c"), ("c", "d")])
        _, _, fn = confusion_sets(exp, gold)
        assert_equivalent(
            fn,
            """
            SELECT g.id1, g.id2 FROM gold g
            ANTI JOIN exp e ON e.id1 = g.id1 AND e.id2 = g.id2
            """,
            exp=exp,
            gold=gold,
        )

    def test_extra_columns_survive_on_tp_and_fp(self, spark):
        exp = spark.createDataFrame(
            pd.DataFrame(
                [("a", "b", 0.9), ("a", "c", 0.4)],
                columns=["id1", "id2", "similarity"],
            )
        )
        gold = _pairs(spark, [("a", "b")])
        tp, fp, _ = confusion_sets(exp, gold)
        assert "similarity" in tp.columns and "similarity" in fp.columns


class TestConfusionCounts:
    def test_counts_with_n_records(self, spark):
        exp = _pairs(spark, [("a", "b"), ("a", "c")])
        gold = _pairs(spark, [("a", "b"), ("d", "e")])
        c = confusion_counts(exp, gold, n_records=5)
        assert (c.tp, c.fp, c.fn) == (1, 1, 1)
        assert c.tn == 10 - 3
        assert c.total == 10

    def test_counts_with_universe_size(self, spark):
        exp = _pairs(spark, [("a", "b")])
        gold = _pairs(spark, [("a", "b"), ("c", "d")])
        c = confusion_counts(exp, gold, universe_size=50)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 0, 1, 48)

    def test_requires_exactly_one_universe(self, spark):
        exp = _pairs(spark, [("a", "b")])
        with pytest.raises(ValueError):
            confusion_counts(exp, exp, n_records=3, universe_size=3)
        with pytest.raises(ValueError):
            confusion_counts(exp, exp)

    def test_rejects_too_small_universe(self, spark):
        exp = _pairs(spark, [("a", "b"), ("c", "d")])
        gold = _pairs(spark, [("e", "f")])
        with pytest.raises(ValueError):
            confusion_counts(exp, gold, universe_size=2)

    def test_properties(self):
        c = ConfusionCounts(tp=3, fp=2, fn=1, tn=4)
        assert c.positives == 4
        assert c.predicted == 5
        assert c.total == 10

    def test_perfect_experiment(self, spark):
        gold = _pairs(spark, [("a", "b"), ("b", "c"), ("a", "c")])
        c = confusion_counts(gold, gold, n_records=4)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 0, 0, 3)

    def test_empty_experiment(self, spark):
        exp = spark.createDataFrame([], "id1 string, id2 string")
        gold = _pairs(spark, [("a", "b")])
        c = confusion_counts(exp, gold, n_records=3)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 1, 2)


PAIRS = list(itertools.combinations("abcdef", 2))
pair_sets = st.sets(st.sampled_from(PAIRS))


def _duckdb_cells(gold: set, exps: list[set]) -> list[tuple[int, int, int]]:
    """(tp, fp, fn) of each experiment, from joins over the raw pair sets."""
    rows = [("gold", *p) for p in gold] + [
        (f"e{i}", *p) for i, e in enumerate(exps) for p in e
    ]
    con = duckdb.connect()
    try:
        con.register("t", pd.DataFrame(rows, columns=["name", "id1", "id2"], dtype=str))
        out = []
        for i in range(len(exps)):
            e = f"(SELECT id1, id2 FROM t WHERE name = 'e{i}')"
            g = "(SELECT id1, id2 FROM t WHERE name = 'gold')"
            out.append(
                con.execute(
                    f"""
                    SELECT (SELECT count(*) FROM {e} e JOIN {g} g USING (id1, id2)),
                           (SELECT count(*) FROM {e} e ANTI JOIN {g} g USING (id1, id2)),
                           (SELECT count(*) FROM {g} g ANTI JOIN {e} e USING (id1, id2))
                    """
                ).fetchone()
            )
        return out
    finally:
        con.close()


class TestConfusionGrid:
    @settings(max_examples=15, deadline=None)
    @given(gold=pair_sets, exps=st.lists(pair_sets, min_size=1, max_size=4))
    @example(gold=set(PAIRS[:3]), exps=[set(), set(PAIRS[2:5])])
    @example(gold=set(), exps=[set(PAIRS[:2])])
    def test_matches_duckdb(self, spark, gold, exps):
        # One row per pair of any set; a pair outside experiment i has a
        # NULL score there, so its predicate is NULL, not false. Pairs
        # found only in gold are FN of every experiment.
        rows = [
            (a, b, (a, b) in gold, *[1.0 if (a, b) in e else None for e in exps])
            for a, b in sorted(gold.union(*exps))
        ]
        schema = ", ".join(
            ["id1 string", "id2 string", "gold boolean"]
            + [f"e{i} double" for i in range(len(exps))]
        )
        cells = confusion_grid(
            spark.createDataFrame(rows, schema),
            {f"e{i}": F.col(f"e{i}") >= 0.5 for i in range(len(exps))},
            F.col("gold"),
            pair_universe_size(6),
        )
        assert list(cells) == [f"e{i}" for i in range(len(exps))]
        for c, ref in zip(cells.values(), _duckdb_cells(gold, exps)):
            assert (c.tp, c.fp, c.fn) == ref
            assert c.total == pair_universe_size(6)

    def test_rejects_too_small_universe(self, spark):
        pairs = spark.createDataFrame(
            [("a", "b", True), ("c", "d", False)], "id1 string, id2 string, g boolean"
        )
        with pytest.raises(ValueError, match="universe of 1 pairs"):
            confusion_grid(pairs, {"all": F.lit(True)}, F.col("g"), 1)
