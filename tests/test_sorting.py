"""Tests for repro.explore.sorting — similarity sort and column entropy."""
import math
import re

import pandas as pd
import pytest
from pyspark.errors import SparkRuntimeException

from repro.explore import sorting as SO


def _ds(spark, rows, cols):
    return spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)))


class TestSortBySimilarity:
    def test_descending(self, spark):
        scored = _ds(
            spark,
            [("a", "b", 0.2), ("c", "d", 0.9), ("e", "f", 0.5)],
            ("id1", "id2", "similarity"),
        )
        out = [r["similarity"] for r in SO.sort_by_similarity(scored).collect()]
        assert out == [0.9, 0.5, 0.2]

    def test_ascending(self, spark):
        scored = _ds(
            spark, [("a", "b", 0.2), ("c", "d", 0.9)], ("id1", "id2", "similarity")
        )
        out = [
            r["similarity"]
            for r in SO.sort_by_similarity(scored, descending=False).collect()
        ]
        assert out == [0.2, 0.9]


class TestCellEntropy:
    """One attribute: the record entropy is that cell's entropy."""

    def test_unique_token_has_higher_entropy_than_common(self, spark):
        # "rare" appears once in the column, "common" 3 times.
        ds = _ds(
            spark,
            [("r1", "common"), ("r2", "common"), ("r3", "common rare")],
            ("rid", "name"),
        )
        ent = {r["rid"]: r["entropy"] for r in SO.record_entropy(ds, ["name"]).collect()}
        assert ent["r3"] > ent["r1"]

    def test_null_cell_scores_zero(self, spark):
        ds = _ds(spark, [("r1", "word"), ("r2", None)], ("rid", "name"))
        ent = {r["rid"]: r["entropy"] for r in SO.record_entropy(ds, ["name"]).collect()}
        assert ent["r2"] == 0.0

    def test_exact_value_single_token_cells(self, spark):
        # Column tokens: x appears 2 of 4, y and z once each.
        ds = _ds(
            spark,
            [("r1", "x"), ("r2", "x"), ("r3", "y"), ("r4", "z")],
            ("rid", "name"),
        )
        ent = {r["rid"]: r["entropy"] for r in SO.record_entropy(ds, ["name"]).collect()}
        assert ent["r1"] == pytest.approx(-math.log(2 / 4))
        assert ent["r3"] == pytest.approx(-math.log(1 / 4))

    def test_cell_token_probabilities_weight(self, spark):
        # Cell "x x y": prob_x=2/3, prob_y=1/3; column has 4 tokens (x:3,y:1).
        ds = _ds(spark, [("r1", "x x y"), ("r2", "x")], ("rid", "name"))
        ent = {r["rid"]: r["entropy"] for r in SO.record_entropy(ds, ["name"]).collect()}
        expected = (2 / 3) * -math.log(3 / 4) + (1 / 3) * -math.log(1 / 4)
        assert ent["r1"] == pytest.approx(expected)


class TestPairEntropy:
    @pytest.fixture
    def ds(self, spark):
        return _ds(
            spark,
            [("r1", "alpha rare"), ("r2", "alpha"), ("r3", "alpha")],
            ("rid", "name"),
        )

    def test_pair_entropy_is_sum_of_records(self, spark, ds):
        rec = {r["rid"]: r["entropy"] for r in SO.record_entropy(ds, ["name"]).collect()}
        pairs = _ds(spark, [("r1", "r2")], ("id1", "id2"))
        row = SO.pair_entropy(pairs, ds, ["name"]).collect()[0]
        assert row["entropy"] == pytest.approx(rec["r1"] + rec["r2"])

    def test_sort_by_entropy_rare_first(self, spark, ds):
        pairs = _ds(spark, [("r1", "r2"), ("r2", "r3")], ("id1", "id2"))
        out = SO.sort_by_entropy(pairs, ds, ["name"]).collect()
        # (r1, r2) contains the rare token -> higher entropy -> first.
        assert (out[0]["id1"], out[0]["id2"]) == ("r1", "r2")

    def test_pair_listed_twice_with_other_columns_raises(self, spark, ds):
        # The two rows differ in their similarity, yet are the same pair.
        pairs = _ds(spark, [("r1", "r2", 0.5), ("r1", "r2", 0.7)], ("id1", "id2", "similarity"))
        with pytest.raises(SparkRuntimeException, match=re.escape("pair (r1, r2)")):
            SO.pair_entropy(pairs, ds, ["name"]).collect()

    def test_extra_columns_kept_in_order(self, spark, ds):
        pairs = _ds(spark, [(0.5, "r1", "r2")], ("similarity", "id1", "id2"))
        out = SO.pair_entropy(pairs, ds, ["name"])
        assert out.columns == ["similarity", "id1", "id2", "entropy"]
        assert out.first()["similarity"] == 0.5

    def test_multi_attribute_sums(self, spark):
        ds = _ds(
            spark,
            [("r1", "x", "q"), ("r2", "x", "q")],
            ("rid", "a", "b"),
        )
        one = SO.record_entropy(ds, ["a"]).collect()[0]["entropy"]
        both = SO.record_entropy(ds, ["a", "b"]).collect()[0]["entropy"]
        assert both == pytest.approx(2 * one)


class TestRecordEntropyAgainstPandas:
    def test_paper_formula_over_several_attributes(self, spark):
        from collections import Counter

        rows = [
            ("r1", "red  apple", "fruit shop", None),
            ("r2", "red red pear", None, "a b"),
            ("r3", None, "shop", "b"),
            ("r4", "\tgreen apple ", "fruit", ""),
            ("r5", "", "fruit fruit shop", "a a a c"),
        ]
        attrs = ["name", "store", "tags"]
        pdf = pd.DataFrame(rows, columns=["rid", *attrs])
        ds = spark.createDataFrame(rows, "rid string, name string, store string, tags string")

        # cellEntropy = Σ_t prob_t · (−log columnProb_t), summed over attributes.
        want = dict.fromkeys(pdf.rid, 0.0)
        for a in attrs:
            cells = {r: (v or "").split() for r, v in zip(pdf.rid, pdf[a])}
            col = Counter(t for toks in cells.values() for t in toks)
            col_n = sum(col.values())
            for r, toks in cells.items():
                for t, c in Counter(toks).items():
                    want[r] += c / len(toks) * -math.log(col[t] / col_n)

        got = {r["rid"]: r["entropy"] for r in SO.record_entropy(ds, attrs).collect()}
        assert got == pytest.approx(want)
        assert got["r3"] > 0 and want["r1"] != want["r2"]
