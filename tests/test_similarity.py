"""Tests for repro.matchgen.similarity — column-expression similarities."""
import re

import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.matchgen import similarity as SIM


def _eval(spark, fn, a, b):
    df = spark.createDataFrame(pd.DataFrame([(a, b)], columns=["a", "b"]))
    return df.select(fn(F.col("a"), F.col("b")).alias("s")).first()["s"]


class TestTokenJaccard:
    def test_identical(self, spark):
        assert _eval(spark, SIM.token_jaccard, "a b c", "a b c") == pytest.approx(1.0)

    def test_case_insensitive(self, spark):
        assert _eval(spark, SIM.token_jaccard, "Foo Bar", "foo bar") == pytest.approx(1.0)

    def test_partial(self, spark):
        assert _eval(spark, SIM.token_jaccard, "a b c d", "c d e f") == pytest.approx(1 / 3)

    def test_null_propagates(self, spark):
        assert _eval(spark, SIM.token_jaccard, None, "x") is None

    def test_disjoint(self, spark):
        assert _eval(spark, SIM.token_jaccard, "a", "b") == pytest.approx(0.0)


def _token_set(text: str) -> set[str]:
    """Lower-cased tokens split on ASCII whitespace, as Java's ``\\s`` does."""
    return {t for t in re.split(r"[ \t\n\x0b\f\r]+", text.lower()) if t}


def _jaccard_ref(a, b):
    if a is None or b is None:
        return None
    ta, tb = _token_set(a), _token_set(b)
    return len(ta & tb) / len(ta | tb) if ta | tb else 0.0


texts = st.none() | st.text(alphabet="aAbBcC \t\n", max_size=12)


class TestTokenJaccardReference:
    @settings(max_examples=20, deadline=None)
    @given(pairs=st.lists(st.tuples(texts, texts), min_size=1, max_size=25))
    @example(pairs=[("", ""), ("", None), (None, None), ("  A\tb ", "a\nB\n")])
    @example(pairs=[("a  a b", "A"), ("\t", " "), ("Ab ab AB", "aB")])
    def test_matches_python_reference(self, spark, pairs):
        df = spark.createDataFrame(pairs, "a string, b string")
        got = [
            r["s"]
            for r in df.select(SIM.token_jaccard(F.col("a"), F.col("b")).alias("s"))
            .collect()
        ]
        for (a, b), g in zip(pairs, got):
            ref = _jaccard_ref(a, b)
            assert g == (None if ref is None else pytest.approx(ref)), (a, b)


class TestLevenshteinRatio:
    def test_identical(self, spark):
        assert _eval(spark, SIM.levenshtein_ratio, "laptop", "laptop") == pytest.approx(1.0)

    def test_one_edit(self, spark):
        assert _eval(spark, SIM.levenshtein_ratio, "laptop", "laptops") == pytest.approx(6 / 7)

    def test_case_insensitive(self, spark):
        assert _eval(spark, SIM.levenshtein_ratio, "DELL", "dell") == pytest.approx(1.0)

    def test_completely_different(self, spark):
        s = _eval(spark, SIM.levenshtein_ratio, "abc", "xyz")
        assert s == pytest.approx(0.0)

    def test_null_propagates(self, spark):
        assert _eval(spark, SIM.levenshtein_ratio, "x", None) is None


class TestEquality:
    def test_equal(self, spark):
        assert _eval(spark, SIM.equality, "8 gb", "8 GB") == pytest.approx(1.0)

    def test_not_equal(self, spark):
        assert _eval(spark, SIM.equality, "8 gb", "16 gb") == pytest.approx(0.0)

    def test_null_propagates(self, spark):
        assert _eval(spark, SIM.equality, None, None) is None

    def test_numeric_values_castable(self, spark):
        df = spark.createDataFrame(pd.DataFrame([(5, 5)], columns=["a", "b"]))
        s = df.select(SIM.equality(F.col("a"), F.col("b")).alias("s")).first()["s"]
        assert s == pytest.approx(1.0)


class TestRegistry:
    def test_all_registered(self):
        assert set(SIM.SIMILARITIES) == {"jaccard", "levenshtein", "equality"}
