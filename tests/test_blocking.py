"""Tests for repro.matchgen.blocking — candidate generation (§1.2 step 2)."""
import itertools
import re
from collections import defaultdict

import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.matchgen.blocking import sorted_neighborhood, token_blocking


def _ds(spark, rows, cols=("rid", "name")):
    return spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)))


class TestTokenBlocking:
    def test_shared_token_pairs(self, spark):
        ds = _ds(
            spark,
            [("a", "dell laptop"), ("b", "dell notebook"), ("c", "apple phone")],
        )
        got = sorted(map(tuple, token_blocking(ds, "name").collect()))
        assert got == [("a", "b")]

    def test_canonical_order(self, spark):
        ds = _ds(spark, [("z", "shared token"), ("a", "shared word")])
        got = token_blocking(ds, "name").collect()
        assert got[0]["id1"] == "a" and got[0]["id2"] == "z"

    def test_stop_token_pruned(self, spark):
        rows = [(f"r{i:02d}", "common") for i in range(10)]
        ds = _ds(spark, rows)
        assert token_blocking(ds, "name", max_token_df=5).count() == 0

    def test_no_duplicate_pairs_from_multiple_shared_tokens(self, spark):
        ds = _ds(spark, [("a", "foo bar"), ("b", "foo bar")])
        assert token_blocking(ds, "name").count() == 1

    def test_min_token_len(self, spark):
        ds = _ds(spark, [("a", "i laptop"), ("b", "i phone")])
        assert token_blocking(ds, "name").count() == 0

    def test_recall_on_clustered_data(self, spark):
        from repro.core.confusion import confusion_counts
        from repro.core.metrics import recall
        from repro.core.pairs import pairs_from_clustering
        from repro.matchgen.generator import clustered_dataset

        ds, gold_cl = clustered_dataset(
            spark, n_entities=40, dup_fraction=0.5, null_prob=0.0, seed=7
        )
        cands = token_blocking(ds, "name", max_token_df=30)
        gold = pairs_from_clustering(gold_cl)
        c = confusion_counts(cands, gold, n_records=ds.count())
        # Blocking must keep most true pairs (candidate-generation recall).
        assert recall(c) > 0.8


def _blocking_ref(names: list, max_token_df: int) -> set[tuple[str, str]]:
    """Pairs of rids sharing a lower-cased token of 2+ characters held by
    2..max_token_df records."""
    holders = defaultdict(set)
    for i, name in enumerate(names):
        for t in re.split(r"[ \t\n\x0b\f\r]+", (name or "").lower()):
            if len(t) >= 2:
                holders[t].add(f"r{i:02d}")
    return {
        pair
        for rids in holders.values()
        if 2 <= len(rids) <= max_token_df
        for pair in itertools.combinations(sorted(rids), 2)
    }


# Names glued from words and whitespace runs: a leading, trailing or
# doubled separator, a one-letter word, or a case variant of another word.
names = st.none() | st.lists(
    st.sampled_from(["ab", "AB", "cd", "e", "Ef", "ef", " ", "  ", "\t", "\n"]),
    max_size=8,
).map("".join)


class TestTokenBlockingReference:
    @settings(max_examples=8, deadline=None)
    @given(rows=st.lists(names, min_size=2, max_size=8), max_token_df=st.integers(2, 5))
    @example(rows=["ab cd", " AB\te ", None, "", "cd\nab"], max_token_df=2)
    def test_matches_python_reference(self, spark, rows, max_token_df):
        ds = spark.createDataFrame(
            [(f"r{i:02d}", n) for i, n in enumerate(rows)], "rid string, name string"
        )
        got = {tuple(r) for r in token_blocking(ds, "name", max_token_df).collect()}
        assert got == _blocking_ref(rows, max_token_df)


class TestSortedNeighborhood:
    def test_window_two_pairs_neighbors_only(self, spark):
        ds = _ds(spark, [("a", "aa"), ("b", "bb"), ("c", "cc")])
        got = sorted(map(tuple, sorted_neighborhood(ds, "name", window=2).collect()))
        assert got == [("a", "b"), ("b", "c")]

    def test_window_three(self, spark):
        ds = _ds(spark, [("a", "aa"), ("b", "bb"), ("c", "cc")])
        got = sorted(map(tuple, sorted_neighborhood(ds, "name", window=3).collect()))
        assert got == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_pair_count_formula(self, spark):
        rows = [(f"r{i:02d}", f"k{i:02d}") for i in range(10)]
        ds = _ds(spark, rows)
        # n records, window w: (w-1) pairs per record minus the tail.
        assert sorted_neighborhood(ds, "name", window=4).count() == 9 + 8 + 7

    def test_invalid_window_raises(self, spark):
        ds = _ds(spark, [("a", "aa")])
        with pytest.raises(ValueError):
            sorted_neighborhood(ds, "name", window=1)

    def test_similar_keys_become_neighbors(self, spark):
        ds = _ds(
            spark,
            [("a", "dell laptop"), ("b", "zebra"), ("c", "dell laptops")],
        )
        got = sorted(map(tuple, sorted_neighborhood(ds, "name", window=2).collect()))
        assert ("a", "c") in got
