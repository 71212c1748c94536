"""Tests for repro.core.cluster_metrics — the intersection table, ccF1, VI, GMD."""
import math

import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import cluster_metrics as CM
from repro.core.confusion import confusion_counts
from repro.core.metrics import precision, recall
from repro.core.pairs import pairs_from_clustering


def _cl(spark, assignment: dict):
    rows = [(r, c) for r, c in assignment.items()]
    return spark.createDataFrame(pd.DataFrame(rows, columns=["rid", "cluster"]))


def _table(spark, exp: dict, truth: dict) -> list[tuple]:
    return CM.intersections(_cl(spark, exp), _cl(spark, truth))


@pytest.fixture
def identical(spark):
    a = {"a": 1, "b": 1, "c": 2, "d": 2, "e": 3}
    return _table(spark, a, a)


class TestIntersections:
    def test_hand_computed_table(self, spark):
        exp = {"a": 1, "b": 1, "c": 2, "d": 2}
        truth = {"a": 1, "b": 1, "c": 1, "d": 2}
        assert sorted(_table(spark, exp, truth)) == [(1, 1, 2), (2, 1, 1), (2, 2, 1)]

    @pytest.mark.parametrize(
        "sizes,expected", [([1], 0), ([2], 1), ([3], 3), ([3, 2, 1], 4), ([5, 5], 20)]
    )
    def test_pair_count_is_sum_of_binomials(self, spark, sizes, expected):
        # Against itself, a clustering's table holds one row per cluster of
        # its size, so its pair count is Σ C(n, 2) over the table.
        cl, rid = {}, 0
        for c, n in enumerate(sizes):
            for _ in range(n):
                cl[f"r{rid}"] = c
                rid += 1
        table = _table(spark, cl, cl)
        assert sorted(n for _, _, n in table) == sorted(sizes)
        assert sum(math.comb(n, 2) for _, _, n in table) == expected

    def test_record_missing_from_truth_raises_naming_it(self, spark):
        with pytest.raises(ValueError, match=r"record 'x' has a cluster in only one"):
            _table(spark, {"a": 1, "b": 1, "x": 2}, {"a": 1, "b": 2})

    def test_least_orphan_on_either_side_is_named(self, spark):
        # "d" is missing from exp, "c" and "e" from truth: "c" is the least.
        with pytest.raises(ValueError, match=r"record 'c'"):
            _table(spark, {"a": 1, "b": 1, "c": 1, "e": 2}, {"a": 1, "b": 1, "d": 2})

    @pytest.mark.parametrize(
        "exp,truth,named",
        [
            ([("a", 1), ("a", 2), ("b", 1)], [("a", 1), ("b", 1)], "a"),
            # "c" repeats in exp, "b" in truth: "b" is the least.
            ([("b", 1), ("c", 1), ("c", 2)], [("b", 1), ("b", 1), ("c", 1)], "b"),
        ],
    )
    def test_record_listed_twice_raises_naming_it(self, spark, exp, truth, named):
        e, t = (spark.createDataFrame(x, "rid string, cluster int") for x in (exp, truth))
        with pytest.raises(ValueError, match=rf"record '{named}' .* or two rows in one"):
            CM.intersections(e, t)

    def test_null_cluster_counts_as_missing(self, spark):
        exp = spark.createDataFrame([("a", 1), ("b", None)], "rid string, cluster int")
        truth = spark.createDataFrame([("a", 1), ("b", 1)], "rid string, cluster int")
        with pytest.raises(ValueError, match=r"record 'b'"):
            CM.intersections(exp, truth)


class TestClosestClusterF1:
    def test_identical_clusterings_score_one(self, identical):
        out = CM.closest_cluster_f1(identical)
        assert out["cc_precision"] == pytest.approx(1.0)
        assert out["cc_recall"] == pytest.approx(1.0)
        assert out["cc_f1"] == pytest.approx(1.0)

    def test_all_singletons_vs_one_cluster(self, spark):
        exp = {"a": "a", "b": "b", "c": "c"}
        truth = {"a": 1, "b": 1, "c": 1}
        out = CM.closest_cluster_f1(_table(spark, exp, truth))
        # Every singleton has Jaccard 1/3 with the one gold cluster.
        assert out["cc_precision"] == pytest.approx(1 / 3)
        assert out["cc_recall"] == pytest.approx(1 / 3)

    def test_hand_computed_mixed_case(self, spark):
        exp = {"a": 1, "b": 1, "c": 2, "d": 2}
        truth = {"a": 1, "b": 1, "c": 1, "d": 2}
        # exp cluster {a,b}: best J = 2/3 (vs {a,b,c}); {c,d}: J = 1/2 (vs {d})
        # truth {a,b,c}: best J = 2/3; {d}: J = 1/2
        out = CM.closest_cluster_f1(_table(spark, exp, truth))
        assert out["cc_precision"] == pytest.approx((2 / 3 + 1 / 2) / 2)
        assert out["cc_recall"] == pytest.approx((2 / 3 + 1 / 2) / 2)


class TestVariationOfInformation:
    def test_identical_is_zero(self, identical):
        assert CM.variation_of_information(identical) == pytest.approx(0.0)

    def test_symmetry(self, spark):
        exp = {"a": 1, "b": 1, "c": 2, "d": 3}
        truth = {"a": 1, "b": 2, "c": 2, "d": 2}
        assert CM.variation_of_information(_table(spark, exp, truth)) == pytest.approx(
            CM.variation_of_information(_table(spark, truth, exp))
        )

    def test_known_value_two_halves(self, spark):
        # One cluster vs two equal halves of 4 records: VI = log 2.
        exp = {"a": 1, "b": 1, "c": 1, "d": 1}
        truth = {"a": 1, "b": 1, "c": 2, "d": 2}
        assert CM.variation_of_information(_table(spark, exp, truth)) == pytest.approx(
            math.log(2)
        )

    def test_bounded_by_log_n(self, spark):
        exp = {f"r{i}": i for i in range(6)}
        truth = {f"r{i}": 0 for i in range(6)}
        assert CM.variation_of_information(_table(spark, exp, truth)) <= math.log(6) + 1e-9


class TestGeneralizedMergeDistance:
    def test_identical_costs_zero(self, identical):
        assert CM.generalized_merge_distance(identical) == 0.0

    def test_unit_cost_single_merge(self, spark):
        table = _table(spark, {"a": 1, "b": 2}, {"a": 1, "b": 1})
        assert CM.generalized_merge_distance(table) == 1.0

    def test_unit_cost_single_split(self, spark):
        table = _table(spark, {"a": 1, "b": 1}, {"a": 1, "b": 2})
        assert CM.generalized_merge_distance(table) == 1.0

    def test_unit_cost_mixed(self, spark):
        # {a,b,c} + {d} -> {a,b} + {c,d}: one split + one merge.
        exp = {"a": 1, "b": 1, "c": 1, "d": 2}
        truth = {"a": 1, "b": 1, "c": 2, "d": 2}
        assert CM.generalized_merge_distance(_table(spark, exp, truth)) == 2.0

    def test_singletons_to_one_cluster_needs_n_minus_1_merges(self, spark):
        exp = {f"r{i}": i for i in range(5)}
        truth = {f"r{i}": 0 for i in range(5)}
        assert CM.generalized_merge_distance(_table(spark, exp, truth)) == 4.0


class TestPairwiseFromGMD:
    def test_identical_is_perfect(self, identical):
        out = CM.pairwise_from_gmd(identical)
        assert out["pw_precision"] == pytest.approx(1.0)
        assert out["pw_recall"] == pytest.approx(1.0)

    def test_matches_pair_based_metrics(self, spark):
        exp = _cl(spark, {"a": 1, "b": 1, "c": 1, "d": 2, "e": 2})
        truth = _cl(spark, {"a": 1, "b": 1, "c": 2, "d": 2, "e": 2})
        out = CM.pairwise_from_gmd(CM.intersections(exp, truth))
        c = confusion_counts(
            pairs_from_clustering(exp), pairs_from_clustering(truth), n_records=5
        )
        assert out["pw_precision"] == pytest.approx(precision(c))
        assert out["pw_recall"] == pytest.approx(recall(c))


# Two clusterings of one record set, as cluster labels per record.
N = 9
SINGLETONS = list(range(N))
ONE_CLUSTER = [0] * N
MIXED = [0, 0, 0, 1, 1, 2, 3, 3, 4]
labels = st.lists(st.integers(0, 4), min_size=N, max_size=N)


def _assignment(labels: list[int]) -> dict:
    return {f"r{i}": c for i, c in enumerate(labels)}


def _clusters(labels: list[int]) -> list[set]:
    out: dict = {}
    for i, c in enumerate(labels):
        out.setdefault(c, set()).add(i)
    return list(out.values())


def _best_jaccard(a: list[set], b: list[set]) -> float:
    """Mean over ``a`` of the best Jaccard to any cluster of ``b``, brute force."""
    return sum(max(len(x & y) / len(x | y) for y in b) for x in a) / len(a)


def _vi(exp: list[int], truth: list[int]) -> float:
    joint = pd.crosstab(pd.Series(exp), pd.Series(truth)).to_numpy() / len(exp)
    pe, pt = joint.sum(axis=1), joint.sum(axis=0)

    def h(p):
        return -sum(x * math.log(x) for x in p if x > 0)

    mi = sum(
        joint[i, j] * math.log(joint[i, j] / (pe[i] * pt[j]))
        for i in range(len(pe))
        for j in range(len(pt))
        if joint[i, j] > 0
    )
    return h(pe) + h(pt) - 2 * mi


def _unit_gmd(exp: list[int], truth: list[int]) -> int:
    """Σ_e (parts_e − 1) + Σ_t (parts_t − 1): split each cluster into its parts, merge the parts."""
    df = pd.DataFrame({"e": exp, "t": truth})
    return int((df.groupby("e")["t"].nunique() - 1).sum() + (df.groupby("t")["e"].nunique() - 1).sum())


class TestAgainstReference:
    @settings(max_examples=20, deadline=None)
    @given(exp=labels, truth=labels)
    @example(exp=SINGLETONS, truth=SINGLETONS)
    @example(exp=SINGLETONS, truth=ONE_CLUSTER)
    @example(exp=ONE_CLUSTER, truth=SINGLETONS)
    @example(exp=ONE_CLUSTER, truth=ONE_CLUSTER)
    @example(exp=MIXED, truth=MIXED)
    def test_metrics_match_reference(self, spark, exp, truth):
        table = _table(spark, _assignment(exp), _assignment(truth))
        ce, ct = _clusters(exp), _clusters(truth)
        cc = CM.closest_cluster_f1(table)
        assert cc["cc_precision"] == pytest.approx(_best_jaccard(ce, ct))
        assert cc["cc_recall"] == pytest.approx(_best_jaccard(ct, ce))
        assert CM.variation_of_information(table) == pytest.approx(_vi(exp, truth), abs=1e-12)
        assert CM.generalized_merge_distance(table) == _unit_gmd(exp, truth)

    @settings(max_examples=8, deadline=None)
    @given(exp=labels, truth=labels)
    @example(exp=SINGLETONS, truth=ONE_CLUSTER)
    @example(exp=MIXED, truth=MIXED)
    def test_pairwise_from_gmd_matches_confusion(self, spark, exp, truth):
        e, t = _cl(spark, _assignment(exp)), _cl(spark, _assignment(truth))
        out = CM.pairwise_from_gmd(CM.intersections(e, t))
        c = confusion_counts(pairs_from_clustering(e), pairs_from_clustering(t), n_records=N)
        assert out["pw_precision"] == pytest.approx(precision(c))
        assert out["pw_recall"] == pytest.approx(recall(c))
