"""Cluster-based quality metrics (paper §3.2.2).

These compare two disjoint clusterings of the same dataset — experiment vs
gold standard — and are immune to the TP/TN class imbalance of pair-based
metrics. All three metrics named in the paper are implemented:

- closest-cluster f1 [Benjelloun et al. 2009]
- variation of information [Meila 2003]
- generalized merge distance [Menestrina et al. 2010], via the linear-time
  "slice" algorithm

The heavy lifting (cluster intersection sizes) is one DataFrame join +
group-by; only the per-cluster reductions run on the driver, over data that
is linear in the number of clusters.
"""
from __future__ import annotations

import math
from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pairs import pair_count_of_clustering


def _intersections(exp: DataFrame, truth: DataFrame) -> DataFrame:
    """Sizes of all nonempty intersections between exp and truth clusters.

    Returns ``(ecluster, tcluster, n)``. Both inputs are clusterings
    ``(rid, cluster)`` over the same record set.
    """
    e = exp.select("rid", F.col("cluster").alias("ecluster"))
    t = truth.select("rid", F.col("cluster").alias("tcluster"))
    return e.join(t, "rid").groupBy("ecluster", "tcluster").agg(
        F.count("*").alias("n")
    )


def closest_cluster_f1(exp: DataFrame, truth: DataFrame) -> dict[str, float]:
    """Closest-cluster precision/recall/f1 [Benjelloun et al. 2009].

    Precision: average over experiment clusters of the best Jaccard
    similarity to any gold cluster; recall symmetric; f1 their harmonic mean.
    """
    inter = _intersections(exp, truth)
    esize = exp.groupBy("cluster").agg(F.count("*").alias("esize")).withColumnRenamed("cluster", "ecluster")
    tsize = truth.groupBy("cluster").agg(F.count("*").alias("tsize")).withColumnRenamed("cluster", "tcluster")
    jac = (
        inter.join(esize, "ecluster")
        .join(tsize, "tcluster")
        .withColumn("jac", F.col("n") / (F.col("esize") + F.col("tsize") - F.col("n")))
    )
    prec_row = (
        jac.groupBy("ecluster").agg(F.max("jac").alias("best")).agg(F.avg("best")).first()
    )
    rec_row = (
        jac.groupBy("tcluster").agg(F.max("jac").alias("best")).agg(F.avg("best")).first()
    )
    p = float(prec_row[0] or 0.0)
    r = float(rec_row[0] or 0.0)
    f = 2 * p * r / (p + r) if p + r else 0.0
    return {"cc_precision": p, "cc_recall": r, "cc_f1": f}


def variation_of_information(exp: DataFrame, truth: DataFrame) -> float:
    """VI(C, C') = H(C) + H(C') - 2 I(C, C') [Meila 2003], natural log.

    0 iff the clusterings are identical; a true metric on clusterings.
    Computed from the joint distribution of (experiment cluster, gold
    cluster) memberships.
    """
    inter = _intersections(exp, truth).collect()
    n = sum(r["n"] for r in inter)
    if n == 0:
        return 0.0
    esizes: dict = {}
    tsizes: dict = {}
    for r in inter:
        esizes[r["ecluster"]] = esizes.get(r["ecluster"], 0) + r["n"]
        tsizes[r["tcluster"]] = tsizes.get(r["tcluster"], 0) + r["n"]
    h_e = -sum((s / n) * math.log(s / n) for s in esizes.values())
    h_t = -sum((s / n) * math.log(s / n) for s in tsizes.values())
    mi = sum(
        (r["n"] / n)
        * math.log((r["n"] / n) / ((esizes[r["ecluster"]] / n) * (tsizes[r["tcluster"]] / n)))
        for r in inter
    )
    return h_e + h_t - 2 * mi


def generalized_merge_distance(
    exp: DataFrame,
    truth: DataFrame,
    merge_cost: Callable[[int, int], float] = lambda x, y: 1.0,
    split_cost: Callable[[int, int], float] = lambda x, y: 1.0,
) -> float:
    """GMD(exp → truth) via Menestrina et al.'s linear-time Slice algorithm.

    Cheapest sequence of cluster merges and splits transforming the
    experiment clustering into the gold clustering, where merging clusters of
    sizes (x, y) costs ``merge_cost(x, y)`` and splitting into parts of sizes
    (x, y) costs ``split_cost(x, y)``. Unit costs give the basic merge
    distance; ``merge_cost=λx,y: x*y, split_cost=0`` recovers pairwise-recall
    structure (and symmetrically for precision), per the paper.
    """
    inter = _intersections(exp, truth).collect()
    # Group intersection parts by experiment cluster: each exp cluster is
    # "sliced" into its overlaps with gold clusters.
    by_exp: dict = {}
    for r in inter:
        by_exp.setdefault(r["ecluster"], []).append((r["tcluster"], r["n"]))
    cost = 0.0
    built: dict = {}  # gold cluster -> size accumulated so far
    for parts in by_exp.values():
        p_size = sum(n for _, n in parts)
        for tcluster, n in parts:
            if p_size > n:  # split this part off the remainder
                cost += split_cost(n, p_size - n)
                p_size -= n
            acc = built.get(tcluster, 0)
            if acc > 0:  # merge into the gold cluster under construction
                cost += merge_cost(n, acc)
            built[tcluster] = acc + n
    return cost


def pairwise_from_gmd(exp: DataFrame, truth: DataFrame) -> dict[str, float]:
    """Pairwise precision/recall/f1 derived from GMD with product costs.

    Menestrina et al. show pairwise precision = 1 - GMD(E,T; merge=0,
    split=x·y) / |pairs(E)| and recall = 1 - GMD(E,T; merge=x·y, split=0)
    / |pairs(T)|. Used as a cross-check of the pair-based path.
    """
    split_only = generalized_merge_distance(
        exp, truth, merge_cost=lambda x, y: 0.0, split_cost=lambda x, y: float(x * y)
    )
    merge_only = generalized_merge_distance(
        exp, truth, merge_cost=lambda x, y: float(x * y), split_cost=lambda x, y: 0.0
    )
    ep, tp_ = pair_count_of_clustering(exp), pair_count_of_clustering(truth)
    p = 1.0 - split_only / ep if ep else 0.0
    r = 1.0 - merge_only / tp_ if tp_ else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return {"pw_precision": p, "pw_recall": r, "pw_f1": f}
