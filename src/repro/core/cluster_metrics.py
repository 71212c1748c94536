"""Cluster-based quality metrics (paper §3.2.2).

These compare two disjoint clusterings of the same dataset — experiment vs
gold standard — and are immune to the TP/TN class imbalance of pair-based
metrics. All three metrics named in the paper are implemented:

- closest-cluster f1 [Benjelloun et al. 2009]
- variation of information [Meila 2003]
- generalized merge distance [Menestrina et al. 2010], via the linear-time
  "slice" algorithm

All three are functions of one table: the sizes of the nonempty
intersections of experiment and gold clusters. The module is split the way
``confusion_counts`` and ``metrics`` are: :func:`intersections` is its only
Spark code (one join, one aggregate, one collect) and returns that table;
the metric functions are driver arithmetic over it, linear in its length.
Cluster sizes and pair counts Σ C(s, 2) are sums over the same table.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.metrics import pair_universe_size


def intersections(exp: DataFrame, truth: DataFrame) -> list[tuple]:
    """Sizes of all nonempty intersections between exp and truth clusters.

    Returns the rows ``(ecluster, tcluster, n)``. Both inputs are clusterings
    ``(rid, cluster)`` that list each record of the same record set once; a
    record with a cluster on one side only, or two rows on one side, raises
    ``ValueError`` naming the least such rid. The check reads the same
    aggregate, so valid input costs no extra job.
    """
    def side(df: DataFrame, name: str) -> DataFrame:
        return df.groupBy("rid").agg(
            F.min("cluster").alias(name), F.count("*").alias(f"{name}_n")
        )

    bad = F.col("ecluster").isNull() | F.col("tcluster").isNull()
    bad = bad | (F.col("ecluster_n") > 1) | (F.col("tcluster_n") > 1)
    rows = (
        side(exp, "ecluster")
        .join(side(truth, "tcluster"), "rid", "full")
        .groupBy("ecluster", "tcluster")
        .agg(F.count("*").alias("n"), F.min(F.when(bad, F.col("rid"))).alias("bad"))
        .collect()
    )
    bad_rids = [r["bad"] for r in rows if r["bad"] is not None]
    if bad_rids:
        raise ValueError(
            f"record {min(bad_rids)!r} has a cluster in only one clustering or two "
            "rows in one; both must list the same records once each"
        )
    return [(r["ecluster"], r["tcluster"], r["n"]) for r in rows]


def _sizes(table: list[tuple]) -> tuple[Counter, Counter]:
    """Experiment and gold cluster sizes: the row sums of the table per side."""
    esize: Counter = Counter()
    tsize: Counter = Counter()
    for e, t, n in table:
        esize[e] += n
        tsize[t] += n
    return esize, tsize


def closest_cluster_f1(table: list[tuple]) -> dict[str, float]:
    """Closest-cluster precision/recall/f1 [Benjelloun et al. 2009].

    Precision: average over experiment clusters of the best Jaccard
    similarity to any gold cluster; recall symmetric; f1 their harmonic mean.
    Clusters that do not intersect have Jaccard 0, so the table's rows
    hold every candidate for the best.
    """
    esize, tsize = _sizes(table)
    best_e: dict = {}
    best_t: dict = {}
    for e, t, n in table:
        jac = n / (esize[e] + tsize[t] - n)
        best_e[e] = max(best_e.get(e, 0.0), jac)
        best_t[t] = max(best_t.get(t, 0.0), jac)
    p = sum(best_e.values()) / len(best_e) if best_e else 0.0
    r = sum(best_t.values()) / len(best_t) if best_t else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return {"cc_precision": p, "cc_recall": r, "cc_f1": f}


def variation_of_information(table: list[tuple]) -> float:
    """VI(C, C') = H(C) + H(C') - 2 I(C, C') [Meila 2003], natural log.

    0 iff the clusterings are identical; a true metric on clusterings.
    Computed from the joint distribution of (experiment cluster, gold
    cluster) memberships.
    """
    esize, tsize = _sizes(table)
    n = sum(esize.values())
    if n == 0:
        return 0.0
    h_e = -sum((s / n) * math.log(s / n) for s in esize.values())
    h_t = -sum((s / n) * math.log(s / n) for s in tsize.values())
    mi = sum(
        (k / n) * math.log((k / n) / ((esize[e] / n) * (tsize[t] / n)))
        for e, t, k in table
    )
    return h_e + h_t - 2 * mi


def generalized_merge_distance(
    table: list[tuple],
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
    # Group intersection parts by experiment cluster: each exp cluster is
    # "sliced" into its overlaps with gold clusters.
    by_exp: dict = {}
    for e, t, n in table:
        by_exp.setdefault(e, []).append((t, n))
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


def pairwise_from_gmd(table: list[tuple]) -> dict[str, float]:
    """Pairwise precision/recall/f1 derived from GMD with product costs.

    Menestrina et al. show pairwise precision = 1 - GMD(E,T; merge=0,
    split=x·y) / |pairs(E)| and recall = 1 - GMD(E,T; merge=x·y, split=0)
    / |pairs(T)|. Used as a cross-check of the pair-based path.
    """
    split_only = generalized_merge_distance(
        table, merge_cost=lambda x, y: 0.0, split_cost=lambda x, y: float(x * y)
    )
    merge_only = generalized_merge_distance(
        table, merge_cost=lambda x, y: float(x * y), split_cost=lambda x, y: 0.0
    )
    esize, tsize = _sizes(table)
    ep = sum(map(pair_universe_size, esize.values()))
    tp_ = sum(map(pair_universe_size, tsize.values()))
    p = 1.0 - split_only / ep if ep else 0.0
    r = 1.0 - merge_only / tp_ if tp_ else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return {"pw_precision": p, "pw_recall": r, "pw_f1": f}
