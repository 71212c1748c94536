"""Canonical record-pair representation and clustering<->pairs conversion.

Frost's formal model (paper §1.2): a dataset ``D`` is a collection of
records; a record pair is an unordered 2-subset of ``D``; an experiment is
either a set of matches ``E ⊆ [D]^2`` or a disjoint clustering of ``D``.
This module provides the canonical DataFrame encodings of those objects
and conversions between them.

Conventions (DESIGN.md §6):

- pair set: DataFrame ``(id1, id2[, similarity])`` with ``id1 < id2``
- clustering: DataFrame ``(rid, cluster)``
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

PAIR_COLS = ("id1", "id2")


def canonicalize(pairs: DataFrame, id1: str = "id1", id2: str = "id2") -> DataFrame:
    """Return pairs with ``id1 < id2``, self-pairs dropped, duplicates removed.

    Extra columns (e.g. ``similarity``) are preserved; for duplicate rows of
    the same pair the maximum similarity wins (mirrors Snowman's import
    normalisation, which keeps one row per pair).

    The pair dedup of the codebase. The result is hash-partitioned on
    ``(id1, id2)`` into the session's ``defaultParallelism`` partitions, one
    per core: the dedup reuses that one exchange, and joins and aggregates
    on the pair key shuffle only their other side. The count is set here
    because a cached plan runs without AQE
    (``spark.sql.optimizer.canChangeCachedPlanOutputPartitioning`` is off by
    default), so nothing would coalesce ``spark.sql.shuffle.partitions``
    small partitions, and every later scan of a cached result would run that
    many tasks.
    """
    lo = F.least(F.col(id1), F.col(id2))
    hi = F.greatest(F.col(id1), F.col(id2))
    out = (
        pairs.withColumn("_lo", lo)
        .withColumn("_hi", hi)
        .filter(F.col("_lo") != F.col("_hi"))
        .drop(id1, id2)
        .withColumnRenamed("_lo", "id1")
        .withColumnRenamed("_hi", "id2")
        .repartition(pairs.sparkSession.sparkContext.defaultParallelism, "id1", "id2")
    )
    extra = [c for c in out.columns if c not in PAIR_COLS]
    if extra:
        agg = [F.max(c).alias(c) for c in extra]
        out = out.groupBy("id1", "id2").agg(*agg)
    else:
        out = out.dropDuplicates(["id1", "id2"])
    return out.select("id1", "id2", *extra)


def with_records(
    pairs: DataFrame, records: DataFrame, columns: list[str], how: str = "inner"
) -> DataFrame:
    """``pairs`` plus ``a_<col>`` and ``b_<col>`` from the records behind ``id1`` and ``id2``.

    The one pair→record join of the codebase. ``records`` is projected to
    ``rid`` and ``columns`` and broadcast to both joins, so the pair table
    is never shuffled for them and keeps its partitioning: a result
    partitioned on ``(id1, id2)`` stays so for later joins and aggregates
    on the pair key. Assumes the selected record columns fit in each
    executor's memory (as ``clustering.MAX_EDGES`` bounds the matches held
    on the driver). ``how`` is ``inner`` or ``left``.
    """
    def side(key: str, prefix: str) -> DataFrame:
        return F.broadcast(
            records.select(
                F.col("rid").alias(key), *[F.col(c).alias(f"{prefix}_{c}") for c in columns]
            )
        )

    return (
        pairs.join(side("id1", "a"), "id1", how)
        .join(side("id2", "b"), "id2", how)
        .select(
            *pairs.columns, *[f"a_{c}" for c in columns], *[f"b_{c}" for c in columns]
        )
    )


def pairs_from_clustering(clustering: DataFrame) -> DataFrame:
    """All intra-cluster pairs of a clustering ``(rid, cluster)``.

    This is the pair-set view of a (transitively closed) experiment or gold
    standard: every unordered pair of records sharing a cluster id.
    """
    a = clustering.select(F.col("rid").alias("id1"), "cluster")
    b = clustering.select(F.col("rid").alias("id2"), "cluster")
    return (
        a.join(b, on="cluster")
        .filter(F.col("id1") < F.col("id2"))
        .select("id1", "id2")
    )


def clustering_from_pairs(pairs: DataFrame, records: DataFrame) -> DataFrame:
    """Transitively close a pair set into a clustering over ``records``.

    ``records`` must expose a ``rid`` column covering the whole dataset so
    that unmatched records become singleton clusters. Delegates to the
    connected-components substrate (duplicate-clustering step 5 of the
    matching pipeline, §1.2).
    """
    from repro.core.clustering import connected_components

    return connected_components(pairs, records.select("rid"))


def closure_missing_pairs(pairs: DataFrame, records: DataFrame) -> DataFrame:
    """Pairs implied by the transitive closure but absent from ``pairs``.

    The size of this set is the paper's ground-truth-free consistency metric
    (§3.2.3): "the minimum number of pairs that must be added … for it to be
    transitively closed". Returns the missing pairs as a canonical pair set.
    """
    clustering = clustering_from_pairs(pairs, records)
    closed = pairs_from_clustering(clustering)
    return closed.join(
        pairs.select("id1", "id2"), on=["id1", "id2"], how="left_anti"
    )
