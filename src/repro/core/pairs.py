"""Canonical record-pair representation and clustering->pairs conversion.

Frost's formal model (paper §1.2): a dataset ``D`` is a collection of
records; a record pair is an unordered 2-subset of ``D``; an experiment is
either a set of matches ``E ⊆ [D]^2`` or a disjoint clustering of ``D``.
This module provides the canonical DataFrame encodings of those objects,
the membership table of several pair sets, and the pair set of a
clustering; the clustering of a pair set is
:func:`repro.core.clustering.connected_components`.

Conventions (DESIGN.md §6):

- pair set: DataFrame ``(id1, id2[, similarity])`` with ``id1 < id2``
- clustering: DataFrame ``(rid, cluster)``
"""
from __future__ import annotations

from functools import reduce
from operator import or_

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.clustering import connected_components

PAIR_COLS = ("id1", "id2")


def by_pair(pairs: DataFrame) -> DataFrame:
    """``pairs`` hash-partitioned on ``(id1, id2)``, one partition per core.

    The layout of every pair set the platform builds, so a join or aggregate
    on the pair key of two such sets shuffles neither. One per core, as a
    cached plan runs without AQE
    (``spark.sql.optimizer.canChangeCachedPlanOutputPartitioning`` is off by
    default): nothing would coalesce ``spark.sql.shuffle.partitions`` small
    partitions, and every scan of a cached set would run that many tasks.
    """
    return pairs.repartition(pairs.sparkSession.sparkContext.defaultParallelism, *PAIR_COLS)


def canonicalize(pairs: DataFrame) -> DataFrame:
    """Return pairs with ``id1 < id2``, self-pairs dropped, duplicates removed.

    Extra columns (e.g. ``similarity``) are preserved; for duplicate rows of
    the same pair the maximum similarity wins (mirrors Snowman's import
    normalisation, which keeps one row per pair).

    The pair dedup of the codebase. The result is laid out by
    :func:`by_pair`: the dedup reuses that one exchange, and joins and
    aggregates on the pair key shuffle only their other side.
    """
    out = by_pair(
        pairs.withColumn("_lo", F.least("id1", "id2"))
        .withColumn("_hi", F.greatest("id1", "id2"))
        .filter(F.col("_lo") != F.col("_hi"))
        .drop("id1", "id2")
        .withColumnRenamed("_lo", "id1")
        .withColumnRenamed("_hi", "id2")
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


def checked(value: Column, listed_twice: Column) -> Column:
    """``value`` of an aggregate by ``(id1, id2)``, with the pair-set check.

    Reading it fails the action with Spark's ``USER_RAISED_EXCEPTION``
    naming the pair when ``listed_twice`` holds or ``id1 < id2`` is not true
    (reversed, self or NULL id).
    """
    ordered = F.coalesce(F.col("id1") < F.col("id2"), F.lit(False))
    msg = "pair (%s, %s) is not id1 < id2 or is listed twice in one set"
    error = F.raise_error(F.format_string(msg, "id1", "id2"))
    return F.when(listed_twice | ~ordered, error).otherwise(value)


def tag_memberships(sets: dict[str, DataFrame]) -> DataFrame:
    """The membership table of pair sets, the one place where pair sets meet.

    One row per pair of any set: ``id1, id2``, a 0/1 ``in_<name>`` per set
    and every other column of any set, the maximum over the sets that carry
    it (as in :func:`canonicalize`; NULL for a pair in no such set). The
    union is laid out by :func:`by_pair`; where every set already is, the
    optimizer drops that exchange. Every flag is :func:`checked`, "listed
    twice" meaning twice in one set (a filter would be folded away by a
    view's own ``in_<name> = 1`` filter). Raises ``ValueError`` for no sets,
    or for a carried column named ``_src`` or ``in_<name>``.
    """
    if not sets:
        raise ValueError("no pair sets to compare")
    clash = {"_src", *(f"in_{n}" for n in sets)} & {c for s in sets.values() for c in s.columns}
    if clash:
        raise ValueError(f"pair set columns {sorted(clash)} clash with the membership table's")
    tagged = [s.withColumn("_src", F.lit(n)) for n, s in sets.items()]
    union = reduce(lambda a, b: a.unionByName(b, allowMissingColumns=True), tagged)
    carried = [c for c in union.columns if c not in (*PAIR_COLS, "_src")]
    counts = [F.count_if(F.col("_src") == n) for n in sets]
    twice = reduce(or_, [c > 1 for c in counts])
    flags = [checked(c, twice).alias(f"in_{n}") for n, c in zip(sets, counts)]
    return (
        by_pair(union)
        .groupBy("id1", "id2")
        .agg(*flags, *[F.max(c).alias(c) for c in carried])
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


def closure_missing_pairs(pairs: DataFrame, records: DataFrame) -> DataFrame:
    """Pairs implied by the transitive closure but absent from ``pairs``.

    The size of this set is the paper's ground-truth-free consistency metric
    (§3.2.3): "the minimum number of pairs that must be added … for it to be
    transitively closed". Returns the missing pairs as a canonical pair set;
    ``pairs`` is checked as in :func:`tag_memberships`.
    """
    closed = pairs_from_clustering(connected_components(pairs, records))
    table = tag_memberships({"closed": closed, "pairs": pairs.select(*PAIR_COLS)})
    return table.filter("in_closed = 1 AND in_pairs = 0").select(*PAIR_COLS)
