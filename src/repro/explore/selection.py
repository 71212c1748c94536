"""Pair selection strategies (paper §4.2).

Result sets over real datasets are far too large to inspect pair by pair;
these strategies reduce them to the pairs worth a human's attention. All
operate on scored pair DataFrames ``(id1, id2, similarity[, correct])``
where ``correct`` is a 0/1 flag against a gold standard when available.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def around_threshold(
    scored: DataFrame,
    threshold: float,
    k: int,
    above_fraction: float = 0.5,
) -> DataFrame:
    """§4.2.1 — the k pairs closest to the similarity threshold.

    ``above_fraction`` splits the budget between pairs at/above and below
    the threshold (default half/half; the paper also suggests using the
    ratio of misclassifications above vs below). Border cases: a slight
    threshold shift would flip these pairs.
    """
    k_above = round(k * above_fraction)
    k_below = k - k_above
    above = (
        scored.filter(F.col("similarity") >= threshold)
        .orderBy(F.col("similarity").asc())
        .limit(k_above)
    )
    below = (
        scored.filter(F.col("similarity") < threshold)
        .orderBy(F.col("similarity").desc())
        .limit(k_below)
    )
    return above.unionByName(below)


def incorrect_outliers(scored: DataFrame, threshold: float, k: int) -> DataFrame:
    """§4.2.2 — incorrectly labeled pairs furthest from the threshold.

    Confidently-wrong decisions; a common "misleading feature" among them
    points at decision-model errors. Requires a ``correct`` column.
    """
    return (
        scored.filter(F.col("correct") == 0)
        .withColumn("distance", F.abs(F.col("similarity") - F.lit(threshold)))
        .orderBy(F.col("distance").desc())
        .limit(k)
    )


def _with_partitions(scored: DataFrame, k: int) -> DataFrame:
    """Split by similarity rank into k equally-sized partitions (0 = most similar).

    The global rank window pulls every row into one partition: fine up to
    ``clustering.MAX_EDGES``-scale results, the bound the platform already
    puts on the matches it collects to the driver.
    """
    w = Window.orderBy(F.col("similarity").desc(), "id1", "id2")
    return scored.withColumn(
        "partition",
        F.least(
            F.floor((F.row_number().over(w) - 1) * k / F.count("*").over(Window.partitionBy())),
            F.lit(k - 1),
        ).cast("int"),
    )


def partition_summaries(scored: DataFrame, k: int) -> DataFrame:
    """Per-partition confusion labels (§4.2.3): confident vs unconfident sections.

    Returns one row per partition with pair counts, correct/incorrect counts
    and the error rate, so users can focus on high-error partitions.
    """
    return (
        _with_partitions(scored, k)
        .groupBy("partition")
        .agg(
            F.count("*").alias("pairs"),
            F.sum("correct").alias("n_correct"),
            F.sum(1 - F.col("correct")).alias("n_incorrect"),
            F.avg(1 - F.col("correct")).alias("error_rate"),
            F.min("similarity").alias("min_similarity"),
            F.max("similarity").alias("max_similarity"),
        )
        .orderBy("partition")
    )


def representatives(
    scored: DataFrame, k: int, b: int, strategy: str = "quantile", seed: int = 0
) -> DataFrame:
    """§4.2.3 — b representative pairs from each of k partitions.

    Strategies:
    - ``random``: b uniform samples per partition.
    - ``class_based``: b samples split proportionally to the partition's
      correct/incorrect counts (requires ``correct``).
    - ``quantile``: the pairs at b similarity quantiles (0, 1/(b-1), …, 1)
      of each partition — unbiased coverage of the partition's range.
    """
    parts = _with_partitions(scored, k)
    if strategy == "quantile":
        w = Window.partitionBy("partition").orderBy(
            F.col("similarity").desc(), "id1", "id2"
        )
        ranked = parts.withColumn("_rank", F.row_number().over(w)).withColumn(
            "_n", F.count("*").over(Window.partitionBy("partition"))
        )
        # Positions of the b quantiles within the partition: round(q*(n-1))+1.
        conds = [
            F.col("_rank")
            == (F.round(F.lit(q) * (F.col("_n") - 1)) + 1).cast("int")
            for q in [i / max(b - 1, 1) for i in range(b)]
        ]
        return ranked.filter(reduce(lambda a, c: a | c, conds)).drop("_rank", "_n")
    if strategy == "random":
        w = Window.partitionBy("partition").orderBy(F.rand(seed))
        return (
            parts.withColumn("_r", F.row_number().over(w))
            .filter(F.col("_r") <= b)
            .drop("_r")
        )
    if strategy == "class_based":
        counts = parts.groupBy("partition").agg(
            F.count("*").alias("_n"), F.sum("correct").alias("_nt")
        )
        with_quota = parts.join(counts, "partition").withColumn(
            "_quota",
            F.when(
                F.col("correct") == 1,
                F.round(F.lit(b) * F.col("_nt") / F.col("_n")),
            ).otherwise(F.lit(b) - F.round(F.lit(b) * F.col("_nt") / F.col("_n"))),
        )
        w = Window.partitionBy("partition", "correct").orderBy(F.rand(seed))
        return (
            with_quota.withColumn("_r", F.row_number().over(w))
            .filter(F.col("_r") <= F.col("_quota"))
            .drop("_r", "_n", "_nt", "_quota")
        )
    raise ValueError(f"unknown strategy {strategy!r}")


def plain_result_pairs(pairs: DataFrame, closure_added: DataFrame) -> DataFrame:
    """§4.2.4 — hide pairs added by the clustering (transitive-closure) step.

    ``closure_added`` is the pair set the clustering algorithm introduced;
    what remains is exactly what the matching solution itself labeled.
    """
    return pairs.join(
        closure_added.select("id1", "id2"), on=["id1", "id2"], how="left_anti"
    )
