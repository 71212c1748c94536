"""Sorting strategies — interestingness of pairs (paper §4.3).

Two rankings: the matcher's own similarity score (§4.3.1), and a
matcher-independent *column entropy* (§4.3.2): per-cell Shannon-style
entropy of the cell's tokens against their column-wide information content.
Pairs with high entropy carry many rare tokens and should be easy — when a
matcher fails on them, that is interesting.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def sort_by_similarity(scored: DataFrame, descending: bool = True) -> DataFrame:
    """§4.3.1 — view the result from the matching solution's perspective."""
    col = F.col("similarity").desc() if descending else F.col("similarity").asc()
    return scored.orderBy(col, "id1", "id2")


def _tokens(col: str):
    # Whitespace tokenization of non-null string cells, empty tokens dropped.
    return F.filter(
        F.split(F.coalesce(F.col(col).cast("string"), F.lit("")), r"\s+"),
        lambda t: t != "",
    )


def cell_entropy(dataset: DataFrame, attribute: str) -> DataFrame:
    """Entropy of every cell of ``attribute`` (paper formula, §4.3.2).

    cellEntropy = Σ_t prob_t · (−log columnProb_t), where prob_t is the
    token's frequency within the cell and columnProb_t its frequency over
    all tokens of the column. Returns ``(rid, entropy)``; null/empty cells
    score 0.
    """
    toks = (
        dataset.select("rid", F.explode(_tokens(attribute)).alias("token"))
    )
    cell_counts = toks.groupBy("rid", "token").agg(F.count("*").alias("in_cell"))
    cell_total = toks.groupBy("rid").agg(F.count("*").alias("cell_n"))
    col_counts = toks.groupBy("token").agg(F.count("*").alias("in_col"))
    col_total = toks.agg(F.count("*").alias("col_n"))
    per_token = (
        cell_counts.join(cell_total, "rid")
        .join(col_counts, "token")
        .crossJoin(col_total)
        .withColumn(
            "contrib",
            (F.col("in_cell") / F.col("cell_n"))
            * -F.log(F.col("in_col") / F.col("col_n")),
        )
    )
    ent = per_token.groupBy("rid").agg(F.sum("contrib").alias("entropy"))
    return (
        dataset.select("rid")
        .join(ent, "rid", "left")
        .withColumn("entropy", F.coalesce("entropy", F.lit(0.0)))
    )


def record_entropy(dataset: DataFrame, attributes: list[str]) -> DataFrame:
    """Sum of cell entropies over ``attributes`` for each record."""
    out = dataset.select("rid").withColumn("entropy", F.lit(0.0))
    for a in attributes:
        ce = cell_entropy(dataset, a).withColumnRenamed("entropy", f"_e_{a}")
        out = out.join(ce, "rid").withColumn(
            "entropy", F.col("entropy") + F.col(f"_e_{a}")
        ).drop(f"_e_{a}")
    return out


def pair_entropy(
    pairs: DataFrame, dataset: DataFrame, attributes: list[str]
) -> DataFrame:
    """§4.3.2 — pair entropy = sum of both records' cell entropies.

    Adds an ``entropy`` column to ``pairs`` for interestingness sorting.
    """
    rec = record_entropy(dataset, attributes)
    e1 = rec.select(F.col("rid").alias("id1"), F.col("entropy").alias("_e1"))
    e2 = rec.select(F.col("rid").alias("id2"), F.col("entropy").alias("_e2"))
    return (
        pairs.join(e1, "id1", "left")
        .join(e2, "id2", "left")
        .withColumn(
            "entropy",
            F.coalesce("_e1", F.lit(0.0)) + F.coalesce("_e2", F.lit(0.0)),
        )
        .drop("_e1", "_e2")
    )


def sort_by_entropy(
    pairs: DataFrame, dataset: DataFrame, attributes: list[str], descending: bool = True
) -> DataFrame:
    """Pairs sorted by entropy (§4.3.2) — rare-token-rich pairs first."""
    out = pair_entropy(pairs, dataset, attributes)
    col = F.col("entropy").desc() if descending else F.col("entropy").asc()
    return out.orderBy(col, "id1", "id2")
