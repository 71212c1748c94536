"""Sorting strategies — interestingness of pairs (paper §4.3).

Two rankings: the matcher's own similarity score (§4.3.1), and a
matcher-independent *column entropy* (§4.3.2): per-cell Shannon-style
entropy of the cell's tokens against their column-wide information content.
Pairs with high entropy carry many rare tokens and should be easy — when a
matcher fails on them, that is interesting.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.pairs import PAIR_COLS, checked
from repro.text import words


def sort_by_similarity(scored: DataFrame, descending: bool = True) -> DataFrame:
    """§4.3.1 — view the result from the matching solution's perspective."""
    col = F.col("similarity").desc() if descending else F.col("similarity").asc()
    return scored.orderBy(col, "id1", "id2")


def _token_entropy(dataset: DataFrame, attributes: list[str]) -> DataFrame:
    """``(rid, entropy)`` of the records with a token in ``attributes``.

    One row per token occurrence ``(rid, attr, token, cell_n)``, with
    ``cell_n`` the cell's token count; one (attr, token) count ``in_col``
    with the attribute's total ``col_n``. A cell's entropy is the mean, over
    its token occurrences, of ``log col_n − log in_col``, which equals the
    paper's Σ_t prob_t · (−log columnProb_t).
    """
    cells = F.array(
        *[
            F.struct(F.lit(a).alias("attr"), words(F.col(a)).alias("toks"))
            for a in attributes
        ]
    )
    occ = dataset.select("rid", F.inline(cells)).select(
        "rid", "attr", F.size("toks").alias("cell_n"), F.explode("toks").alias("token")
    )
    in_col = (
        occ.groupBy("attr", "token")
        .agg(F.count("*").alias("in_col"))
        .withColumn("col_n", F.sum("in_col").over(Window.partitionBy("attr")))
    )
    return occ.join(in_col, ["attr", "token"]).groupBy("rid").agg(
        F.sum((F.log("col_n") - F.log("in_col")) / F.col("cell_n")).alias("entropy")
    )


def record_entropy(dataset: DataFrame, attributes: list[str]) -> DataFrame:
    """§4.3.2 — ``(rid, entropy)``: the sum of a record's cell entropies.

    cellEntropy = Σ_t prob_t · (−log columnProb_t), where prob_t is the
    token's frequency within the cell and columnProb_t its frequency over
    all tokens of the column. Null/empty cells score 0.
    """
    ent = _token_entropy(dataset, attributes)
    return dataset.select("rid").join(ent, "rid", "left").select(
        "rid", F.coalesce("entropy", F.lit(0.0)).alias("entropy")
    )


def pair_entropy(
    pairs: DataFrame, dataset: DataFrame, attributes: list[str]
) -> DataFrame:
    """§4.3.2 — pair entropy = sum of both records' entropies.

    Adds an ``entropy`` column to the canonical pair set ``pairs`` for
    interestingness sorting: each pair is split into its two ends, joined
    once with the record entropies, and summed per pair. The sum is
    :func:`~repro.core.pairs.checked`: reading it fails the action for a
    pair listed twice or whose ``id1 < id2`` is not true.
    """
    ends = pairs.select(*pairs.columns, F.explode(F.array("id1", "id2")).alias("rid"))
    ent = _token_entropy(dataset, attributes)
    total = checked(F.sum(F.coalesce("entropy", F.lit(0.0))), F.count("*") != 2)
    extra = [F.max(c).alias(c) for c in pairs.columns if c not in PAIR_COLS]
    out = ends.join(ent, "rid", "left").groupBy(*PAIR_COLS).agg(*extra, total.alias("entropy"))
    return out.select(*pairs.columns, "entropy")


def sort_by_entropy(
    pairs: DataFrame, dataset: DataFrame, attributes: list[str], descending: bool = True
) -> DataFrame:
    """Pairs sorted by entropy (§4.3.2) — rare-token-rich pairs first."""
    out = pair_entropy(pairs, dataset, attributes)
    col = F.col("entropy").desc() if descending else F.col("entropy").asc()
    return out.orderBy(col, "id1", "id2")
