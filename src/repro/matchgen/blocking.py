"""Candidate generation (pipeline step 2, §1.2): blocking and windowing.

Produces the candidate pair subset that downstream similarity computation
scores — the step whose quality the paper's *reduction ratio* metric and
pair-based recall measure. Both techniques named in the paper are built:

- token blocking: records sharing a (non-stop-frequency) token of a
  blocking attribute become candidates [Papadakis et al. 2019];
- sorted neighborhood: records within a sliding window over a sort key
  [Christen 2012].
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.pairs import canonicalize
from repro.text import words


def token_blocking(
    dataset: DataFrame, attribute: str, max_token_df: int = 50
) -> DataFrame:
    """Candidate pairs sharing a lower-cased token of ``attribute``.

    Tokens shorter than two characters are ignored, and tokens appearing
    in more than ``max_token_df`` records are dropped (stop-token pruning)
    so frequent words do not explode the block sizes — the quadratic cost
    inside a block is the classic blocking trade-off.
    Pairs sharing several tokens are deduplicated by
    :func:`~repro.core.pairs.canonicalize`, so the candidates come out
    hash-partitioned on ``(id1, id2)`` into ``defaultParallelism``
    partitions, and so do the scored results built from them.
    """
    text = F.lower(F.col(attribute).cast("string"))
    long_words = F.filter(words(text), lambda t: F.length(t) >= 2)
    toks = dataset.select("rid", F.explode(F.array_distinct(long_words)).alias("token"))
    keep = (
        toks.groupBy("token")
        .agg(F.count("*").alias("df"))
        .filter((F.col("df") >= 2) & (F.col("df") <= max_token_df))
        .select("token")
    )
    pruned = toks.join(keep, "token")
    pairs = pruned.alias("a").join(
        pruned.alias("b"),
        (F.col("a.token") == F.col("b.token"))
        & (F.col("a.rid") < F.col("b.rid")),
    ).select(F.col("a.rid").alias("id1"), F.col("b.rid").alias("id2"))
    return canonicalize(pairs)


def sorted_neighborhood(
    dataset: DataFrame, key_attribute: str, window: int = 5
) -> DataFrame:
    """Candidate pairs within ``window`` positions of a sort on ``key_attribute``.

    The classic sorted-neighborhood method: sort by a blocking key and pair
    every record with its ``window - 1`` successors. The global sort window
    pulls every ``(rid, key)`` row into one partition: fine up to datasets
    of ``clustering.MAX_EDGES`` records, the scale the platform's driver-side
    closure is built for.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    w = Window.orderBy(F.lower(F.col(key_attribute).cast("string")), "rid")
    ranked = dataset.select("rid", F.row_number().over(w).alias("pos"))
    a = ranked.select(F.col("rid").alias("id1"), F.col("pos").alias("p1"))
    b = ranked.select(F.col("rid").alias("id2"), F.col("pos").alias("p2"))
    pairs = a.join(
        b,
        (F.col("p2") > F.col("p1")) & (F.col("p2") - F.col("p1") < window),
    ).select("id1", "id2")
    return canonicalize(pairs)
