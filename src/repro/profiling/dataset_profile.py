"""Dataset profiling for benchmark-dataset selection (paper §3.1.3, App. C.1).

Practitioners must pick a benchmark dataset that resembles their use-case
dataset; these metrics quantify the resemblance. The five Table-2 metrics:

- **Sparsity (SP)** — fraction of missing attribute values over the relevant
  attributes [Primpeli & Bizer 2020].
- **Textuality (TX)** — average number of whitespace words per non-null
  attribute value [Primpeli & Bizer 2020].
- **Tuple count (TC)** — record count; dataset size shifts the optimal
  similarity threshold [Draisbach & Naumann 2013].
- **Positive ratio (PR)** — true-duplicate pairs / all labeled pairs. The
  SIGMOD-contest benchmarks ship labeled candidate-pair lists, so the
  denominator is that labeled universe (documented interpretation; with no
  labeled list, C(n,2) is used).
- **Vocabulary similarity (VS)** — Jaccard of the whitespace-token
  vocabularies of two datasets.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.text import words


def _attr_cols(dataset: DataFrame, attributes: list[str] | None) -> list[str]:
    return attributes or [c for c in dataset.columns if c != "rid"]


def _profile(dataset: DataFrame, attributes: list[str] | None) -> dict[str, float]:
    """SP, TX and TC from one aggregate over ``dataset``."""
    attrs = _attr_cols(dataset, attributes)
    n, values, n_words = dataset.agg(
        F.count("*"),
        sum((F.count(a) for a in attrs), F.lit(0)),
        sum((F.sum(F.size(words(F.col(a)))) for a in attrs), F.lit(0)),
    ).first()
    cells = n * len(attrs)
    return {
        "SP": (cells - values) / cells if cells else 0.0,
        "TX": n_words / values if values else 0.0,
        "TC": float(n),
    }


def sparsity(dataset: DataFrame, attributes: list[str] | None = None) -> float:
    """SP: missing attribute values / all attribute values, in [0, 1]."""
    return _profile(dataset, attributes)["SP"]


def textuality(dataset: DataFrame, attributes: list[str] | None = None) -> float:
    """TX: average word count of non-null attribute values."""
    return _profile(dataset, attributes)["TX"]


def positive_ratio(
    gold_pairs: DataFrame,
    labeled_pairs: DataFrame | None = None,
    n_records: int | None = None,
) -> float:
    """PR: true duplicate pairs / labeled universe (or C(n,2) without one)."""
    pos = gold_pairs.count()
    if labeled_pairs is not None:
        denom = labeled_pairs.count()
    elif n_records is not None:
        denom = n_records * (n_records - 1) // 2
    else:
        raise ValueError("pass labeled_pairs or n_records")
    return pos / denom if denom else 0.0


def vocabulary(dataset: DataFrame) -> DataFrame:
    """The whitespace-token vocabulary of every column but ``rid``, as a 1-column DF."""
    attrs = _attr_cols(dataset, None)
    text = F.concat_ws(" ", *[F.col(a).cast("string") for a in attrs])
    return dataset.select(F.explode(words(text)).alias("token")).distinct()


def vocabulary_similarity(d1: DataFrame, d2: DataFrame) -> float:
    """VS(D1, D2): Jaccard coefficient of the two vocabularies (§3.1.3)."""
    v1 = vocabulary(d1).withColumn("_in1", F.lit(True))
    v2 = vocabulary(d2).withColumn("_in2", F.lit(True))
    inter, union = v1.join(v2, "token", "full").agg(
        F.count_if(F.col("_in1") & F.col("_in2")), F.count("*")
    ).first()
    return inter / union if union else 0.0


def profile_dataset(
    dataset: DataFrame,
    gold_pairs: DataFrame | None = None,
    labeled_pairs: DataFrame | None = None,
    attributes: list[str] | None = None,
) -> dict[str, float]:
    """SP/TX/TC(/PR) of one dataset — one Table-2 column."""
    out = _profile(dataset, attributes)
    if gold_pairs is not None:
        out["PR"] = positive_ratio(
            gold_pairs,
            labeled_pairs=labeled_pairs,
            n_records=None if labeled_pairs is not None else int(out["TC"]),
        )
    return out


def decision_matrix(profiles: dict[str, dict[str, float]]) -> pd.DataFrame:
    """Side-by-side profile comparison (§3.1.3 decision matrices).

    ``profiles`` maps dataset name -> profile dict; rows are metrics,
    columns datasets — the layout of paper Table 2.
    """
    return pd.DataFrame(profiles)
