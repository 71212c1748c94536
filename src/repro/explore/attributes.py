"""Attribute sparsity and attribute equality influence (paper §4.5.2–4.5.3).

Which attributes drove the matcher's mistakes?

- ``nullRatio(a) = falseNullCount(a) / nullCount(a)`` — among the pairs with
  a null in attribute ``a``, the fraction that were misclassified. High
  values flag attributes whose *absence* correlates with errors (semantic
  or material mismatch, see the paper's discussion).
- ``equalRatio(a) = falseEqualCount(a) / equalCount(a)`` — among the pairs
  *equal* in ``a``, the fraction misclassified; high values mean the matcher
  mis-weighted the matching sufficiency of ``a``.

``nullCount``/``equalCount`` range over all of [D]^2, which is quadratic —
both are computed in closed form from per-value counts instead of
materialising pairs. Only the misclassified pair set (FP ∪ FN), which is
small, is joined against record attributes. Both passes cover every
attribute at once.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.metrics import pair_universe_size
from repro.core.pairs import with_records


def _value_counts(dataset: DataFrame, attributes: list[str]) -> DataFrame:
    """One row: n and, per attribute i, ``_nn{i}`` non-null values and
    ``_eq{i}`` = Σ_v c_v·(c_v − 1) over its non-null values v.

    One grouping set per attribute, each grouped on the column's own type,
    so values are equal exactly when Spark's typed ``=`` says so.
    """
    groups = dataset.groupingSets([[a] for a in attributes], *attributes).agg(
        *[F.grouping(a).alias(f"_g{i}") for i, a in enumerate(attributes)],
        F.count("*").alias("_c"),
    )

    def over_values(i: int, a: str, x):
        return F.sum(F.when((F.col(f"_g{i}") == 0) & F.col(a).isNotNull(), x))

    c = F.col("_c")
    return groups.agg(
        F.sum(F.when(F.col("_g0") == 0, c)).alias("_n"),
        *[over_values(i, a, c).alias(f"_nn{i}") for i, a in enumerate(attributes)],
        *[
            over_values(i, a, c * (c - 1)).alias(f"_eq{i}")
            for i, a in enumerate(attributes)
        ],
    )


def _false_counts(
    misclassified: DataFrame, dataset: DataFrame, attributes: list[str]
) -> DataFrame:
    """One row: per attribute i, ``_fn{i}`` misclassified pairs with a null
    and ``_fe{i}`` misclassified pairs equal (non-null) in it."""
    pairs = with_records(misclassified.select("id1", "id2"), dataset, attributes)
    ends = [(F.col(f"a_{a}"), F.col(f"b_{a}")) for a in attributes]
    return pairs.agg(
        *[
            F.count_if(x.isNull() | y.isNull()).alias(f"_fn{i}")
            for i, (x, y) in enumerate(ends)
        ],
        *[F.count_if(x == y).alias(f"_fe{i}") for i, (x, y) in enumerate(ends)],
    )


def attribute_influence_report(
    misclassified: DataFrame, dataset: DataFrame, attributes: list[str] | None = None
) -> pd.DataFrame:
    """The §4.5.2/4.5.3 bar-chart data: one row per attribute.

    ``misclassified`` is FP ∪ FN as a canonical pair set. Columns:
    nullCount, falseNullCount, nullRatio, equalCount, falseEqualCount,
    equalRatio. Attributes default to every non-``rid`` column.

    nullCount(a) = C(n, 2) − C(n_nonnull(a), 2), and equalCount(a) =
    Σ_v C(count(v), 2) over the non-null values v of ``a``. One aggregate
    over the records and one join of the misclassified pairs serve every
    attribute, in a single Spark action.
    """
    attributes = attributes or [c for c in dataset.columns if c != "rid"]
    row = (
        _value_counts(dataset, attributes)
        .crossJoin(_false_counts(misclassified, dataset, attributes))
        .first()
    )
    n = row["_n"] or 0
    rows = []
    for i, a in enumerate(attributes):
        nn = row[f"_nn{i}"] or 0
        nc = pair_universe_size(n) - pair_universe_size(nn)
        ec = (row[f"_eq{i}"] or 0) // 2
        fnc, fec = row[f"_fn{i}"], row[f"_fe{i}"]
        rows.append(
            {
                "attribute": a,
                "nullCount": nc,
                "falseNullCount": fnc,
                "nullRatio": fnc / nc if nc else 0.0,
                "equalCount": ec,
                "falseEqualCount": fec,
                "equalRatio": fec / ec if ec else 0.0,
            }
        )
    return pd.DataFrame(rows)
