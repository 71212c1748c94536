"""Metric/metric diagrams (paper §4.5.1, Appendix D).

A metric/metric diagram plots two quality metrics against each other over a
set of similarity thresholds (e.g. the precision/recall curve of Fig. 3).
Every data point is the confusion matrix at one threshold, pushed through
the constant-time metric functions of :mod:`repro.core.metrics`.

Two engines:

- :func:`metric_metric_diagram` — closure-aware, via the Appendix-D
  incremental engine (experiment is transitively closed at every threshold,
  matching Snowman's concept of experiments).
- :func:`spark_pair_sweep` — pair-level (no transitive closure): count
  matches and gold members per distinct similarity, then running TP count
  = cumulative sum of those counts, highest similarity first. This is the
  variant Catalyst can pipeline and is used to evaluate e.g. the
  decision-model stage (§3.2.1: pair-based metrics apply to intermediate,
  non-closed stages).
"""
from __future__ import annotations

from typing import Hashable, Sequence

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.confusion import ConfusionCounts
from repro.core.incremental import Confusion, confusion_series
from repro.core.metrics import ALL_METRICS


def diagram_points(
    series: Sequence[Confusion], x_metric: str, y_metric: str
) -> pd.DataFrame:
    """Turn a confusion series into diagram rows (threshold, x, y)."""
    fx, fy = ALL_METRICS[x_metric], ALL_METRICS[y_metric]
    rows = []
    for c in series:
        cc = ConfusionCounts(tp=c.tp, fp=c.fp, fn=c.fn, tn=c.tn)
        rows.append(
            {"threshold": c.threshold, x_metric: fx(cc), y_metric: fy(cc)}
        )
    return pd.DataFrame(rows)


def metric_metric_diagram(
    n_records: int,
    truth_labels: Sequence[Hashable],
    matches: Sequence[tuple[float, int, int]],
    s: int,
    x_metric: str = "recall",
    y_metric: str = "precision",
) -> pd.DataFrame:
    """Closure-aware metric/metric diagram via the incremental engine.

    One row per point of :func:`~repro.core.incremental.confusion_series`:
    ``s`` rows, where ties in similarity can make a row repeat the one
    before it.
    """
    return diagram_points(
        confusion_series(n_records, truth_labels, matches, s), x_metric, y_metric
    )


def best_threshold(
    diagram: pd.DataFrame, metric: str
) -> tuple[float, float]:
    """(threshold, value) maximising ``metric`` — Snowman's threshold audit.

    The §5.4 case study used this to show two contest solutions had left
    6–8 f1 points on the table by not picking the optimal threshold. Every
    row of a :func:`metric_metric_diagram` is the experiment at its own
    threshold, ties included, so the pick is a threshold a matcher can use;
    rows can repeat at ties, and the first of equal maxima is returned.
    """
    row = diagram.loc[diagram[metric].idxmax()]
    return float(row["threshold"]), float(row[metric])


def spark_pair_sweep(
    scored_matches: DataFrame, gold: DataFrame, gold_size: int | None = None
) -> DataFrame:
    """Pair-level precision/recall/f1 at every distinct similarity value.

    ``scored_matches``: canonical pairs ``(id1, id2, similarity)``;
    ``gold``: canonical gold pair set. Returns one row per distinct
    similarity with the metrics of the experiment "all matches with
    similarity >= that value" (no transitive closure — the §3.2.1
    intermediate-stage view). One shuffle for the join and one for the
    per-similarity counts; the running sums then window over the distinct
    similarities only.
    """
    if gold_size is None:
        gold_size = gold.count()
    flagged = scored_matches.join(
        gold.select("id1", "id2", F.lit(1).alias("is_true")),
        on=["id1", "id2"],
        how="left",
    ).withColumn("is_true", F.coalesce("is_true", F.lit(0)))
    # Thresholding is >=: count per distinct similarity, then take the
    # running sums over that small table, highest similarity first.
    w = Window.orderBy(F.col("similarity").desc()).rowsBetween(
        Window.unboundedPreceding, Window.currentRow
    )
    per_thr = (
        flagged.groupBy("similarity")
        .agg(F.sum("is_true").alias("_t"), F.count("*").alias("_n"))
        .select(
            "similarity",
            F.sum("_t").over(w).alias("tp"),
            F.sum("_n").over(w).alias("predicted"),
        )
    )
    return (
        per_thr.withColumn("precision", F.col("tp") / F.col("predicted"))
        .withColumn("recall", F.col("tp") / F.lit(gold_size))
        .withColumn(
            "f1",
            F.when(
                F.col("precision") + F.col("recall") > 0,
                2 * F.col("precision") * F.col("recall")
                / (F.col("precision") + F.col("recall")),
            ).otherwise(F.lit(0.0)),
        )
        .orderBy(F.col("similarity").desc())
    )
