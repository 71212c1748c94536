"""Metric/metric diagrams (paper §4.5.1, Appendix D).

A metric/metric diagram plots two quality metrics against each other over a
set of similarity thresholds (e.g. the precision/recall curve of Fig. 3).
Every data point is the confusion matrix at one threshold, pushed through
the constant-time metric functions of :mod:`repro.core.metrics`.

Two engines:

- :func:`metric_metric_diagram` — closure-aware, via the Appendix-D
  incremental engine (experiment is transitively closed at every threshold,
  matching Snowman's concept of experiments).
- :func:`pair_sweeps` — pair-level (no transitive closure), N results in
  one pass: count matches and gold members per result and similarity, then
  running TP count = cumulative sum of those counts, highest similarity
  first. This is the variant Catalyst can pipeline and is used to evaluate
  e.g. the decision-model stage (§3.2.1: pair-based metrics apply to
  intermediate, non-closed stages) and to fit the matchers' thresholds;
  :func:`spark_pair_sweep` is its one-result case.
"""
from __future__ import annotations

from typing import Hashable, Sequence

import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.incremental import Confusion, confusion_series
from repro.core.metrics import ALL_METRICS
from repro.core.pairs import tag_memberships


def diagram_points(
    series: Sequence[Confusion], x_metric: str, y_metric: str
) -> pd.DataFrame:
    """Turn a confusion series into diagram rows (threshold, x, y)."""
    fx, fy = ALL_METRICS[x_metric], ALL_METRICS[y_metric]
    return pd.DataFrame(
        [{"threshold": c.threshold, x_metric: fx(c), y_metric: fy(c)} for c in series]
    )


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

    The one threshold pick of the platform: the §5.4 audit and matcher
    development call it. ``diagram`` is the rows of a
    :func:`metric_metric_diagram` or of one result of :func:`pair_sweeps`,
    highest threshold first. Every row is the experiment at its own
    threshold, ties included, so the pick is a threshold a matcher can use;
    of equal maxima the first, the highest threshold, is returned.
    """
    row = diagram.loc[diagram[metric].idxmax()]
    return float(row["threshold"]), float(row[metric])


def pair_sweeps(
    pairs: DataFrame, scores: dict[str, Column], is_gold: Column, gold_size: int
) -> DataFrame:
    """Pair-level precision/recall/f1 sweeps of N results in one pass.

    ``pairs`` holds every pair of any result or of gold once; ``scores``
    maps a result's name to its similarity (NULL: the pair is not in that
    result) and ``is_gold`` marks gold pairs (NULL counts as false). Returns
    ``(solution, threshold, tp, predicted, precision, recall, f1)``: per
    result, the experiment "its pairs with similarity >= threshold" at each
    distinct similarity, highest first (no transitive closure — the §3.2.1
    intermediate-stage view). The running sums window over the per-(result,
    threshold) counts in one partition, so neither window nor sort shuffles.
    """
    results = [
        F.struct(F.lit(n).alias("solution"), s.alias("threshold")) for n, s in scores.items()
    ]
    w = Window.partitionBy("solution").orderBy(F.col("threshold").desc())
    running = [F.sum(c).over(w).alias(c) for c in ("tp", "predicted")]
    tp, p, r = F.col("tp"), F.col("precision"), F.col("recall")
    return (
        pairs.select(F.explode(F.array(*results)).alias("_r"), is_gold.alias("_g"))
        .select("_r.*", "_g")
        .filter(F.col("threshold").isNotNull())
        .groupBy("solution", "threshold")
        .agg(F.count_if("_g").alias("tp"), F.count("*").alias("predicted"))
        .coalesce(1)
        .select("solution", "threshold", *running)
        .withColumn("precision", tp / F.col("predicted"))
        # An empty gold standard has recall 0, as in ``metrics.recall``.
        .withColumn("recall", tp / F.lit(gold_size) if gold_size else F.lit(0.0))
        .withColumn("f1", F.when(p + r > 0, 2 * p * r / (p + r)).otherwise(F.lit(0.0)))
        .orderBy("solution", F.col("threshold").desc())
    )


def spark_pair_sweep(
    scored_matches: DataFrame, gold: DataFrame, gold_size: int | None = None
) -> DataFrame:
    """Pair-level precision/recall/f1 at every distinct similarity value.

    ``scored_matches``: canonical pairs ``(id1, id2, similarity)``;
    ``gold``: canonical gold pair set. The one-result :func:`pair_sweeps`
    over their membership table, which checks their contract (see
    :func:`~repro.core.pairs.tag_memberships`), without the ``solution``
    column and with its ``threshold`` named ``similarity``.
    """
    if gold_size is None:
        gold_size = gold.count()
    table = tag_memberships({"scored": scored_matches, "gold": gold})
    sweep = pair_sweeps(table, {"": F.col("similarity")}, F.col("in_gold") == 1, gold_size)
    return sweep.drop("solution").withColumnRenamed("threshold", "similarity")
