"""Confusion matrix of an experiment against a gold standard (paper Fig. 2).

Comparison happens at the pair level: ``TP = E ∩ G``, ``FP = E \\ G``,
``FN = G \\ E``, ``TN = ([D]^2 \\ E) \\ G``. TN is derived from the size of
the pair universe rather than materialised — the universe is quadratic
(class imbalance, §3.2.1), so only its cardinality is ever needed.

The universe defaults to all C(n, 2) pairs of the dataset; SIGMOD-style
benchmarks instead ship a labeled candidate pair list, which callers pass as
``universe`` so that TN (and reduction ratio) are relative to it.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class ConfusionCounts:
    """Cardinalities of the four confusion-matrix cells plus the universe size."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def positives(self) -> int:
        """Ground-truth positives |G| (restricted to the universe)."""
        return self.tp + self.fn

    @property
    def predicted(self) -> int:
        """Predicted positives |E| (restricted to the universe)."""
        return self.tp + self.fp


def pair_universe_size(n_records: int) -> int:
    """|[D]^2| = C(n, 2)."""
    return n_records * (n_records - 1) // 2


def confusion_sets(
    experiment: DataFrame, gold: DataFrame
) -> tuple[DataFrame, DataFrame, DataFrame]:
    """(TP, FP, FN) as canonical pair DataFrames.

    Both inputs are canonical pair sets; extra columns of ``experiment``
    (e.g. similarity) survive on TP and FP so exploration views can use them.
    """
    key = ["id1", "id2"]
    tp = experiment.join(gold.select(*key), on=key, how="inner")
    fp = experiment.join(gold.select(*key), on=key, how="left_anti")
    fn = gold.join(experiment.select(*key), on=key, how="left_anti")
    return tp, fp, fn


def confusion_grid(
    pairs: DataFrame, experiments: dict[str, Column], is_gold: Column, total: int
) -> dict[str, ConfusionCounts]:
    """The confusion cells of N experiments against one gold standard (N-Metrics).

    ``pairs`` holds every pair of any experiment or of gold once;
    ``experiments`` maps a name to the predicate "the pair is in that
    experiment" and ``is_gold`` marks gold pairs (NULL counts as false).
    One ``count_if`` aggregate counts every TP/FP/FN; TN follows from
    ``total``, the size of the pair universe.
    """
    g = F.coalesce(is_gold, F.lit(False))
    es = [F.coalesce(e, F.lit(False)) for e in experiments.values()]
    cells = [(F.count_if(e & g), F.count_if(e & ~g), F.count_if(~e & g)) for e in es]
    row = pairs.agg(*[c for cs in cells for c in cs]).first()
    out = {}
    for i, name in enumerate(experiments):
        tp, fp, fn = row[3 * i : 3 * i + 3]
        if total < tp + fp + fn:
            raise ValueError(
                f"universe of {total} pairs smaller than |E ∪ G| = {tp + fp + fn}"
            )
        out[name] = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=total - tp - fp - fn)
    return out


def confusion_counts(
    experiment: DataFrame,
    gold: DataFrame,
    *,
    n_records: int | None = None,
    universe_size: int | None = None,
) -> ConfusionCounts:
    """Count the confusion cells. Exactly one of ``n_records``/``universe_size``.

    With ``n_records`` the universe is all C(n,2) record pairs; with
    ``universe_size`` it is an explicit candidate/labeled-pair universe that
    ``experiment`` and ``gold`` are assumed to be subsets of. The one-
    experiment case of :func:`confusion_grid`, over the full outer join of
    the two pair sets.
    """
    if (n_records is None) == (universe_size is None):
        raise ValueError("pass exactly one of n_records / universe_size")
    total = (
        pair_universe_size(n_records) if n_records is not None else universe_size
    )
    key = ["id1", "id2"]
    e = experiment.select(*key, F.lit(True).alias("_e"))
    g = gold.select(*key, F.lit(True).alias("_g"))
    pairs = e.join(g, key, "full_outer")
    return confusion_grid(pairs, {"": F.col("_e")}, F.col("_g"), total)[""]
