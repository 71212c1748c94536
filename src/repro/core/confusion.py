"""Confusion matrix of an experiment against a gold standard (paper Fig. 2).

Comparison happens at the pair level: ``TP = E ∩ G``, ``FP = E \\ G``,
``FN = G \\ E``, ``TN = ([D]^2 \\ E) \\ G``. TN is derived from the size of
the pair universe rather than materialised — the universe is quadratic
(class imbalance, §3.2.1), so only its cardinality is ever needed.

:func:`confusion_counts` takes the universe of all C(n, 2) pairs of the
dataset; SIGMOD-style benchmarks instead ship a labeled candidate pair
list, whose size callers pass to :func:`confusion_grid` as ``total`` so
that TN (and reduction ratio) are relative to it. The cells are a
:class:`~repro.core.metrics.ConfusionCounts`.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.metrics import ConfusionCounts
from repro.core.pairs import tag_memberships


def pair_universe_size(n_records: int) -> int:
    """|[D]^2| = C(n, 2)."""
    return n_records * (n_records - 1) // 2


def confusion_sets(
    experiment: DataFrame, gold: DataFrame
) -> tuple[DataFrame, DataFrame, DataFrame]:
    """(TP, FP, FN) as canonical pair DataFrames.

    Read off the membership table of the two pair sets, which checks their
    contract (see :func:`~repro.core.pairs.tag_memberships`). The
    ``similarity`` of ``experiment``, if it has one, survives on TP and FP
    so exploration views can use it.
    """
    table = tag_memberships({"e": experiment, "g": gold.select("id1", "id2")})
    cols = ["id1", "id2", *({"similarity"} & set(experiment.columns))]
    e, g = F.col("in_e") == 1, F.col("in_g") == 1
    return (
        table.filter(e & g).select(*cols),
        table.filter(e & ~g).select(*cols),
        table.filter(~e & g).select("id1", "id2"),
    )


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
    experiment: DataFrame, gold: DataFrame, *, n_records: int
) -> ConfusionCounts:
    """Count the confusion cells over the universe of all C(n, 2) record pairs.

    The one-experiment case of :func:`confusion_grid`, over the membership
    table of the two pair sets, which checks their contract (see
    :func:`~repro.core.pairs.tag_memberships`); for a labelled candidate-pair
    universe, call :func:`confusion_grid` with its size.
    """
    table = tag_memberships({"e": experiment, "g": gold})
    universe = pair_universe_size(n_records)
    return confusion_grid(table, {"": F.col("in_e") == 1}, F.col("in_g") == 1, universe)[""]
