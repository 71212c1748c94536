"""Table 3 — cross-dataset quality of matchers developed on X2 vs X3 (App. C.2).

The paper develops matching solutions on one training split and applies
them to all four splits (X2, Z2, X3, Z3), reporting *average*
precision/recall/f1 per (developed-on, applied-to) cell. The expected
shape: solutions excel on their own dataset; X3-developed (sparse-trained)
solutions transfer to the dense D2 far better than X2-developed solutions
transfer to the sparse D3.

Metrics are computed over each split's labeled pair universe with the Frost
pipeline: per split, one feature frame and one aggregate count the
confusion cells of all six matchers (the N-Metrics view), and constant-time
metric arithmetic turns them into precision/recall/f1.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.confusion import confusion_grid
from repro.core.metrics import f1, precision, recall
from repro.matchgen.matchers import Matcher, compute_features, develop_matchers
from repro.matchgen.sigmod import SigmodSplit, sigmod_split

MATCHER_KINDS = ("ml", "rule", "hybrid")


def load_splits(
    spark: SparkSession, scale: float = 1.0
) -> dict[tuple[str, str], SigmodSplit]:
    """All four SIGMOD-like splits, cached for repeated evaluation.

    Starts no Spark job: each cache fills on the first action that reads it.
    """
    out = {}
    for ds in ("D2", "D3"):
        for sp in ("train", "test"):
            s = sigmod_split(spark, ds, sp, scale=scale)
            s.dataset.cache()
            s.labeled_pairs.cache()
            out[(ds, sp)] = s
    return out


def develop_all(
    splits: dict[tuple[str, str], SigmodSplit]
) -> dict[str, list[Matcher]]:
    """Three matchers (ml, rule, hybrid) per training split."""
    out: dict[str, list[Matcher]] = {}
    for ds in ("D2", "D3"):
        train = splits[(ds, "train")]
        out[ds] = develop_matchers(
            {f"{kind}@{train.name}": kind for kind in MATCHER_KINDS},
            train.labeled_pairs,
            train.dataset,
        )
    return out


def evaluate(
    matchers: list[Matcher], split: SigmodSplit
) -> dict[str, dict[str, float]]:
    """Precision/recall/f1 of every matcher on one split's labeled universe.

    One feature frame serves every matcher and one aggregate over it counts
    all their confusion cells; gold is the ``label = 1`` rows of that frame.
    """
    features = {f for m in matchers for f in m.features.items()}
    feats = compute_features(split.labeled_pairs, split.dataset, features)
    found = {m.name: m.similarity() >= m.threshold for m in matchers}
    cells = confusion_grid(feats, found, F.col("label") == 1, split.n_labeled)
    return {
        name: {"precision": precision(c), "recall": recall(c), "f1": f1(c)}
        for name, c in cells.items()
    }


def run_table3(spark: SparkSession, scale: float = 1.0) -> pd.DataFrame:
    """The full Table-3 grid: per-matcher rows plus per-cell averages.

    Returns a tidy DataFrame with columns ``developed_on, applied_to,
    matcher, precision, recall, f1``; ``matcher == "average"`` rows are the
    paper's reported numbers. The splits' cached frames are unpersisted
    before returning.
    """
    splits = load_splits(spark, scale)
    try:
        matchers = develop_all(splits)
        every = [m for ms in matchers.values() for m in ms]
        results = {key: evaluate(every, split) for key, split in splits.items()}
    finally:
        for split in splits.values():
            split.dataset.unpersist()
            split.labeled_pairs.unpersist()
    rows = []
    for dev_ds, ms in matchers.items():
        for key, split in splits.items():
            cell = {"developed_on": f"X{dev_ds[1]}", "applied_to": split.name.upper()}
            per = [results[key][m.name] for m in ms]
            rows += [{**cell, "matcher": m.name, **res} for m, res in zip(ms, per)]
            avg = {k: sum(p[k] for p in per) / len(per) for k in ("precision", "recall", "f1")}
            rows.append({**cell, "matcher": "average", **avg})
    return pd.DataFrame(rows)


def table3_matrix(tidy: pd.DataFrame) -> pd.DataFrame:
    """Pivot the averages into the paper's Table-3 layout."""
    avg = tidy[tidy["matcher"] == "average"]
    out = avg.melt(
        id_vars=["developed_on", "applied_to"],
        value_vars=["precision", "recall", "f1"],
        var_name="metric",
    ).pivot(index=["developed_on", "metric"], columns="applied_to", values="value")
    return out[sorted(out.columns)]
