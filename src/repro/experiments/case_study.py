"""§5.4 case study — five solutions on the Altosight-X4-like dataset.

Reproduces the three in-text findings of the SIGMOD-contest case study:

1. **N-Metrics view** — the five solutions' precision/recall/f1 side by
   side (paper: top-5 avg f1 90.34%, min 87.4%, max 92.7%).
2. **Threshold audit** — via metric/metric sweeps, some solutions left f1
   on the table by not picking the optimal similarity threshold (paper: two
   solutions, +8% and +6%). Two of our five solutions ship deliberately
   mis-set thresholds.
3. **N-Intersection view** — gold pairs missed by at least 4 of the 5
   solutions all involve one especially hard record (paper: three pairs,
   all containing altosight.com//1420; ours: the ``x4_hard`` record).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.confusion import confusion_grid
from repro.core.diagrams import pair_sweeps
from repro.core.metrics import f1, pair_universe_size, precision, recall
from repro.core.pairs import PAIR_COLS, tag_memberships
from repro.explore.setops import missed_by_at_least
from repro.matchgen.blocking import token_blocking
from repro.matchgen.matchers import Matcher, compute_features
from repro.matchgen.sigmod import case_study_dataset

#: five simulated contest solutions; two with deliberately low thresholds.
SOLUTIONS: list[Matcher] = [
    Matcher("team1", {"name": "jaccard"}, {"name": 1.0}, "penalize", 0.55),
    Matcher("team2", {"name": "jaccard"}, {"name": 1.0}, "penalize", 0.30),  # too low
    Matcher("team3", {"name": "levenshtein"}, {"name": 1.0}, "penalize", 0.80),
    Matcher(
        "team4",
        {"name": "jaccard", "price": "equality"},
        {"name": 0.9, "price": 0.1},
        "penalize",
        0.52,
    ),
    Matcher("team5", {"name": "levenshtein"}, {"name": 1.0}, "penalize", 0.45),  # too low
]


def run_case_study(
    spark: SparkSession, scale: float = 1.0, seed: int = 44
) -> dict[str, pd.DataFrame]:
    """Run all five solutions and the three §5.4 evaluations.

    The solutions are the similarity columns of one frame. Its membership
    table with gold, which carries them, is cached once and read by one
    confusion aggregate, one threshold-sweep pass and the missed-pair view.
    Every frame cached here is unpersisted before returning, also on an error.

    Returns ``{"metrics": ..., "threshold_audit": ..., "missed": ...}``.
    """
    split = case_study_dataset(spark, scale=scale, seed=seed)
    dataset = split.dataset.cache()
    candidates = token_blocking(dataset, "name", max_token_df=max(40, int(60 * scale)))
    features = {f for s in SOLUTIONS for f in s.features.items()}
    sims = [s.similarity().alias(s.name) for s in SOLUTIONS]
    scored = compute_features(candidates, dataset, features).select(*PAIR_COLS, *sims)
    flagged = tag_memberships({"scored": scored, "gold": split.gold_pairs}).cache()
    is_gold = F.col("in_gold") == 1
    try:
        n_records = dataset.count()
        found = {s.name: F.col(s.name) >= s.threshold for s in SOLUTIONS}
        cells = confusion_grid(flagged, found, is_gold, pair_universe_size(n_records))
        # Threshold audit: pair-level sweeps over all scored candidates.
        gold_size = cells[SOLUTIONS[0].name].positives
        scores = {s.name: F.col(s.name) for s in SOLUTIONS}
        sweeps = pair_sweeps(flagged, scores, is_gold, gold_size).toPandas()

        metric_rows, audit_rows = [], []
        for sol in SOLUTIONS:
            c = cells[sol.name]
            metric_rows.append(
                {
                    "solution": sol.name,
                    "threshold": sol.threshold,
                    "precision": precision(c),
                    "recall": recall(c),
                    "f1": f1(c),
                }
            )
            # Rows run from the highest similarity down: idxmax picks the first maximum.
            sweep = sweeps[sweeps["solution"] == sol.name]
            best = sweep.loc[sweep["f1"].idxmax()]
            audit_rows.append(
                {
                    "solution": sol.name,
                    "chosen_threshold": sol.threshold,
                    "chosen_f1": f1(c),
                    "best_threshold": float(best["similarity"]),
                    "best_f1": float(best["f1"]),
                    "f1_gain": float(best["f1"]) - f1(c),
                }
            )

        missed = missed_by_at_least(
            flagged.filter(is_gold).select(*PAIR_COLS),
            {n: flagged.filter(p).select(*PAIR_COLS) for n, p in found.items()},
            k=4,
        ).toPandas()
    finally:
        for df in (flagged, dataset):
            df.unpersist()
    return {
        "metrics": pd.DataFrame(metric_rows),
        "threshold_audit": pd.DataFrame(audit_rows),
        "missed": missed,
    }


def summarize(results: dict[str, pd.DataFrame]) -> dict[str, float]:
    """The §5.4 headline numbers for EXPERIMENTS.md."""
    m = results["metrics"]
    hard_pairs = results["missed"]
    hard_share = (
        float(
            (
                (hard_pairs["id1"] == "x4_hard") | (hard_pairs["id2"] == "x4_hard")
            ).mean()
        )
        if len(hard_pairs)
        else 0.0
    )
    audit = results["threshold_audit"]
    return {
        "avg_f1": float(m["f1"].mean()),
        "min_f1": float(m["f1"].min()),
        "max_f1": float(m["f1"].max()),
        "n_suboptimal_thresholds": int((audit["f1_gain"] > 0.02).sum()),
        "max_f1_gain": float(audit["f1_gain"].max()),
        "n_pairs_missed_by_4plus": int(len(hard_pairs)),
        "hard_record_share": hard_share,
    }
