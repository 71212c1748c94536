"""Simulated matching solutions (DESIGN.md substitution 3).

The paper evaluates participants' closed-source contest solutions; we build
real (small) matchers covering the solution families the paper names —
rule-based, supervised-ML-like, and hybrid — each following the §1.2
pipeline: candidate pairs → attribute similarities → weighted decision
model with a similarity threshold.

Development ("training") happens strictly on a training split: feature
weights are learned from label correlations and the threshold is fitted by
an f1 sweep — using Frost's own diagram machinery would be circular for
Table 3, so the sweep is a plain pandas computation. Two design choices are
*learned from the data the developer saw*, which is what produces the
paper's Appendix-C transfer asymmetry:

- **null policy** — a developer facing dense data (X2) imputes missing
  similarities as 0 ("penalize"); one facing sparse data (X3) renormalises
  the weights over the present attributes ("renormalize").
- **feature weights** — correlation-based weights favour the structured
  attributes on dense data and the textual ones on sparse data.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pairs import with_records
from repro.matchgen.similarity import SIMILARITIES

#: attribute -> similarity-function name, for the shared notebook schema.
DEFAULT_FEATURES: dict[str, str] = {
    "title": "jaccard",
    "description": "jaccard",
    "brand": "levenshtein",
    "cpu": "levenshtein",
    "ram": "equality",
    "hdd": "equality",
}


def compute_features(
    pairs: DataFrame, dataset: DataFrame, features: dict[str, str]
) -> DataFrame:
    """Per-pair similarity features ``f_<attr>`` (NULL when a side is NULL)."""
    attrs = list(features)
    out = with_records(pairs, dataset, attrs)
    for attr, simname in features.items():
        sim = SIMILARITIES[simname]
        out = out.withColumn(f"f_{attr}", sim(F.col(f"a_{attr}"), F.col(f"b_{attr}")))
    return out.drop(*[f"a_{c}" for c in attrs], *[f"b_{c}" for c in attrs])


def _score_expr(weights: dict[str, float], null_policy: str):
    """Weighted-average score column with the matcher's null policy."""
    if null_policy == "penalize":
        total = sum(weights.values())
        num = reduce(
            lambda x, y: x + y,
            [F.coalesce(F.col(f"f_{a}"), F.lit(0.0)) * w for a, w in weights.items()],
        )
        return num / F.lit(total)
    if null_policy == "renormalize":
        num = reduce(
            lambda x, y: x + y,
            [F.coalesce(F.col(f"f_{a}"), F.lit(0.0)) * w for a, w in weights.items()],
        )
        den = reduce(
            lambda x, y: x + y,
            [
                F.when(F.col(f"f_{a}").isNotNull(), F.lit(w)).otherwise(F.lit(0.0))
                for a, w in weights.items()
            ],
        )
        return F.when(den > 0, num / den).otherwise(F.lit(0.0))
    raise ValueError(f"unknown null policy {null_policy!r}")


@dataclass
class Matcher:
    """A configured matching solution (decision model, §1.2 step 4)."""

    name: str
    features: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_FEATURES))
    weights: dict[str, float] = field(default_factory=dict)
    null_policy: str = "penalize"
    threshold: float = 0.5

    def score(self, pairs: DataFrame, dataset: DataFrame) -> DataFrame:
        """Scored candidate pairs ``(id1, id2, ..., similarity)``."""
        return self.score_features(compute_features(pairs, dataset, self.features))

    def score_features(self, feats: DataFrame) -> DataFrame:
        """``feats`` (from ``compute_features``) plus the ``similarity`` column."""
        weights = self.weights or {a: 1.0 for a in self.features}
        return feats.withColumn("similarity", _score_expr(weights, self.null_policy))

    def predict(self, pairs: DataFrame, dataset: DataFrame) -> DataFrame:
        """The experiment: candidate pairs scored at/above the threshold."""
        return (
            self.score(pairs, dataset)
            .filter(F.col("similarity") >= self.threshold)
            .select("id1", "id2", "similarity")
        )


def fit_weights(
    scored_features: pd.DataFrame, feature_cols: list[str], floor: float = 0.05
) -> dict[str, float]:
    """Correlation-based feature weights (the "supervised ML" substrate).

    Weight of a feature = max(corr(feature, label), floor) computed over the
    labeled training candidates with the matcher's null handling already
    applied (NaN -> 0). Normalised to sum 1. A floor keeps every feature in
    the model, as a small regularisation.
    """
    y = scored_features["label"].astype(float)
    w = {}
    for c in feature_cols:
        x = scored_features[c].astype(float).fillna(0.0)
        if x.std() == 0 or y.std() == 0:
            w[c] = floor
        else:
            w[c] = max(float(np.corrcoef(x, y)[0, 1]), floor)
    total = sum(w.values())
    return {c.removeprefix("f_"): v / total for c, v in w.items()}


def fit_threshold(scores: pd.Series, labels: pd.Series) -> tuple[float, float]:
    """Best-f1 threshold over the candidate scores: (threshold, train f1).

    Sweeps every distinct score descending with cumulative TP counts (the
    pair-level sweep of §4.5.1, in pandas because it runs inside matcher
    *development*, not evaluation).
    """
    df = pd.DataFrame({"s": scores.astype(float), "y": labels.astype(int)})
    df = df.sort_values("s", ascending=False, ignore_index=True)
    pos = int(df["y"].sum())
    if pos == 0:
        return 1.0, 0.0
    df["tp"] = df["y"].cumsum()
    df["pred"] = np.arange(1, len(df) + 1)
    grouped = df.groupby("s", sort=False).agg(tp=("tp", "max"), pred=("pred", "max"))
    p = grouped["tp"] / grouped["pred"]
    r = grouped["tp"] / pos
    f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    best = int(np.argmax(f1))
    return float(grouped.index[best]), float(f1[best])


#: hand-set weights of the ``rule`` and ``hybrid`` matcher kinds.
_FIXED_WEIGHTS: dict[str, dict[str, float]] = {
    "rule": {
        "title": 0.25, "description": 0.25, "brand": 0.1,
        "cpu": 0.2, "ram": 0.1, "hdd": 0.1,
    },
    "hybrid": {
        "title": 0.4, "description": 0.2, "brand": 0.1,
        "cpu": 0.1, "ram": 0.1, "hdd": 0.1,
    },
}


def develop_matcher(
    name: str,
    train_pairs_with_labels: DataFrame,
    train_dataset: DataFrame,
    *,
    kind: str = "ml",
    features: dict[str, str] | None = None,
) -> Matcher:
    """Develop a matcher on a training split (the Appendix-C experiment unit).

    ``kind``:
    - ``ml`` — weights learned from label correlations; null policy chosen
      from the training feature sparsity (dense -> penalize, sparse ->
      renormalize), mirroring what a developer sees.
    - ``rule`` — fixed hand-crafted-style weights: structured attributes
      dominate (the rule "same brand/cpu/ram is a duplicate"), title breaks
      ties; null policy from training sparsity.
    - ``hybrid`` — textual attributes dominate with a structured bonus.

    In every case the threshold is fitted to maximise training f1.
    """
    if kind != "ml" and kind not in _FIXED_WEIGHTS:
        raise ValueError(f"unknown matcher kind {kind!r}")
    features = dict(features or DEFAULT_FEATURES)
    m = Matcher(name=name, features=features)
    feat_cols = [f"f_{a}" for a in features]
    feats_df = compute_features(train_pairs_with_labels, train_dataset, features).cache()
    try:
        feats = feats_df.toPandas()
        null_rate = float(feats[feat_cols].isna().mean().mean())
        m.null_policy = "penalize" if null_rate < 0.25 else "renormalize"
        if kind == "ml":
            m.weights = fit_weights(feats, feat_cols)
        else:
            m.weights = {a: w for a, w in _FIXED_WEIGHTS[kind].items() if a in features}
        # Threshold fit on training scores, from the same feature frame.
        pdf = m.score_features(feats_df).select("similarity", "label").toPandas()
    finally:
        feats_df.unpersist()
    m.threshold, _ = fit_threshold(pdf["similarity"], pdf["label"])
    return m
