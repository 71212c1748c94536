"""Simulated matching solutions (DESIGN.md substitution 3).

The paper evaluates participants' closed-source contest solutions; we build
real (small) matchers covering the solution families the paper names —
rule-based, supervised-ML-like, and hybrid — each following the §1.2
pipeline: candidate pairs → attribute similarities → weighted decision
model with a similarity threshold.

Development ("training") happens strictly on a training split: feature
weights are learned from label correlations and the threshold is the best
training f1 of Frost's pair-level sweep (``diagrams.pair_sweeps`` and
``best_threshold``). The sweep sees only the training split; Table 3
evaluates with ``confusion_grid``, not with a sweep. Two design choices are
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
from operator import add
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.diagrams import best_threshold, pair_sweeps
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


def feature_column(attr: str, sim: str) -> str:
    """The column of similarity ``sim`` on ``attr``: one frame can hold any mix."""
    return f"f_{attr}__{sim}"


def compute_features(
    pairs: DataFrame, dataset: DataFrame, features: Iterable[tuple[str, str]]
) -> DataFrame:
    """``pairs`` plus one column per ``(attr, sim)`` (NULL when a side is NULL).

    Given the union of several matchers' features, one frame scores them all.
    """
    features = sorted(set(features))
    out = with_records(pairs, dataset, sorted({a for a, _ in features}))
    sims = [SIMILARITIES[s](F.col(f"a_{a}"), F.col(f"b_{a}")) for a, s in features]
    return out.select(
        *pairs.columns, *[c.alias(feature_column(*f)) for c, f in zip(sims, features)]
    )


@dataclass
class Matcher:
    """A configured matching solution (decision model, §1.2 step 4)."""

    name: str
    features: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_FEATURES))
    weights: dict[str, float] = field(default_factory=dict)
    null_policy: str = "penalize"
    threshold: float = 0.5

    def similarity(self) -> Column:
        """The score over a ``compute_features`` frame, with the null policy."""
        weights = self.weights or {a: 1.0 for a in self.features}
        f = {a: F.col(feature_column(a, self.features[a])) for a in weights}
        ws = weights.items()
        num = reduce(add, [F.coalesce(f[a], F.lit(0.0)) * w for a, w in ws])
        if self.null_policy == "penalize":
            return num / F.lit(sum(weights.values()))
        if self.null_policy == "renormalize":
            den = reduce(add, [F.when(f[a].isNotNull(), w).otherwise(0.0) for a, w in ws])
            return F.when(den > 0, num / den).otherwise(F.lit(0.0))
        raise ValueError(f"unknown null policy {self.null_policy!r}")

    def score(self, pairs: DataFrame, dataset: DataFrame) -> DataFrame:
        """Scored candidate pairs ``(id1, id2, ..., similarity)``."""
        feats = compute_features(pairs, dataset, self.features.items())
        return feats.withColumn("similarity", self.similarity())

    def predict(self, pairs: DataFrame, dataset: DataFrame) -> DataFrame:
        """The experiment: candidate pairs scored at/above the threshold."""
        return (
            self.score(pairs, dataset)
            .filter(F.col("similarity") >= self.threshold)
            .select("id1", "id2", "similarity")
        )


#: least weight of a feature before normalisation, a small regularisation.
WEIGHT_FLOOR = 0.05


def fit_weights(
    scored_features: pd.DataFrame, columns: dict[str, str]
) -> dict[str, float]:
    """Correlation-based feature weights (the "supervised ML" substrate).

    ``columns`` maps each feature column to its attribute; the weights are
    keyed by attribute. Weight of a feature = max(corr(feature, label),
    WEIGHT_FLOOR) computed over the labeled training candidates with the
    matcher's null handling already applied (NaN -> 0). Normalised to sum
    1. The floor keeps every feature in the model.
    """
    y = scored_features["label"].astype(float)
    w = {}
    for c, attr in columns.items():
        x = scored_features[c].astype(float).fillna(0.0)
        if x.std() == 0 or y.std() == 0:
            w[attr] = WEIGHT_FLOOR
        else:
            w[attr] = max(float(np.corrcoef(x, y)[0, 1]), WEIGHT_FLOOR)
    total = sum(w.values())
    return {a: v / total for a, v in w.items()}


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


def develop_matchers(
    kinds: dict[str, str],
    train_pairs_with_labels: DataFrame,
    train_dataset: DataFrame,
    *,
    features: dict[str, str] | None = None,
) -> list[Matcher]:
    """One matcher per ``{name: kind}``, developed on a training split (App. C).

    ``kind``:
    - ``ml`` — weights learned from label correlations.
    - ``rule`` — fixed hand-crafted-style weights: structured attributes
      dominate (the rule "same brand/cpu/ram is a duplicate"), title breaks
      ties.
    - ``hybrid`` — textual attributes dominate with a structured bonus.

    Every kind takes its null policy from the training feature sparsity
    (dense -> penalize, sparse -> renormalize), mirroring what a developer
    sees, and its threshold from the best training f1: all from one cached
    feature frame, collected once and swept once by ``pair_sweeps``. Raises
    ``ValueError`` when no training pair is positive (``label = 1``).
    """
    for kind in kinds.values():
        if kind != "ml" and kind not in _FIXED_WEIGHTS:
            raise ValueError(f"unknown matcher kind {kind!r}")
    features = dict(features or DEFAULT_FEATURES)
    cols = {feature_column(a, sim): a for a, sim in features.items()}
    feats_df = compute_features(
        train_pairs_with_labels, train_dataset, features.items()
    ).cache()
    try:
        feats = feats_df.toPandas()
        positives = int((feats["label"] == 1).sum())
        if positives == 0:
            raise ValueError("no positive (label = 1) training pair to fit a threshold on")
        null_rate = float(feats[list(cols)].isna().mean().mean())
        policy = "penalize" if null_rate < 0.25 else "renormalize"
        ms = []
        for name, kind in kinds.items():
            if kind == "ml":
                weights = fit_weights(feats, cols)
            else:
                weights = {a: w for a, w in _FIXED_WEIGHTS[kind].items() if a in features}
            ms.append(Matcher(name, dict(features), weights, policy))
        scores = {m.name: m.similarity() for m in ms}
        sweeps = pair_sweeps(feats_df, scores, F.col("label") == 1, positives).toPandas()
    finally:
        feats_df.unpersist()
    for m in ms:
        m.threshold, _ = best_threshold(sweeps[sweeps["solution"] == m.name], "f1")
    return ms
