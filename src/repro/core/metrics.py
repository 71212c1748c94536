"""Pair-based quality metrics (paper §3.2.1).

All metrics are pure functions of a :class:`ConfusionCounts` — pair
counting is the Spark job (:mod:`repro.core.confusion`), metric arithmetic
is constant-time, exactly as in Snowman. The selection mirrors the paper:
precision, recall, f1 [Menestrina et al.], reduction ratio [Köpcke & Rahm],
f* [Hand et al.], Fowlkes–Mallows index, Matthews correlation coefficient,
plus accuracy and balanced accuracy (the paper's class-imbalance caveat
about TN-dependent metrics is documented on each).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def pair_universe_size(n_records: int) -> int:
    """|[D]^2| = C(n, 2); elementwise on a numpy array of sizes."""
    return n_records * (n_records - 1) // 2


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    """Cardinalities of the four confusion-matrix cells."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        """The size of the pair universe."""
        return self.tp + self.fp + self.fn + self.tn

    @property
    def positives(self) -> int:
        """Ground-truth positives |G| (restricted to the universe)."""
        return self.tp + self.fn

    @property
    def predicted(self) -> int:
        """Predicted positives |E| (restricted to the universe)."""
        return self.tp + self.fp


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def precision(c: ConfusionCounts) -> float:
    """TP / (TP + FP) — fraction of predicted matches that are true."""
    return _safe_div(c.tp, c.tp + c.fp)


def recall(c: ConfusionCounts) -> float:
    """TP / (TP + FN) — fraction of true matches found."""
    return _safe_div(c.tp, c.tp + c.fn)


def f1(c: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall."""
    p, r = precision(c), recall(c)
    return _safe_div(2 * p * r, p + r)


def f_star(c: ConfusionCounts) -> float:
    """f* = TP / (TP + FP + FN) [Hand, Christen, Kirielle 2021].

    An interpretable transformation of f1: f* = f1 / (2 - f1).
    """
    return _safe_div(c.tp, c.tp + c.fp + c.fn)


def accuracy(c: ConfusionCounts) -> float:
    """(TP + TN) / total. Unreliable under class imbalance (§3.2.1):
    classifying everything as non-duplicate already scores near 1."""
    return _safe_div(c.tp + c.tn, c.total)


def balanced_accuracy(c: ConfusionCounts) -> float:
    """Mean of recall and specificity; still TN-dependent."""
    spec = _safe_div(c.tn, c.tn + c.fp)
    return (recall(c) + spec) / 2


def fowlkes_mallows(c: ConfusionCounts) -> float:
    """Geometric mean of precision and recall [Fowlkes & Mallows 1983]."""
    return math.sqrt(precision(c) * recall(c))


def matthews_corrcoef(c: ConfusionCounts) -> float:
    """MCC [Chicco et al. 2021] — TN-aware but robust; in [-1, 1]."""
    num = c.tp * c.tn - c.fp * c.fn
    den = math.sqrt(
        float(c.tp + c.fp)
        * float(c.tp + c.fn)
        * float(c.tn + c.fp)
        * float(c.tn + c.fn)
    )
    return _safe_div(num, den)


def reduction_ratio(c: ConfusionCounts) -> float:
    """1 - |E| / |universe| [Köpcke & Rahm 2010].

    For candidate generation (pipeline step 2): how much of the quadratic
    pair space the blocker pruned.
    """
    return 1.0 - _safe_div(c.predicted, c.total)


#: name -> metric function; the order is the column order of N-metric views.
ALL_METRICS = {
    "precision": precision,
    "recall": recall,
    "f1": f1,
    "f_star": f_star,
    "accuracy": accuracy,
    "balanced_accuracy": balanced_accuracy,
    "fowlkes_mallows": fowlkes_mallows,
    "mcc": matthews_corrcoef,
    "reduction_ratio": reduction_ratio,
}


def all_metrics(c: ConfusionCounts) -> dict[str, float]:
    """Snowman's N-Metrics view for one experiment: every metric at once."""
    return {name: fn(c) for name, fn in ALL_METRICS.items()}
