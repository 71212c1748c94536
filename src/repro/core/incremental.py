"""Snowman's incremental metric/metric-diagram engine (paper Appendix D).

Computes a sequence of confusion matrices for ``s`` similarity thresholds
over a scored match list, in O(|D| + |Matches|·log|Matches|) instead of the
naïve O(s·(|D| + |Matches|)):

- :class:`UnionFind` holds only the records that appear in a match, created
  lazily; a record in no match is a singleton and adds no pairs.
- :func:`confusion_series` is paper Algorithm 1. It computes the result of
  the paper's Algorithm 2 (``trackedUnion`` plus the dynamic intersection)
  without a second union-find: a union adds Σ_g count_a[g]·count_b[g] to
  the true-positive count — the pairs it adds to the intersection of the
  experiment clustering with the gold clustering (paper Fig. 10). A pure
  cluster (one gold label) is its root's label and union-find size; only
  a mixed one keeps a ``{gold label: count}`` map, merged small into large.
  :func:`naive_confusion_series` is the paper's "slightly more advanced
  naïve" baseline — rebuild clustering and intersection from scratch at
  every threshold — which Table 1 compares against.

Both engines cut the sorted matches at the same borders, moved to the end
of any run of tied similarities, so every point is the transitive closure
of exactly the matches at or above its threshold.

This engine is deliberately a driver-side data structure: the algorithm is a
sequential fold over matches sorted by similarity (each step depends on all
previous unions), which is exactly why the paper built a bespoke structure
rather than re-running a dataflow per threshold. The Spark-side counterpart
for pair-level (non-closure) sweeps lives in :mod:`repro.core.diagrams`.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.metrics import ConfusionCounts, pair_universe_size


@dataclass(frozen=True, slots=True)
class Confusion(ConfusionCounts):
    """One diagram data point: the confusion cells at a similarity threshold."""

    threshold: float


class UnionFind:
    """Union-find by size with path compression and pair counting.

    ``pair_count`` is Σ C(size(c), 2) over all clusters — the number of
    intra-cluster pairs — maintained in O(1) per union [Tarjan 1972 for the
    asymptotics of find/union]. Records are created on first use: one never
    passed to :meth:`union` is a singleton, so the state grows with the
    records that appear in a match, not with the dataset.
    """

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.pair_count = 0

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while (up := parent.get(root, root)) != root:
            root = up
        while x != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> tuple[int, int] | None:
        """Merge the clusters of ``a`` and ``b``.

        Returns ``(kept root, absorbed root)``, or ``None`` if ``a`` and
        ``b`` were in one cluster already.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        size = self.size
        sa, sb = size.get(ra, 1), size.get(rb, 1)
        if sa < sb:
            ra, rb, sa, sb = rb, ra, sb, sa
        self.parent[rb] = ra
        self.pair_count += sa * sb
        size[ra] = sa + sb
        return ra, rb


def _point_maker(
    n_records: int, truth_labels: Sequence[Hashable]
) -> Callable[[float, int, int], Confusion]:
    """``point(threshold, tp, predicted_pairs)`` -> the full confusion cells.

    The gold pair count is Σ C(c, 2) over gold cluster sizes c, summed in
    numpy over one count per gold label; a point is a slotted :class:`Confusion`.
    """
    sizes = np.fromiter(Counter(truth_labels).values(), dtype=np.int64)
    gold_pairs = int(pair_universe_size(sizes).sum())
    total = pair_universe_size(n_records)

    def point(threshold: float, tp: int, predicted: int) -> Confusion:
        fn = gold_pairs - tp
        return Confusion(tp, predicted - tp, fn, total - predicted - fn, threshold)

    return point


def _prepare(
    n_records: int,
    truth_labels: Sequence[Hashable],
    matches: Sequence[tuple[float, int, int]],
    s: int,
) -> list[tuple[float, int, int]]:
    """Validate the engine input; returns the matches by descending similarity."""
    if s < 1:
        raise ValueError(f"s = {s}: a diagram needs at least 1 point")
    if len(truth_labels) != n_records:
        raise ValueError(
            f"{len(truth_labels)} truth labels given for {n_records} records"
        )
    for m in matches:
        sim, a, b = m
        # NaN, or a number _batch_ends would merge; numpy compares its integers as float64
        inexact = type(sim) is not float and isinstance(sim, np.integer) and float(sim) != int(sim)
        if float(sim) != sim or inexact:
            why = "is NaN" if sim != sim else f"{sim!r} is not exactly a float64"
            raise ValueError(f"match {m!r}: similarity {why}")
        if not (
            type(a) is int and type(b) is int
            and 0 <= a < n_records and 0 <= b < n_records
        ):
            raise ValueError(
                f"match {m!r}: record ids must be ints in [0, {n_records})"
            )
    return sorted(matches, key=itemgetter(0), reverse=True)


def _batch_ends(ordered: list[tuple[float, int, int]], s: int) -> list[int]:
    """End (exclusive) of each of the ``s - 1`` prefixes of ``ordered``.

    The paper samples diagram points every ``|Matches| / (s-1)`` matches (not
    at equidistant thresholds) to avoid empty segments; we use the same
    policy, rounding borders when |Matches| is not divisible. Each border is
    then moved to the end of its run of tied similarities, so no prefix
    holds part of a tie: a prefix emptied by that repeats the point before.
    All borders move in one ``np.searchsorted`` over float64 keys, which
    :func:`_prepare` has checked are exact: a number float64 does not hold
    exactly would join its float64 neighbour's tie run.
    """
    ends = np.rint(np.arange(1, s) * len(ordered) / (s - 1)).astype(np.int64)
    empty = int(np.count_nonzero(ends == 0))  # a leading run of empty prefixes
    keys = -np.array([m[0] for m in ordered], dtype=np.float64)
    return [0] * empty + np.searchsorted(keys, keys[ends[empty:] - 1], "right").tolist()


def confusion_series(
    n_records: int,
    truth_labels: Sequence[Hashable],
    matches: Sequence[tuple[float, int, int]],
    s: int,
) -> list[Confusion]:
    """Paper Algorithm 1: ``s`` confusion matrices over descending thresholds.

    ``matches`` are ``(similarity, record_a, record_b)`` with records as
    dense integer ids in ``[0, n_records)``; ``truth_labels[r]`` is the gold
    cluster of record ``r``. Point 0 is the empty experiment (threshold ∞);
    point ``i`` includes the ``i·|Matches|/(s-1)`` highest-similarity matches
    together with every match tied with the last of them, transitively
    closed. Where ties absorb a whole range, a point repeats the one before
    it, so a tied input can have fewer than ``s`` distinct points.
    Raises ``ValueError`` on ``s < 1``, on a label count other than
    ``n_records``, on a record id not an int in range, or on a similarity
    that is NaN or not a float64 exactly (the first such match is named).
    """
    ordered = _prepare(n_records, truth_labels, matches, s)
    point = _point_maker(n_records, truth_labels)
    uf = UnionFind()
    union, size = uf.union, uf.size
    # Root of a cluster of two or more gold labels -> {gold label: count}.
    mixed: dict[int, dict[Hashable, int]] = {}
    tp = 0
    out = [point(float("inf"), 0, 0)]
    start = 0
    for stop in _batch_ends(ordered, s):
        if stop == start:
            out.append(out[-1])
            continue
        for _, a, b in ordered[start:stop]:
            roots = union(a, b)
            if roots is None:
                continue
            keep, gone = roots
            n_gone = size.get(gone, 1)
            n_keep = size[keep] - n_gone
            big, small = mixed.get(keep), mixed.pop(gone, None)
            if big is None and small is None:  # two pure clusters
                g, h = truth_labels[keep], truth_labels[gone]
                if g is h or g == h:  # one dict key, as a shared NaN is
                    tp += n_keep * n_gone
                    continue
            big = big or {truth_labels[keep]: n_keep}
            small = small or {truth_labels[gone]: n_gone}
            if len(big) < len(small):
                big, small = small, big
            mixed[keep] = big
            for g, c in small.items():  # the pairs the merge adds to TP
                have = big.get(g, 0)
                tp += have * c
                big[g] = have + c
        out.append(point(ordered[stop - 1][0], tp, uf.pair_count))
        start = stop
    return out


def naive_confusion_series(
    n_records: int,
    truth_labels: Sequence[Hashable],
    matches: Sequence[tuple[float, int, int]],
    s: int,
) -> list[Confusion]:
    """Naïve baseline (paper Appendix D): recompute everything per threshold.

    For each of the ``s`` thresholds, build the experiment clustering from
    scratch with a fresh union-find, then compute the intersection pair count
    by grouping every record on (experiment root, truth cluster). Linear per
    threshold — this is the stronger of the two naïve variants the paper
    describes, and the one timed in Table 1. Same points and validation as
    :func:`confusion_series`.
    """
    ordered = _prepare(n_records, truth_labels, matches, s)
    point = _point_maker(n_records, truth_labels)
    out: list[Confusion] = []
    for k in [0, *_batch_ends(ordered, s)]:
        uf = UnionFind()
        for _, a, b in ordered[:k]:
            uf.union(a, b)
        isizes: dict[tuple[int, Hashable], int] = {}
        for r in range(n_records):
            key = (uf.find(r), truth_labels[r])
            isizes[key] = isizes.get(key, 0) + 1
        tp = sum(map(pair_universe_size, isizes.values()))
        thr = ordered[k - 1][0] if k else float("inf")
        out.append(point(thr, tp, uf.pair_count))
    return out
