"""Snowman's incremental metric/metric-diagram engine (paper Appendix D).

Computes a sequence of confusion matrices for ``s`` similarity thresholds
over a scored match list, in O(|D| + |Matches|·log|Matches|) instead of the
naïve O(s·(|D| + |Matches|)):

- :class:`UnionFind` holds only the records that appear in a match, created
  lazily; a record in no match is a singleton and adds no pairs.
- :func:`confusion_series` is paper Algorithm 1. It computes the result of
  the paper's Algorithm 2 (``trackedUnion`` plus the dynamic intersection)
  without a second union-find: each experiment cluster keeps how many
  members each gold cluster has, a union merges the smaller of the two
  label maps into the larger, and adds Σ_g count_a[g]·count_b[g] to the
  true-positive count — the pairs it adds to the intersection of the
  experiment clustering with the gold clustering (paper Fig. 10).
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

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.core.metrics import ConfusionCounts


@dataclass(frozen=True)
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

    The gold pair count is Σ C(c, 2) over gold cluster sizes c, taken from
    how many gold clusters have each size rather than from every cluster.
    """
    sizes = Counter(Counter(truth_labels).values())
    gold_pairs = sum(k * (c * (c - 1) // 2) for c, k in sizes.items())
    total = n_records * (n_records - 1) // 2

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
        if sim != sim:  # NaN: the sort below would leave the matches unsorted
            raise ValueError(f"match {m!r}: similarity is NaN")
        if not (
            type(a) is int and type(b) is int
            and 0 <= a < n_records and 0 <= b < n_records
        ):
            raise ValueError(
                f"match {m!r}: record ids must be ints in [0, {n_records})"
            )
    return sorted(matches, key=lambda m: -m[0])


def _batch_ends(ordered: list[tuple[float, int, int]], s: int) -> list[int]:
    """End (exclusive) of each of the ``s - 1`` prefixes of ``ordered``.

    The paper samples diagram points every ``|Matches| / (s-1)`` matches (not
    at equidistant thresholds) to avoid empty segments; we use the same
    policy, rounding borders when |Matches| is not divisible. Each border is
    then moved to the end of its run of tied similarities, so no prefix
    holds part of a tie: a prefix emptied by that repeats the point before.
    """
    keys = [-m[0] for m in ordered]  # ascending, as bisect needs
    ends = (round(i * len(keys) / (s - 1)) for i in range(1, s))
    return [bisect_right(keys, keys[end - 1]) if end else 0 for end in ends]


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
    ``n_records``, on a record id that is not an int in range, or on a NaN
    similarity (the first such match is named).
    """
    ordered = _prepare(n_records, truth_labels, matches, s)
    point = _point_maker(n_records, truth_labels)
    uf = UnionFind()
    # Root of a cluster of two or more -> {gold label: member count}.
    labels: dict[int, dict[Hashable, int]] = {}
    tp = 0
    out = [point(float("inf"), 0, 0)]
    start = 0
    for stop in _batch_ends(ordered, s):
        if stop == start:
            out.append(out[-1])
            continue
        for _, a, b in ordered[start:stop]:
            roots = uf.union(a, b)
            if roots is None:
                continue
            keep, gone = roots
            big = labels.get(keep) or {truth_labels[keep]: 1}
            small = labels.pop(gone, None) or {truth_labels[gone]: 1}
            if len(big) < len(small):
                big, small = small, big
            labels[keep] = big
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
        tp = sum(c * (c - 1) // 2 for c in isizes.values())
        thr = ordered[k - 1][0] if k else float("inf")
        out.append(point(thr, tp, uf.pair_count))
    return out
