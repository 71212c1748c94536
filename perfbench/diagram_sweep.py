"""Workload ``diagram_sweep``: the Appendix-D engine on the five Table-1 shapes.

Every op is one ``core.incremental.confusion_series`` call. Each shape runs
at the paper's full size, at s=100 and at full resolution (s=|M|+1), on
continuous scores and on the same matches rounded to 2 decimals, which is
tie-heavy like coarse real matcher scores: 20 diagrams per pass. It runs
in the Python process alone; no Spark.

Checks, per diagram: confusion-cell invariants on every point; an exact
recompute of the transitive closure at the point's own threshold on a
fixed sample of points; and, on continuous scores where it finishes
quickly, equality with ``naive_confusion_series``.

A sampled point that differs from the exact closure only because its
threshold falls inside a run of tied similarities, of which it holds a
part, is a phantom point, the known defect of the engine that ROADMAP.md
describes. The check reports it as a ``KnownDefect``: the op counts in
``known_defect_ratio``, not ``failed_ratio``, and a fix of the engine shows
there. Any other difference fails the op.
"""
from __future__ import annotations

import numpy as np

from ops import KnownDefect, Op
from repro.core import incremental
from repro.matchgen.generator import diagram_workload

#: Table-1 dataset -> (records, matches), at the paper's full sizes.
SHAPES = {
    "x4": (835, 4_005),
    "cora": (1_879, 5_067),
    "cds": (9_763, 147),
    "songs100k": (100_000, 45_801),
    "magellan": (1_000_000, 144_349),
}
S_COARSE = 100
#: points per diagram recomputed exactly.
SAMPLED_POINTS = 16
#: the naïve engine is run where s·(records + matches) stays below this.
NAIVE_WORK = 2_000_000
SCALE = 1.0
USES_SPARK = False
#: set-ups per run, the first a warm-up; one takes about a second.
SETUPS = 9


def setup(spark, seed: int) -> dict:
    """Every shape's workload; seed 0 gives the Table-1 inputs of EXPERIMENTS.md."""
    inputs = {}
    for shape, (n, m) in SHAPES.items():
        # Same cluster-size rule as experiments.table1.build_workload.
        w = diagram_workload(
            n_records=n, n_matches=m, mean_cluster=2.2 if m < n / 10 else 3.0, seed=seed
        )
        rounded = [(round(s, 2), a, b) for s, a, b in w.matches]
        for variant, matches in (("continuous", w.matches), ("rounded", rounded)):
            inputs[(shape, variant)] = (n, w.truth_labels, matches)
    return inputs


def teardown(state) -> None:
    pass


def ops(spark, inputs: dict, seed: int) -> list[Op]:
    out = []
    for (shape, variant), (n, labels, matches) in inputs.items():
        oracle = ClosureOracle(n, labels, matches)
        for s in (S_COARSE, len(matches) + 1):
            naive = variant == "continuous" and s * (n + len(matches)) <= NAIVE_WORK
            out.append(
                Op(
                    f"{shape}/{variant}/s={s}",
                    "core.incremental",
                    _runner(n, labels, matches, s),
                    _checker(oracle, n, labels, matches, s, naive),
                    items=len(matches),
                )
            )
    return out


def _runner(n, labels, matches, s):
    return lambda: incremental.confusion_series(n, labels, matches, s)


def _checker(oracle, n, labels, matches, s, naive: bool):
    reference: list = []

    def check(points) -> list[str]:
        problems = invariant_problems(points, s, n, oracle.gold_pairs)
        idx = sorted({round(i * (s - 1) / SAMPLED_POINTS) for i in range(1, SAMPLED_POINTS + 1)})
        sampled = {i: oracle.span(points[i].threshold) for i in idx if i < len(points)}
        exact = oracle.at([k for ks in sampled.values() for k in ks])
        wrong, phantom = [], []
        for i, (above, at_or_above) in sampled.items():
            c = points[i]
            if (c.tp, c.fp) == exact[at_or_above]:
                continue
            (lo_tp, lo_fp), (hi_tp, hi_fp) = exact[above], exact[at_or_above]
            in_tie_run = at_or_above - above >= 2
            between = lo_tp <= c.tp <= hi_tp and lo_tp + lo_fp <= c.tp + c.fp <= hi_tp + hi_fp
            (phantom if in_tie_run and between else wrong).append(i)
        if wrong:
            problems.append(
                f"{len(wrong)} of {len(idx)} sampled points differ from the exact "
                f"closure at their own threshold (first: point {wrong[0]})"
            )
        if phantom:
            problems.append(
                KnownDefect(
                    f"{len(phantom)} of {len(idx)} sampled points are phantom points: each "
                    "holds part of a run of tied similarities, so it differs from the exact "
                    f"closure at its own threshold (first: point {phantom[0]})"
                )
            )
        if naive:
            if not reference:
                reference.append(incremental.naive_confusion_series(n, labels, matches, s))
            if points != reference[0]:
                problems.append("differs from naive_confusion_series")
        return problems

    return check


def invariant_problems(points, s: int, n: int, gold_pairs: int) -> list[str]:
    """Confusion-cell invariants that hold for every correct diagram."""
    total = n * (n - 1) // 2
    p = []
    if len(points) != s:
        p.append(f"{len(points)} points, expected {s}")
    if points and (points[0].tp or points[0].fp):
        p.append("point 0 is not the empty experiment")
    for a, b in zip(points, points[1:]):
        if b.threshold > a.threshold or b.tp < a.tp or b.tp + b.fp < a.tp + a.fp:
            p.append("points are not monotone in threshold and predicted pairs")
            break
    for c in points:
        if min(c.tp, c.fp, c.fn, c.tn) < 0 or c.tp + c.fp + c.fn + c.tn != total:
            p.append(f"cells do not partition the pair universe at {c.threshold}")
            break
        if c.tp + c.fn != gold_pairs:
            p.append(f"tp + fn != gold pairs at {c.threshold}")
            break
    return p


class ClosureOracle:
    """Exact (tp, fp) of the transitive closure of the k highest-similarity matches.

    Independent of the engine under test: a plain union-find over the matches
    in descending similarity, with numpy grouping of the touched records.
    Records in no match are singletons and add no pairs. ``span`` gives the
    k of a threshold t, with and without the matches of similarity exactly t;
    at those k the closure does not depend on how ties are ordered.
    """

    def __init__(self, n_records: int, labels, matches) -> None:
        order = sorted(matches, key=lambda m: -m[0])
        self.sims = np.array([m[0] for m in order])
        ends = np.array([(m[1], m[2]) for m in order], dtype=np.int64).reshape(-1, 2)
        nodes, compact = np.unique(ends, return_inverse=True)
        self.edges = compact.reshape(-1, 2).tolist()
        gold = np.asarray(labels)
        _, self.gold_of = np.unique(gold[nodes], return_inverse=True)
        counts = np.bincount(np.unique(gold, return_inverse=True)[1])
        self.gold_pairs = int((counts * (counts - 1) // 2).sum())
        self.parent = list(range(len(nodes)))
        self.done = 0
        self.cache: dict[int, tuple[int, int]] = {0: (0, 0)}

    def span(self, t: float) -> tuple[int, int]:
        """How many matches have similarity > t, and how many >= t."""
        return (
            int(np.searchsorted(-self.sims, -t, side="left")),
            int(np.searchsorted(-self.sims, -t, side="right")),
        )

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def at(self, ks: list[int]) -> dict[int, tuple[int, int]]:
        for k in sorted({k for k in ks if k not in self.cache}):
            if k < self.done:  # the sweep is already past k: start again
                self.parent = list(range(len(self.parent)))
                self.done = 0
            for a, b in self.edges[self.done : k]:
                ra, rb = self._find(a), self._find(b)
                if ra != rb:
                    self.parent[ra] = rb
            self.done = k
            self.cache[k] = self._counts()
        return self.cache

    def _counts(self) -> tuple[int, int]:
        roots = np.array(self.parent)
        while True:
            nxt = roots[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        touched = np.zeros(len(roots), dtype=bool)
        if self.done:
            touched[np.array(self.edges[: self.done]).ravel()] = True
        r, g = roots[touched], self.gold_of[touched]
        exp = np.unique(r, return_counts=True)[1]
        inter = np.unique(r * (int(self.gold_of.max()) + 1) + g, return_counts=True)[1]
        tp = int((inter * (inter - 1) // 2).sum())
        return tp, int((exp * (exp - 1) // 2).sum()) - tp
