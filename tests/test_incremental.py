"""Tests for repro.core.incremental — Appendix D algorithm, incl. Fig. 10."""
import random
import re
from bisect import bisect_right
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.incremental import (
    Confusion,
    UnionFind,
    _batch_ends,
    _prepare,
    confusion_series,
    naive_confusion_series,
)
from repro.core.metrics import ConfusionCounts, all_metrics


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind()
        assert uf.pair_count == 0
        assert [uf.find(i) for i in range(4)] == [0, 1, 2, 3]

    def test_union_updates_pair_count(self):
        uf = UnionFind()
        uf.union(0, 1)
        assert uf.pair_count == 1
        uf.union(2, 3)
        assert uf.pair_count == 2
        uf.union(0, 2)  # merge size-2 clusters: +4 pairs
        assert uf.pair_count == 6

    def test_idempotent_union(self):
        uf = UnionFind()
        assert uf.union(0, 1) is not None
        assert uf.union(1, 0) is None  # already one cluster
        assert uf.pair_count == 1

    def test_pair_count_matches_binomial(self):
        uf = UnionFind()
        for i in range(9):
            uf.union(i, i + 1)
        assert uf.pair_count == 45

    def test_union_keeps_larger_root(self):
        uf = UnionFind()
        uf.union(0, 1)
        keep, gone = uf.union(2, 0)
        assert (keep, gone) == (uf.find(0), 2)

    def test_holds_only_touched_records(self):
        uf = UnionFind()
        uf.union(10**9, 5)
        assert uf.find(7) == 7
        assert set(uf.parent) <= {10**9, 5}


def _cells(out):
    return [(c.tp, c.fp, c.fn, c.tn) for c in out]


class TestLabelCounting:
    """True positives of one merge at a time, read off the series."""

    def test_merge_within_truth_cluster_adds_tp(self):
        out = confusion_series(2, ["g0", "g0"], [(1.0, 0, 1)], s=2)
        assert out[-1].tp == 1

    def test_merge_across_truth_clusters_adds_nothing(self):
        out = confusion_series(2, ["g0", "g1"], [(1.0, 0, 1)], s=2)
        assert (out[-1].tp, out[-1].fp) == (0, 1)

    def test_match_inside_cluster_adds_nothing(self):
        # The third match joins two records that are already one cluster.
        matches = [(0.9, 0, 1), (0.8, 1, 2), (0.7, 0, 2)]
        out = confusion_series(3, ["g0", "g0", "g0"], matches, s=4)
        assert _cells(out[2:]) == [(3, 0, 0, 0), (3, 0, 0, 0)]

    def test_batch_merges_three_clusters(self):
        # Paper D.1: {{a},{b},{c,d}} and the pairs {a,b},{b,c} in one batch
        # become one cluster with three sources.
        truth = ["g0", "g0", "g0", "g1"]  # a=0 b=1 c=2 d=3
        matches = [(0.9, 2, 3), (0.5, 0, 1), (0.5, 1, 2)]
        out = confusion_series(4, truth, matches, s=4)
        assert _cells(out)[1:3] == [(0, 1, 3, 2), (3, 3, 0, 0)]

    def test_two_merges_in_one_batch(self):
        out = confusion_series(4, [0, 0, 1, 2], [(0.5, 0, 1), (0.5, 2, 3)], s=2)
        assert _cells(out)[-1] == (1, 1, 0, 4)

    def test_string_gold_labels(self):
        truth = ["x", "x", "y", "y", "z"]
        matches = [(0.9, 0, 1), (0.8, 2, 3), (0.7, 1, 2), (0.6, 3, 4)]
        out = confusion_series(5, truth, matches, s=5)
        assert out == naive_confusion_series(5, truth, matches, s=5)
        assert _cells(out)[-1] == (2, 8, 0, 0)


NAN = float("nan")  # one object: as a dict key it is one gold label

#: gold labels whose identity as dict keys is easy to get wrong: equal
#: numbers of three types, a NaN object that is not ``==`` to itself, and
#: nested containers.
LABEL_POOLS = {
    "1, 1.0 and True are one label": [1, 1.0, True, 2],
    "one shared NaN": [NAN, 0],
    "strings and tuples": ["a", "b", ("a",), ("a", 1), ("b", ("a",))],
}


@st.composite
def _labelled_instances(draw, pool):
    n = draw(st.integers(2, 20))
    truth = [draw(st.sampled_from(pool)) for _ in range(n)]
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    matches = [
        (draw(st.sampled_from([0.2, 0.5, 0.9])), a, b)
        for a, b in draw(st.lists(ends, max_size=30))
        if a != b
    ]
    return n, truth, matches, draw(st.integers(2, 8))


class TestLabelMaps:
    """Pure clusters carry no label map; the fast engine must agree with the
    naïve one on every label set, whichever way clusters turn mixed."""

    @pytest.mark.parametrize("pool", sorted(LABEL_POOLS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fast_equals_naive(self, pool, data):
        n, truth, matches, s = data.draw(_labelled_instances(LABEL_POOLS[pool]))
        assert confusion_series(n, truth, matches, s) == naive_confusion_series(
            n, truth, matches, s
        )

    def test_shared_nan_label_is_one_gold_cluster(self):
        for engine in (confusion_series, naive_confusion_series):
            out = engine(2, [NAN, NAN], [(1.0, 0, 1)], 2)
            assert [c.tp for c in out] == [0, 1]

    @pytest.mark.parametrize("n_labels", [1, 2, 3])
    def test_long_chains_over_few_labels(self, n_labels):
        # Two interleaved chains, each crossing every label many times, so
        # pure clusters grow and then turn mixed; a last match joins them.
        rng = random.Random(n_labels)
        n = 300
        truth = [rng.randrange(n_labels) for _ in range(n)]
        matches = [(rng.random(), r, r + 2) for r in range(n - 2)] + [(0.0, 0, 1)]
        for s in (7, len(matches) + 1):
            fast = confusion_series(n, truth, matches, s)
            assert fast == naive_confusion_series(n, truth, matches, s)
        assert (fast[-1].tp, fast[-1].fp) == _closure_cells(n, truth, matches, 0.0)


class TestFigure9Example:
    def test_side_effect_merge(self):
        # Paper Fig. 9: truth {a,b},{c}; matches {b,c} then {a,c}. The first
        # merge changes nothing; the second brings a and b together.
        truth = ["g0", "g0", "g1"]  # a=0, b=1, c=2
        out = confusion_series(3, truth, [(2.0, 1, 2), (1.0, 0, 2)], s=3)
        assert [c.tp for c in out] == [0, 0, 1]  # {a, b} intersect-clustered
        assert out == naive_confusion_series(3, truth, [(2.0, 1, 2), (1.0, 0, 2)], s=3)


class TestFigure10Example:
    """Exact reproduction of the paper's worked example (Fig. 10)."""

    def test_all_four_steps(self):
        # Dataset {a,b,c,d}; truth g0:{a,b}, g1:{c,d};
        # matches {a,c}, {b,d}, {a,b} in descending-score order; s = 4.
        truth = ["g0", "g0", "g1", "g1"]  # a=0 b=1 c=2 d=3
        matches = [(3.0, 0, 2), (2.0, 1, 3), (1.0, 0, 1)]
        out = confusion_series(4, truth, matches, s=4)
        cells = [(c.tp, c.fp, c.fn, c.tn) for c in out]
        assert cells == [
            (0, 0, 2, 4),  # step 0
            (0, 1, 2, 3),  # after {a,c}
            (0, 2, 2, 2),  # after {b,d}
            (2, 4, 0, 0),  # after {a,b} — transitive closure fills all pairs
        ]

    def test_naive_agrees_on_figure10(self):
        truth = ["g0", "g0", "g1", "g1"]
        matches = [(3.0, 0, 2), (2.0, 1, 3), (1.0, 0, 1)]
        assert naive_confusion_series(4, truth, matches, s=4) == confusion_series(
            4, truth, matches, s=4
        )


class TestSeriesShape:
    def test_first_point_is_empty_experiment(self):
        out = confusion_series(3, [0, 0, 1], [(1.0, 0, 1)], s=2)
        assert out[0] == Confusion(threshold=float("inf"), tp=0, fp=0, fn=1, tn=2)

    def test_points_are_confusion_counts(self):
        # A diagram point goes into the §3.2.1 metric functions as it is.
        out = confusion_series(4, [0, 0, 1, 1], [(0.9, 0, 1), (0.5, 1, 2)], s=3)
        assert all(isinstance(c, ConfusionCounts) for c in out)
        assert all_metrics(out[-1]) == all_metrics(
            ConfusionCounts(tp=1, fp=2, fn=1, tn=2)
        )

    def test_number_of_points_is_s(self):
        matches = [(1.0 - i / 10, i, i + 1) for i in range(9)]
        out = confusion_series(10, list(range(10)), matches, s=5)
        assert len(out) == 5

    def test_no_matches(self):
        out = confusion_series(4, [0, 0, 1, 1], [], s=3)
        assert all((c.tp, c.fp) == (0, 0) for c in out)

    def test_tp_monotone_nondecreasing(self):
        rng = random.Random(0)
        n = 30
        truth = [rng.randrange(8) for _ in range(n)]
        matches = [
            (rng.random(), *sorted(rng.sample(range(n), 2))) for _ in range(40)
        ]
        out = confusion_series(n, truth, matches, s=9)
        tps = [c.tp for c in out]
        assert tps == sorted(tps)

    def test_cells_always_sum_to_universe(self):
        rng = random.Random(1)
        n = 25
        truth = [rng.randrange(6) for _ in range(n)]
        matches = [
            (rng.random(), *sorted(rng.sample(range(n), 2))) for _ in range(30)
        ]
        total = n * (n - 1) // 2
        for c in confusion_series(n, truth, matches, s=7):
            assert c.tp + c.fp + c.fn + c.tn == total
            assert min(c.tp, c.fp, c.fn, c.tn) >= 0


@st.composite
def _instances(draw):
    n = draw(st.integers(2, 20))
    truth = [draw(st.integers(0, 5)) for _ in range(n)]
    n_matches = draw(st.integers(0, 30))
    matches = []
    for _ in range(n_matches):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a == b:
            continue
        matches.append((draw(st.floats(0, 1, allow_nan=False)), min(a, b), max(a, b)))
    s = draw(st.integers(2, 8))
    return n, truth, matches, s


class TestIncrementalEqualsNaive:
    @settings(max_examples=150, deadline=None)
    @given(_instances())
    def test_equivalence(self, inst):
        n, truth, matches, s = inst
        fast = confusion_series(n, truth, matches, s)
        slow = naive_confusion_series(n, truth, matches, s)
        assert [(c.tp, c.fp, c.fn, c.tn) for c in fast] == [
            (c.tp, c.fp, c.fn, c.tn) for c in slow
        ]

    def test_equivalence_large_random(self):
        rng = random.Random(42)
        n = 500
        truth = [rng.randrange(120) for _ in range(n)]
        matches = [
            (rng.random(), *sorted(rng.sample(range(n), 2))) for _ in range(800)
        ]
        fast = confusion_series(n, truth, matches, s=21)
        slow = naive_confusion_series(n, truth, matches, s=21)
        assert fast == slow


def _closure_cells(n, truth, matches, threshold):
    """Reference: (tp, fp) of the networkx closure of matches >= threshold."""
    g = nx.Graph()
    g.add_edges_from((a, b) for sim, a, b in matches if sim >= threshold)
    tp = fp = 0
    for comp in nx.connected_components(g):
        per_label = {}
        for r in comp:
            per_label[truth[r]] = per_label.get(truth[r], 0) + 1
        inside = sum(c * (c - 1) // 2 for c in per_label.values())
        tp += inside
        fp += len(comp) * (len(comp) - 1) // 2 - inside
    return tp, fp


@st.composite
def _tied_instances(draw):
    n, truth, matches, s = draw(_instances())
    sims = st.sampled_from([0.1, 0.5, 0.9])
    return n, truth, [(draw(sims), a, b) for _, a, b in matches], s


class TestTies:
    # Gold {0,1},{2,3}; the two 0.9 matches must enter together.
    TRUTH = [0, 0, 1, 1]
    MATCHES = [(0.9, 0, 1), (0.9, 1, 2), (0.5, 2, 3)]

    def test_no_phantom_point_inside_a_tie(self):
        for engine in (confusion_series, naive_confusion_series):
            out = engine(4, self.TRUTH, self.MATCHES, s=4)
            assert [(c.threshold, c.tp, c.fp) for c in out] == [
                (float("inf"), 0, 0),
                (0.9, 1, 2),
                (0.9, 1, 2),  # range emptied by the tie: repeats the point
                (0.5, 2, 4),
            ]

    def test_all_tied_matches_fill_the_series(self):
        matches = [(0.5, i, i + 1) for i in range(6)]
        out = confusion_series(7, [0] * 7, matches, s=4)
        assert len(out) == 4
        assert out[1] == out[2] == out[3]
        assert out[1].tp == 21

    @settings(max_examples=150, deadline=None)
    @given(_tied_instances())
    def test_every_point_is_the_closure_at_its_threshold(self, inst):
        n, truth, matches, s = inst
        fast = confusion_series(n, truth, matches, s)
        assert fast == naive_confusion_series(n, truth, matches, s)
        assert len(fast) == s
        for c in fast:
            assert (c.tp, c.fp) == _closure_cells(n, truth, matches, c.threshold)


def _bisect_batch_ends(ordered, s):
    """Reference for ``_batch_ends``: one ``bisect`` per border on Python keys."""
    keys = [-m[0] for m in ordered]  # ascending, as bisect needs
    ends = (round(i * len(keys) / (s - 1)) for i in range(1, s))
    return [bisect_right(keys, keys[end - 1]) if end else 0 for end in ends]


#: similarities with ties, both zeros, ints and every exact float64.
_similarities = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 0.5, 1, 1.0, True, -3]),
    st.floats(allow_nan=False),
    st.integers(-(2**53), 2**53),
)


class TestBatchEnds:
    @settings(max_examples=300, deadline=None)
    @given(sims=st.lists(_similarities, max_size=40), s=st.integers(1, 50))
    @example(sims=[], s=1)
    @example(sims=[], s=4)
    @example(sims=[0.5, 0.0, -0.0, 0, 0.5], s=1)
    @example(sims=[0.5, 0.0, -0.0, 0, 0.5], s=2)
    @example(sims=[0.0, -0.0, 0.0, 1, 1.0], s=17)
    def test_equals_one_bisect_per_border(self, sims, s):
        # Distinct record pairs, so an order that differs only among tied
        # similarities (0.0 against -0.0) shows.
        matches = [(x, i, i + 1) for i, x in enumerate(sims)]
        ordered = _prepare(len(sims) + 1, [0] * (len(sims) + 1), matches, s)
        assert ordered == sorted(matches, key=lambda m: -m[0])
        assert _batch_ends(ordered, s) == _bisect_batch_ends(ordered, s)


class TestValidation:
    ENGINES = pytest.mark.parametrize(
        "engine", [confusion_series, naive_confusion_series]
    )

    @ENGINES
    def test_negative_record_id(self, engine):
        # -1 used to index record 2 from the end and count a false positive.
        with pytest.raises(ValueError, match=r"\(1\.0, -1, 0\)"):
            engine(3, [0, 0, 1], [(1.0, -1, 0)], 2)

    @ENGINES
    def test_label_count_differs_from_records(self, engine):
        # Five labels for three records used to give tn = -1.
        with pytest.raises(ValueError, match="5 truth labels"):
            engine(3, [0, 0, 1, 1, 1], [(1.0, 0, 1)], 2)

    @ENGINES
    @pytest.mark.parametrize("bad", [(1.0, 0, 3), (1.0, "a", 1), (1.0, 0, 1.0)])
    def test_record_id_not_an_int_in_range(self, engine, bad):
        with pytest.raises(ValueError, match="record ids must be ints"):
            engine(3, [0, 0, 1], [(0.5, 0, 1), bad], 2)

    @ENGINES
    @pytest.mark.parametrize("s", [0, -3])
    def test_fewer_than_one_point(self, engine, s):
        # Both engines used to return one point, though s points are promised.
        with pytest.raises(ValueError, match=f"s = {s}:"):
            engine(3, [0, 0, 1], [(1.0, 0, 1)], s)

    @ENGINES
    def test_nan_similarity(self, engine):
        # A NaN used to leave the sort unsorted: on these matches the two
        # engines disagreed (tp 1 against 3 at point 3) and neither raised.
        nan = float("nan")
        matches = [(0.9, 0, 1), (nan, 1, 2), (0.8, 2, 3), (0.95, 3, 4), (0.1, 4, 5)]
        with pytest.raises(ValueError, match=r"\(nan, 1, 2\): similarity is NaN"):
            engine(6, [0, 0, 1, 1, 2, 2], matches, 6)

    @ENGINES
    @pytest.mark.parametrize("sim", [2**53 + 1, Fraction(1, 3)])
    def test_similarity_not_exactly_a_float64(self, engine, sim):
        # As float64 it equals its neighbour, whose tie run it would join.
        matches = [(float(sim), 0, 1), (sim, 1, 2)]
        with pytest.raises(ValueError, match=re.escape(f"match {(sim, 1, 2)!r}")):
            engine(3, [0, 0, 1], matches, 3)


class TestEdgeCases:
    def test_singleton_only_data(self):
        n = 6
        out = confusion_series(n, list(range(n)), [(0.5, 0, 1), (0.4, 2, 3)], s=3)
        assert _cells(out) == [(0, 0, 0, 15), (0, 1, 0, 14), (0, 2, 0, 13)]

    def test_long_chain(self):
        n = 2000
        truth = [r // 1000 for r in range(n)]
        matches = [(1.0 - r / n, r, r + 1) for r in range(n - 1)]
        out = confusion_series(n, truth, matches, s=5)
        assert out == naive_confusion_series(n, truth, matches, s=5)
        assert _cells(out)[-1] == (2 * 499_500, 1000 * 1000, 0, 0)

    def test_many_more_records_than_matched(self):
        n = 1_000_000
        truth = [r // 2 for r in range(n)]
        matches = [(0.9, 0, 1), (0.8, 999_998, 999_999), (0.7, 1, 2)]
        out = confusion_series(n, truth, matches, s=4)
        gold = n // 2
        total = n * (n - 1) // 2
        assert _cells(out)[-1] == (2, 2, gold - 2, total - gold - 2)
