"""Tests for repro.core.clustering — connected components substrate."""
import networkx as nx
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clustering as CL
from repro.core.clustering import connected_components


def _df(spark, rows, cols):
    if not rows:
        return spark.createDataFrame([], ", ".join(f"{c} string" for c in cols))
    return spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)))


def _canon_comps(sets):
    """Canonical, totally ordered list of components (frozenset < is partial)."""
    return sorted((len(s), tuple(sorted(s))) for s in sets)


def _components(spark, edges, nodes):
    e = _df(spark, edges, ("id1", "id2"))
    n = _df(spark, [(x,) for x in nodes], ("rid",))
    out = connected_components(e, n).collect()
    comp: dict = {}
    for r in out:
        comp.setdefault(r["cluster"], set()).add(r["rid"])
    return _canon_comps(comp.values()), {r["rid"]: r["cluster"] for r in out}


class TestConnectedComponents:
    def test_single_edge(self, spark):
        comps, _ = _components(spark, [("a", "b")], ["a", "b"])
        assert comps == [(2, ("a", "b"))]

    def test_chain_is_one_component(self, spark):
        comps, _ = _components(
            spark, [("a", "b"), ("b", "c"), ("c", "d")], list("abcd")
        )
        assert comps == [(4, ("a", "b", "c", "d"))]

    def test_two_components_and_singleton(self, spark):
        comps, _ = _components(
            spark, [("a", "b"), ("c", "d")], list("abcde")
        )
        assert comps == [(1, ("e",)), (2, ("a", "b")), (2, ("c", "d"))]

    def test_long_path_converges(self, spark):
        # Path of 12 nodes exercises multiple propagation rounds.
        nodes = [f"n{i:02d}" for i in range(12)]
        edges = [(nodes[i], nodes[i + 1]) for i in range(11)]
        comps, _ = _components(spark, edges, nodes)
        assert comps == [(12, tuple(sorted(nodes)))]

    def test_cluster_label_is_min_rid(self, spark):
        _, labels = _components(spark, [("b", "c"), ("a", "b")], list("abc"))
        assert labels["c"] == "a"

    def test_no_edges_all_singletons(self, spark):
        comps, labels = _components(spark, [], list("abc"))
        assert len(comps) == 3
        assert all(labels[r] == r for r in "abc")

    def test_dense_clique(self, spark):
        nodes = [f"x{i}" for i in range(6)]
        edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        comps, _ = _components(spark, edges, nodes)
        assert comps == [(6, tuple(sorted(nodes)))]

    def test_matches_networkx_free_reference(self, spark):
        # Reference union-find on the driver vs the Spark result.
        import random

        rng = random.Random(7)
        nodes = [f"r{i}" for i in range(40)]
        edges = [tuple(sorted(rng.sample(nodes, 2))) for _ in range(35)]
        comps, _ = _components(spark, edges, nodes)

        parent = {n: n for n in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        expected: dict = {}
        for n in nodes:
            expected.setdefault(find(n), set()).add(n)
        assert comps == _canon_comps(expected.values())


def _networkx(edges, nodes):
    """Reference: components and min-rid labels of the networkx graph."""
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    comps = list(nx.connected_components(g))
    return _canon_comps(comps), {x: min(c) for c in comps for x in c}


class TestAgainstNetworkx:
    def test_80_node_path_is_one_cluster(self, spark):
        # Regression: label propagation capped at 50 rounds returned 30 clusters.
        nodes = [f"n{i:02d}" for i in range(80)]
        edges = list(zip(nodes, nodes[1:]))
        got = _components(spark, edges, nodes)
        assert got == _networkx(edges, nodes)
        assert got[0] == [(80, tuple(nodes))]

    def test_stars(self, spark):
        # Centres in the middle of the id order, so the label is not the centre.
        nodes = [f"s{i}{j}" for i in range(3) for j in range(6)]
        edges = [
            tuple(sorted((f"s{i}3", f"s{i}{j}"))) for i in range(3) for j in range(6) if j != 3
        ]
        assert _components(spark, edges, nodes) == _networkx(edges, nodes)

    def test_cliques_and_singletons(self, spark):
        cliques = [[f"c{i}{j}" for j in range(k)] for i, k in enumerate((2, 3, 5))]
        nodes = [x for c in cliques for x in c] + ["z1", "z2"]
        edges = [(a, b) for c in cliques for i, a in enumerate(c) for b in c[i + 1 :]]
        assert _components(spark, edges, nodes) == _networkx(edges, nodes)

    def test_singleton_only_data(self, spark):
        nodes = [f"r{i}" for i in range(5)]
        assert _components(spark, [], nodes) == _networkx([], nodes)

    @settings(max_examples=15, deadline=None)
    @given(
        st.sets(
            st.tuples(st.integers(0, 24), st.integers(0, 24)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=40,
        )
    )
    def test_random_graphs(self, spark, pairs):
        nodes = [f"v{i:02d}" for i in range(25)]
        edges = [(nodes[a], nodes[b]) for a, b in sorted(pairs)]
        assert _components(spark, edges, nodes) == _networkx(edges, nodes)


class TestValidation:
    def test_reversed_pair_raises(self, spark):
        with pytest.raises(ValueError, match=r"\('b', 'a'\)"):
            _components(spark, [("a", "b"), ("b", "a")], list("ab"))

    def test_self_pair_raises(self, spark):
        with pytest.raises(ValueError, match="not canonical"):
            _components(spark, [("a", "a")], list("a"))

    def test_size_guard(self, spark, monkeypatch):
        monkeypatch.setattr(CL, "MAX_EDGES", 3)
        nodes = list("abcde")
        edges = list(zip(nodes, nodes[1:]))
        assert _components(spark, edges[:3], nodes)[0] == [(1, ("e",)), (4, tuple("abcd"))]
        with pytest.raises(ValueError, match="MAX_EDGES = 3"):
            _components(spark, edges, nodes)

    def test_unknown_id_raises_naming_it(self, spark):
        # "c" and "e" are matched but are no records; the least one is named.
        with pytest.raises(ValueError, match=r"pair id 'c' is not a rid"):
            _components(spark, [("a", "e"), ("b", "c"), ("a", "b")], list("abd"))
        assert _components(spark, [("a", "b")], list("abd"))[0] == [(1, ("d",)), (2, ("a", "b"))]

    def test_duplicate_rows_count_once_against_the_guard(self, spark, monkeypatch):
        monkeypatch.setattr(CL, "MAX_EDGES", 1)
        assert _components(spark, [("a", "b"), ("a", "b")], list("ab"))[0] == [(2, ("a", "b"))]

    def test_leaves_no_rdd_persisted(self, spark):
        nodes = [f"n{i:02d}" for i in range(12)]
        before = spark.sparkContext._jsc.getPersistentRDDs().size()
        _components(spark, list(zip(nodes, nodes[1:])), nodes)
        assert spark.sparkContext._jsc.getPersistentRDDs().size() == before
