"""Tests for repro.core.noground — ground-truth-free quality estimation."""
import random

import duckdb
import networkx as nx
import pandas as pd
import pytest

from repro.core import noground as NG


def _pairs(spark, rows, cols=("id1", "id2")):
    return spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)))


def _recs(spark, ids):
    return spark.createDataFrame(pd.DataFrame({"rid": list(ids)}))


def _random_graph(seed):
    """Canonical edges of a random sparse graph on 40 records, and the records."""
    rng = random.Random(seed)
    nodes = [f"r{i:02d}" for i in range(40)]
    return sorted({tuple(sorted(rng.sample(nodes, 2))) for _ in range(45)}), nodes


def _components(edges, nodes):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return [g.subgraph(c) for c in nx.connected_components(g)]


class TestClosureViolations:
    def test_closed_set_has_zero(self, spark):
        prs = _pairs(spark, [("a", "b"), ("b", "c"), ("a", "c")])
        assert NG.closure_violation_count(prs, _recs(spark, "abcd")) == 0

    def test_open_triangle_has_one(self, spark):
        prs = _pairs(spark, [("a", "b"), ("b", "c")])
        assert NG.closure_violation_count(prs, _recs(spark, "abc")) == 1

    def test_chain_of_four(self, spark):
        prs = _pairs(spark, [("a", "b"), ("b", "c"), ("c", "d")])
        # closure has 6 pairs, 3 present -> 3 missing
        assert NG.closure_violation_count(prs, _recs(spark, "abcd")) == 3

    def test_reversed_duplicate_pair_raises(self, spark):
        # (a,b) and (b,a): one closed pair but two distinct rows, which
        # came back as -1 missing pairs.
        prs = _pairs(spark, [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match=r"\('b', 'a'\)"):
            NG.closure_violation_count(prs, _recs(spark, "ab"))

    def test_80_node_path(self, spark):
        nodes = [f"n{i:02d}" for i in range(80)]
        prs = _pairs(spark, list(zip(nodes, nodes[1:])))
        assert NG.closure_violation_count(prs, _recs(spark, nodes)) == 80 * 79 // 2 - 79

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, spark, seed):
        edges, nodes = _random_graph(seed)
        want = sum(
            c.number_of_nodes() * (c.number_of_nodes() - 1) // 2 - c.number_of_edges()
            for c in _components(edges, nodes)
        )
        assert NG.closure_violation_count(_pairs(spark, edges), _recs(spark, nodes)) == want


class TestLinkRedundancy:
    def test_clique_is_fully_redundant(self, spark):
        prs = _pairs(spark, [("a", "b"), ("b", "c"), ("a", "c")])
        assert NG.link_redundancy(prs, _recs(spark, "abc")) == pytest.approx(1.0)

    def test_tree_has_zero_redundancy(self, spark):
        prs = _pairs(spark, [("a", "b"), ("b", "c"), ("c", "d")])
        assert NG.link_redundancy(prs, _recs(spark, "abcd")) == pytest.approx(0.0)

    def test_size_two_components_ignored(self, spark):
        prs = _pairs(spark, [("a", "b"), ("c", "d")])
        assert NG.link_redundancy(prs, _recs(spark, "abcd")) == 0.0

    def test_partial_redundancy(self, spark):
        # 4-cycle: 4 edges, n=4 -> extra=1 of possible C(4,2)-3=3.
        prs = _pairs(spark, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        assert NG.link_redundancy(prs, _recs(spark, "abcd")) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, spark, seed):
        edges, nodes = _random_graph(seed)
        big = [c for c in _components(edges, nodes) if c.number_of_nodes() > 2]
        extra = sum(c.number_of_edges() - (c.number_of_nodes() - 1) for c in big)
        possible = sum(
            c.number_of_nodes() * (c.number_of_nodes() - 1) // 2 - (c.number_of_nodes() - 1)
            for c in big
        )
        got = NG.link_redundancy(_pairs(spark, edges), _recs(spark, nodes))
        assert got == pytest.approx(extra / possible if possible else 0.0)


class TestMajorityVote:
    def test_majority_kept(self, spark):
        e1 = _pairs(spark, [("a", "b"), ("c", "d")])
        e2 = _pairs(spark, [("a", "b")])
        e3 = _pairs(spark, [("a", "b"), ("e", "f")])
        got = sorted(map(tuple, NG.majority_vote([e1, e2, e3]).collect()))
        assert got == [("a", "b")]

    def test_strict_majority_required(self, spark):
        e1 = _pairs(spark, [("a", "b")])
        e2 = _pairs(spark, [("c", "d")])
        assert NG.majority_vote([e1, e2]).count() == 0


class TestConsensusDeviations:
    def test_agreeing_experiment_scores_zero(self, spark):
        e = _pairs(spark, [("a", "b")])
        devs = NG.consensus_deviations([e, e, e])
        assert devs == [0, 0, 0]

    def test_outlier_scores_higher(self, spark):
        e1 = _pairs(spark, [("a", "b"), ("c", "d")])
        e2 = _pairs(spark, [("a", "b"), ("c", "d")])
        e3 = _pairs(spark, [("x", "y")])
        devs = NG.consensus_deviations([e1, e2, e3])
        assert devs[0] == devs[1] == 0
        assert devs[2] == 3  # misses both consensus pairs, adds one


@pytest.fixture
def overlapping(spark):
    """Four experiments: overlapping ones, a duplicate and an empty one."""
    rows = [
        [("a", "b"), ("c", "d"), ("e", "f")],
        [("a", "b"), ("c", "d"), ("g", "h")],
        [("a", "b"), ("c", "d"), ("g", "h")],
        [],
    ]
    return [spark.createDataFrame(r, "id1 string, id2 string") for r in rows]


def _duckdb_votes(exps):
    """Reference consensus pairs and |E Δ consensus| of each experiment, in DuckDB."""
    con = duckdb.connect()
    for i, e in enumerate(exps):
        con.register(f"e{i}", e.toPandas())
    union = " UNION ALL ".join(f"SELECT id1, id2 FROM e{i}" for i in range(len(exps)))
    con.execute(
        f"CREATE TABLE cons AS SELECT id1, id2 FROM ({union}) GROUP BY id1, id2"
        f" HAVING 2 * count(*) > {len(exps)}"
    )
    consensus = sorted(con.execute("SELECT * FROM cons").fetchall())
    devs = [
        con.execute(
            f"SELECT (SELECT count(*) FROM (SELECT * FROM cons EXCEPT SELECT * FROM e{i}))"
            f" + (SELECT count(*) FROM (SELECT * FROM e{i} EXCEPT SELECT * FROM cons))"
        ).fetchone()[0]
        for i in range(len(exps))
    ]
    con.close()
    return consensus, devs


class TestMembershipViewsAgainstDuckDB:
    @pytest.mark.parametrize("pick", [[0, 1, 2, 3], [0, 3], [3, 3], [0, 1, 3]])
    def test_majority_vote_and_deviations(self, overlapping, pick):
        exps = [overlapping[i] for i in pick]
        consensus, devs = _duckdb_votes(exps)
        assert sorted(map(tuple, NG.majority_vote(exps).collect())) == consensus
        assert NG.consensus_deviations(exps) == devs


class TestCompactnessSparsity:
    def test_separation(self, spark):
        matches = _pairs(
            spark, [("a", "b", 0.9), ("c", "d", 0.8)], cols=("id1", "id2", "similarity")
        )
        near = _pairs(
            spark, [("a", "c", 0.3), ("b", "d", 0.1)], cols=("id1", "id2", "similarity")
        )
        out = NG.compactness_sparsity(matches, near)
        assert out["compactness"] == pytest.approx(0.85)
        assert out["neighbour_similarity"] == pytest.approx(0.2)
        assert out["separation"] == pytest.approx(0.65)

    def test_empty_inputs(self, spark):
        empty = spark.createDataFrame([], "id1 string, id2 string, similarity double")
        out = NG.compactness_sparsity(empty, empty)
        assert out == {"compactness": 0.0, "neighbour_similarity": 0.0, "separation": 0.0}
