"""Quality estimation without a ground truth (paper §3.2.3).

Real-world use cases usually have no gold standard — that is why a matcher
is being run at all. Frost therefore estimates result quality from inherent
properties of the result and from agreement with other solutions:

- :func:`closure_violation_count` — the minimum number of pairs to add for
  transitive closedness; large values mean inconsistent matches.
- :func:`link_redundancy` — redundancy of the identity link network
  [Idrissou et al. 2018]: within a cluster of size n, n-1 edges are the
  minimum to connect it; every additional edge re-confirms the identity
  links. High redundancy correlates with high matching quality.
- :func:`consensus_deviations` — deviations of each experiment from the
  per-pair majority vote over several experiments [Vogel et al. 2014]; the
  consensus is a good indicator of correctness.
- :func:`compactness_sparsity` — Chaudhuri-style cluster compactness (mean
  similarity of matches) vs neighbourhood sparsity (mean similarity of close
  non-matches); duplicates should be closer to each other than to others.
"""
from __future__ import annotations

from collections import Counter

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.clustering import match_graph
from repro.core.metrics import pair_universe_size
from repro.core.pairs import tag_memberships


def closure_violation_count(pairs: DataFrame, records: DataFrame) -> int:
    """Number of pairs missing for the match set to be transitively closed.

    A record in no pair is a singleton and adds no pair, so ``records`` is
    not read. Raises as :func:`repro.core.clustering.match_graph` does.
    """
    edges, uf = match_graph(pairs)
    return uf.pair_count - len(edges)


def link_redundancy(pairs: DataFrame, records: DataFrame) -> float:
    """Redundancy of the identity link network, in [0, 1].

    For each non-singleton component with n nodes and e edges, the redundant
    edges are e - (n - 1) out of a possible C(n,2) - (n - 1). We report the
    edge-weighted average over components (components of size 2 contribute
    ratio 0 of 0 and are skipped). 1.0 means every cluster is a full clique.
    As in :func:`closure_violation_count`, ``records`` is not read.
    """
    edges, uf = match_graph(pairs)
    extra = possible = 0
    for root, e in Counter(uf.find(a) for a, _ in edges).items():
        n = uf.size[root]
        if n > 2:
            extra += e - (n - 1)
            possible += pair_universe_size(n) - (n - 1)
    return extra / possible if possible else 0.0


def _votes(experiments: list[DataFrame]) -> DataFrame:
    """Membership table ``id1, id2, in_0 .. in_<n-1>`` plus a ``consensus`` flag."""
    names = [str(i) for i in range(len(experiments))]
    votes = sum(F.col(f"in_{n}") for n in names)
    return tag_memberships(dict(zip(names, experiments))).withColumn(
        "consensus", (votes * 2 > len(experiments)).cast("int")
    )


def majority_vote(experiments: list[DataFrame]) -> DataFrame:
    """Per-pair majority vote over experiments (pair sets).

    A pair is in the consensus iff more than half of the experiments contain
    it. Returns the consensus pair set — usable as an "experimental ground
    truth" (§4.1, [Vogel et al. 2014]).
    """
    return _votes(experiments).filter("consensus = 1").select("id1", "id2")


def consensus_deviations(experiments: list[DataFrame]) -> list[int]:
    """For each experiment, |E Δ consensus| — lower is (estimated) better."""
    row = _votes(experiments).agg(
        *[
            F.count_if(F.col(f"in_{i}") != F.col("consensus"))
            for i in range(len(experiments))
        ]
    ).first()
    return [int(v) for v in row]


def compactness_sparsity(
    scored_matches: DataFrame, scored_non_matches: DataFrame
) -> dict[str, float]:
    """Compactness (mean match similarity) and neighbourhood sparsity gap.

    ``scored_non_matches`` should be the *close* non-matches (e.g. candidate
    pairs below the threshold) — the matcher must expose scores for both
    (§3.2.3). The returned ``separation`` (compactness − neighbour mean) is
    the quality proxy: well-separated clusters score high.
    """
    comp = scored_matches.agg(F.avg("similarity")).first()[0]
    spars = scored_non_matches.agg(F.avg("similarity")).first()[0]
    comp = float(comp) if comp is not None else 0.0
    spars = float(spars) if spars is not None else 0.0
    return {
        "compactness": comp,
        "neighbour_similarity": spars,
        "separation": comp - spars,
    }
