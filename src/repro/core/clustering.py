"""Connected components of a match graph — the duplicate-clustering substrate.

Frost requires experiments to be transitively closed (§1.2, §4.2.4); real
matchers output raw match pairs, so the platform needs a clustering step.
Appendix D assumes that the matches fit on the driver, so the distinct edges
are collected once and folded through the engine's union-find.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.incremental import UnionFind

#: most distinct pairs a match graph may have; larger inputs raise.
MAX_EDGES = 1_000_000


def match_graph(pairs: DataFrame) -> tuple[list[tuple], UnionFind]:
    """The distinct edges of ``pairs`` on the driver, and their union-find.

    Raises ``ValueError`` when ``pairs`` has more than :data:`MAX_EDGES`
    distinct pairs, or when a pair is not canonical (``id1 < id2``).
    """
    rows = pairs.select("id1", "id2").distinct().limit(MAX_EDGES + 1).collect()
    if len(rows) > MAX_EDGES:
        raise ValueError(
            f"more than MAX_EDGES = {MAX_EDGES} distinct pairs: components "
            "are computed on the driver"
        )
    uf = UnionFind()
    for a, b in rows:
        if not a < b:
            raise ValueError(f"pair ({a!r}, {b!r}) is not canonical: needs id1 < id2")
        uf.union(a, b)
    return rows, uf


def connected_components(pairs: DataFrame, records: DataFrame) -> DataFrame:
    """Cluster ``records`` (a DataFrame with column ``rid``) by ``pairs``.

    ``pairs`` is a canonical pair set ``(id1, id2)``. Returns a clustering
    ``(rid, cluster)`` where ``cluster`` is the minimum ``rid`` of the
    component (a stable, content-derived cluster id). Records that appear in
    no pair form singleton clusters. Raises as :func:`match_graph` does, and
    ``ValueError`` naming the least pair id that is not a ``rid`` of
    ``records``.
    """
    edges, uf = match_graph(pairs)
    nodes = {x for e in edges for x in e}
    low: dict = {}
    for x in nodes:
        root = uf.find(x)
        low[root] = min(low.get(root, x), x)
    rid = records.schema["rid"].dataType.simpleString()
    labels = records.sparkSession.createDataFrame(
        [(x, low[uf.find(x)]) for x in nodes], f"rid {rid}, _cluster {rid}"
    )
    unknown = labels.join(records, "rid", "left_anti").agg(F.min("rid")).first()[0]
    if unknown is not None:
        raise ValueError(f"pair id {unknown!r} is not a rid of records")
    return records.select("rid").join(labels, "rid", "left").select(
        "rid", F.coalesce("_cluster", "rid").alias("cluster")
    )
