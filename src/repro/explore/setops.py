"""Set-based comparisons of matching results (paper §4.1).

The generic evaluation primitive: experiments and ground truths are pair
sets, and every cell of the confusion matrix — and every region of an
n-set Venn diagram — is an intersection/difference expression over them.
Snowman renders these as interactive Venn diagrams; here the same engine is
a DataFrame transformation producing region-tagged pairs, region counts,
and record-enriched views ("show complete records instead of only IDs").
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pairs import tag_memberships, with_records


def venn_regions(experiments: dict[str, DataFrame]) -> DataFrame:
    """Counts of every non-empty Venn region over the experiments.

    A region is the exact membership signature (which experiments contain
    the pair). Returns ``(region, pair_count)`` where ``region`` is the
    sorted comma-joined list of member experiment names.
    """
    # concat_ws skips NULLs, so a region names only the sets that list the pair.
    region = F.concat_ws(
        ",", *[F.when(F.col(f"in_{n}") == 1, F.lit(n)) for n in sorted(experiments)]
    )
    return (
        tag_memberships(experiments)
        .withColumn("region", region)
        .groupBy("region")
        .agg(F.count("*").alias("pair_count"))
    )


def select_region(
    experiments: dict[str, DataFrame],
    include: list[str],
    exclude: list[str] | None = None,
) -> DataFrame:
    """Pairs in every ``include`` experiment and in no ``exclude`` experiment.

    ``select_region({"e1": .., "gt": ..}, ["e1"], ["gt"])`` is the false
    positives of e1; ``select_region(exps, ["gt"], [all others])`` is the
    §5.4 case-study query "ground-truth pairs no solution found".
    """
    exclude = exclude or []
    unknown = [n for n in include + exclude if n not in experiments]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    if not include:
        raise ValueError("include must name at least one experiment")
    tagged = tag_memberships(experiments)
    cond = reduce(
        lambda a, b: a & b, [F.col(f"in_{n}") == 1 for n in include]
    )
    for n in exclude:
        cond = cond & (F.col(f"in_{n}") == 0)
    return tagged.filter(cond).select("id1", "id2")


def missed_by_at_least(
    gold: DataFrame, experiments: dict[str, DataFrame], k: int
) -> DataFrame:
    """Gold pairs missed by at least ``k`` of the experiments (§5.4).

    The case study found three true pairs missed by ≥4 of 5 solutions, all
    sharing one hard-to-match record. Returns ``(id1, id2, missed_by)``:
    the gold rows of one membership table of the experiments and gold.
    """
    # Prefixed, so that no experiment's name can take gold's place.
    sets = {**{f"e_{n}": e for n, e in experiments.items()}, "gold": gold}
    missed = F.lit(len(experiments)) - sum(F.col(f"in_e_{n}") for n in experiments)
    return (
        tag_memberships(sets)
        .filter(F.col("in_gold") == 1)
        .select("id1", "id2", missed.alias("missed_by"))
        .filter(F.col("missed_by") >= k)
    )


def enrich_with_records(pairs: DataFrame, dataset: DataFrame) -> DataFrame:
    """Join both records of each pair (§4.1: IDs alone are a poor experience).

    ``dataset`` has a ``rid`` column; its attribute columns appear twice,
    prefixed ``a_`` and ``b_``.
    """
    attrs = [c for c in dataset.columns if c != "rid"]
    return with_records(pairs, dataset, attrs, how="left")
