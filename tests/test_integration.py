"""End-to-end integration tests: the full Frost pipeline on one dataset.

Generate a dirty dataset -> block -> score -> threshold -> cluster ->
evaluate with pair- and cluster-based metrics -> explore (Venn, selection,
attribute influence). Exercises the modules together the way the platform
composes them, with a DuckDB oracle check on the final confusion counts.
"""
import math

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.clustering import connected_components
from repro.core.cluster_metrics import (
    closest_cluster_f1,
    intersections,
    variation_of_information,
)
from repro.core.confusion import confusion_counts, confusion_sets
from repro.core.metrics import all_metrics, f1
from repro.core.pairs import pairs_from_clustering
from repro.explore.attributes import attribute_influence_report
from repro.explore.setops import venn_regions
from repro.matchgen.blocking import token_blocking
from repro.matchgen.generator import clustered_dataset
from repro.matchgen.matchers import Matcher


@pytest.fixture(scope="module")
def pipeline(spark):
    """Run the whole matching pipeline once; share across tests."""
    dataset, gold_clustering = clustered_dataset(
        spark, n_entities=120, dup_fraction=0.5, errors_per_dup=1,
        null_prob=0.05, seed=11,
    )
    dataset.cache().count()
    gold_pairs = pairs_from_clustering(gold_clustering).cache()
    candidates = token_blocking(dataset, "name", max_token_df=40).cache()
    matcher = Matcher(
        "it",
        {"name": "jaccard", "city": "levenshtein", "code": "levenshtein"},
        {"name": 0.6, "city": 0.2, "code": 0.2},
        "renormalize",
        threshold=0.55,
    )
    scored = matcher.score(candidates, dataset).cache()
    matches = scored.filter(F.col("similarity") >= matcher.threshold).select(
        "id1", "id2", "similarity"
    ).cache()
    exp_clustering = connected_components(
        matches, dataset.select("rid")
    ).cache()
    exp_pairs = pairs_from_clustering(exp_clustering).cache()
    return {
        "dataset": dataset,
        "gold_clustering": gold_clustering,
        "gold_pairs": gold_pairs,
        "candidates": candidates,
        "scored": scored,
        "matches": matches,
        "exp_clustering": exp_clustering,
        "exp_pairs": exp_pairs,
        "n": dataset.count(),
    }


class TestPipelineQuality:
    def test_matcher_finds_most_duplicates(self, pipeline):
        c = confusion_counts(
            pipeline["exp_pairs"], pipeline["gold_pairs"], n_records=pipeline["n"]
        )
        assert f1(c) > 0.6

    def test_all_metrics_computable(self, pipeline):
        c = confusion_counts(
            pipeline["exp_pairs"], pipeline["gold_pairs"], n_records=pipeline["n"]
        )
        out = all_metrics(c)
        assert 0 <= out["mcc"] <= 1 or out["mcc"] >= -1
        assert out["reduction_ratio"] > 0.9  # quadratic space pruned

    def test_cluster_metrics_agree_on_quality(self, pipeline):
        table = intersections(pipeline["exp_clustering"], pipeline["gold_clustering"])
        cc = closest_cluster_f1(table)
        assert cc["cc_f1"] > 0.6
        vi = variation_of_information(table)
        assert vi < 2.0

    def test_pair_counts_from_the_intersection_table(self, pipeline):
        # A second, independent path to the pair confusion of a closed
        # experiment: TP = Σ C(n, 2) over the intersections, and |E|, |G|
        # are Σ C(s, 2) over each side's cluster sizes.
        table = intersections(pipeline["exp_clustering"], pipeline["gold_clustering"])
        esize: dict = {}
        tsize: dict = {}
        for e, t, n in table:
            esize[e] = esize.get(e, 0) + n
            tsize[t] = tsize.get(t, 0) + n

        def pairs(sizes):
            return sum(math.comb(s, 2) for s in sizes)

        c = confusion_counts(
            pipeline["exp_pairs"], pipeline["gold_pairs"], n_records=pipeline["n"]
        )
        assert pairs(n for _, _, n in table) == c.tp
        assert pairs(esize.values()) == c.predicted
        assert pairs(tsize.values()) == c.positives

    def test_confusion_against_duckdb_oracle(self, pipeline):
        import duckdb

        tp, fp, fn = confusion_sets(pipeline["exp_pairs"], pipeline["gold_pairs"])
        con = duckdb.connect()
        con.register("e", pipeline["exp_pairs"].toPandas())
        con.register("g", pipeline["gold_pairs"].toPandas())
        want_tp = con.execute(
            "SELECT count(*) FROM e JOIN g USING (id1, id2)"
        ).fetchone()[0]
        want_fp = con.execute(
            "SELECT count(*) FROM e ANTI JOIN g USING (id1, id2)"
        ).fetchone()[0]
        want_fn = con.execute(
            "SELECT count(*) FROM g ANTI JOIN e USING (id1, id2)"
        ).fetchone()[0]
        con.close()
        assert (tp.count(), fp.count(), fn.count()) == (want_tp, want_fp, want_fn)


class TestPipelineExploration:
    def test_venn_regions_partition_everything(self, pipeline):
        regions = venn_regions(
            {"exp": pipeline["exp_pairs"], "gold": pipeline["gold_pairs"]}
        ).collect()
        total = sum(r["pair_count"] for r in regions)
        union = (
            pipeline["exp_pairs"]
            .unionByName(pipeline["gold_pairs"])
            .distinct()
            .count()
        )
        assert total == union

    def test_attribute_influence_report_runs(self, pipeline):
        _, fp, fn = confusion_sets(pipeline["exp_pairs"], pipeline["gold_pairs"])
        mis = fp.select("id1", "id2").unionByName(fn.select("id1", "id2"))
        rep = attribute_influence_report(mis, pipeline["dataset"])
        assert set(rep["attribute"]) == {"name", "city", "code"}
        assert (rep["nullRatio"] <= 1.0).all()
        assert (rep["equalRatio"] <= 1.0).all()

    def test_transitive_closure_invariant(self, pipeline):
        # exp_pairs is a closed pair set: closure adds nothing.
        from repro.core.pairs import closure_missing_pairs

        missing = closure_missing_pairs(
            pipeline["exp_pairs"], pipeline["dataset"].select("rid")
        )
        assert missing.count() == 0

    def test_incremental_engine_on_pipeline_scores(self, pipeline):
        # Feed the matcher's scored candidates through the Appendix-D engine.
        from repro.core.incremental import confusion_series, naive_confusion_series

        rows = pipeline["scored"].select("id1", "id2", "similarity").collect()
        rids = [r["rid"] for r in pipeline["dataset"].select("rid").collect()]
        idx = {rid: i for i, rid in enumerate(rids)}
        truth = {
            r["rid"]: r["cluster"] for r in pipeline["gold_clustering"].collect()
        }
        labels = [truth[rid] for rid in rids]
        matches = [
            (float(r["similarity"]), *sorted((idx[r["id1"]], idx[r["id2"]])))
            for r in rows
        ]
        fast = confusion_series(len(rids), labels, matches, s=12)
        slow = naive_confusion_series(len(rids), labels, matches, s=12)
        assert fast == slow
