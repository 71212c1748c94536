"""Tests for repro.matchgen.sigmod — SIGMOD-contest-like dataset generator.

Uses scale=0.1 (a few hundred records) for speed; the profile targets
(SP/TX/PR) are scale-invariant, VS is checked loosely at small scale.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.matchgen.sigmod import SPECS, case_study_dataset, sigmod_split
from repro.profiling import dataset_profile as DP

SCALE = 0.1


@pytest.fixture(scope="module")
def x2(spark):
    s = sigmod_split(spark, "D2", "train", scale=SCALE)
    s.dataset.cache().count()
    return s


@pytest.fixture(scope="module")
def x3(spark):
    s = sigmod_split(spark, "D3", "train", scale=SCALE)
    s.dataset.cache().count()
    return s


class TestStructure:
    def test_schema(self, x2):
        assert x2.dataset.columns == [
            "rid", "title", "description", "brand", "cpu", "ram", "hdd"
        ]

    def test_rids_unique(self, x2):
        assert x2.dataset.count() == x2.dataset.select("rid").distinct().count()

    def test_gold_clustering_covers_records(self, x2):
        assert x2.gold_clustering.count() == x2.dataset.count()

    def test_gold_pairs_match_clustering(self, x2):
        from repro.core.pairs import pairs_from_clustering

        expected = sorted(
            map(tuple, pairs_from_clustering(x2.gold_clustering).collect())
        )
        got = sorted(map(tuple, x2.gold_pairs.collect()))
        assert got == expected

    def test_labeled_pairs_contain_all_positives(self, x2):
        pos = x2.labeled_pairs.filter(F.col("label") == 1).select("id1", "id2")
        missing = x2.gold_pairs.join(pos, ["id1", "id2"], "left_anti").count()
        assert missing == 0

    def test_n_labeled_is_the_labeled_row_count(self, x2):
        assert x2.n_labeled == x2.labeled_pairs.count()

    def test_labeled_negatives_are_negative(self, x2):
        neg = x2.labeled_pairs.filter(F.col("label") == 0).select("id1", "id2")
        overlap = neg.join(x2.gold_pairs, ["id1", "id2"]).count()
        assert overlap == 0

    def test_titles_never_null(self, x2, x3):
        for s in (x2, x3):
            assert s.dataset.filter(F.col("title").isNull()).count() == 0


class TestProfileTargets:
    def test_positive_ratio_on_target(self, x2):
        pr = DP.positive_ratio(x2.gold_pairs, labeled_pairs=x2.labeled_pairs)
        assert pr == pytest.approx(SPECS[("D2", "train")].positive_ratio, rel=0.1)

    def test_d3_much_sparser_than_d2(self, x2, x3):
        sp2 = DP.sparsity(x2.dataset)
        sp3 = DP.sparsity(x3.dataset)
        assert sp3 > sp2 + 0.2

    def test_d2_more_textual_than_d3(self, x2, x3):
        assert DP.textuality(x2.dataset) > DP.textuality(x3.dataset) + 5

    def test_sparsity_near_target(self, x2, x3):
        assert DP.sparsity(x2.dataset) == pytest.approx(0.111, abs=0.04)
        assert DP.sparsity(x3.dataset) == pytest.approx(0.501, abs=0.05)

    def test_deterministic(self, spark, x2):
        again = sigmod_split(spark, "D2", "train", scale=SCALE)
        assert sorted(map(tuple, again.dataset.select("rid", "title").collect())) == sorted(
            map(tuple, x2.dataset.select("rid", "title").collect())
        )

    def test_train_test_vocabulary_overlap_ordering(self, spark, x2, x3):
        z2 = sigmod_split(spark, "D2", "test", scale=SCALE)
        z3 = sigmod_split(spark, "D3", "test", scale=SCALE)
        vs2 = DP.vocabulary_similarity(x2.dataset, z2.dataset)
        vs3 = DP.vocabulary_similarity(x3.dataset, z3.dataset)
        # D2 splits share clearly more vocabulary than D3 splits.
        assert vs2 > vs3


class TestDuplicateSignal:
    def test_duplicate_titles_share_tokens(self, spark, x2):
        # Within a gold cluster, titles must overlap strongly (corruption is
        # token-preserving apart from typos).
        from repro.matchgen.matchers import compute_features

        feats = compute_features(
            x2.gold_pairs, x2.dataset, {("title", "jaccard"), ("description", "jaccard")}
        )
        avg = feats.agg(
            F.avg("f_title__jaccard"), F.avg("f_description__jaccard")
        ).first()
        assert avg[0] > 0.4
        # Description pairs (when present) are near-identical.
        assert avg[1] is None or avg[1] > 0.8


class TestCaseStudyDataset:
    @pytest.fixture(scope="class")
    def cs(self, spark):
        s = case_study_dataset(spark, scale=0.3)
        s.dataset.cache().count()
        return s

    def test_schema(self, cs):
        assert set(cs.dataset.columns) == {"rid", "name", "price"}

    def test_large_clusters_exist(self, cs):
        biggest = (
            cs.gold_clustering.groupBy("cluster").count().agg(F.max("count")).first()[0]
        )
        assert biggest >= 8

    def test_hard_record_present_with_pairs(self, cs):
        assert cs.dataset.filter(F.col("rid") == "x4_hard").count() == 1
        touching = cs.gold_pairs.filter(
            (F.col("id1") == "x4_hard") | (F.col("id2") == "x4_hard")
        ).count()
        assert touching >= 3

    def test_full_scale_counts_near_paper(self, spark):
        s = case_study_dataset(spark)
        n = s.dataset.count()
        pairs = s.gold_pairs.count()
        assert n == pytest.approx(836, abs=15)  # 835 + the hard record
        assert pairs == pytest.approx(4005, rel=0.05)
