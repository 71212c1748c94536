"""Tests for repro.matchgen.matchers — simulated matching solutions."""
import pandas as pd
import pytest

from repro.matchgen.matchers import (
    Matcher,
    compute_features,
    develop_matchers,
    fit_threshold,
    fit_weights,
)


@pytest.fixture
def dataset(spark):
    rows = [
        ("r1", "dell laptop fast", "dell", "8 gb"),
        ("r2", "dell laptop fasst", "dell", "8 gb"),  # dup of r1
        ("r3", "apple macbook pro", "apple", "16 gb"),
        ("r4", "apple macbook pros", None, "16 gb"),  # dup of r3, brand null
        ("r5", "lenovo thinkpad x1", "lenovo", "8 gb"),
    ]
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["rid", "title", "brand", "ram"])
    )


@pytest.fixture
def features():
    return {"title": "jaccard", "brand": "levenshtein", "ram": "equality"}


def _pairs(spark, rows, cols=("id1", "id2")):
    return spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)))


class TestComputeFeatures:
    def test_feature_columns_created(self, spark, dataset, features):
        pairs = _pairs(spark, [("r1", "r2")])
        out = compute_features(pairs, dataset, features.items())
        assert {"f_title__jaccard", "f_brand__levenshtein", "f_ram__equality"} <= set(
            out.columns
        )

    def test_null_attribute_gives_null_feature(self, spark, dataset, features):
        pairs = _pairs(spark, [("r3", "r4")])
        row = compute_features(pairs, dataset, features.items()).collect()[0]
        assert row["f_brand__levenshtein"] is None
        assert row["f_ram__equality"] == pytest.approx(1.0)

    def test_extra_pair_columns_preserved(self, spark, dataset, features):
        pairs = _pairs(spark, [("r1", "r2", 1)], cols=("id1", "id2", "label"))
        out = compute_features(pairs, dataset, features.items())
        assert "label" in out.columns


class TestMatcherScore:
    def test_duplicate_scores_higher_than_nonduplicate(self, spark, dataset, features):
        pairs = _pairs(spark, [("r1", "r2"), ("r1", "r5")])
        m = Matcher("m", features, {"title": 0.6, "brand": 0.2, "ram": 0.2})
        rows = {
            (r["id1"], r["id2"]): r["similarity"]
            for r in m.score(pairs, dataset).collect()
        }
        assert rows[("r1", "r2")] > rows[("r1", "r5")]

    def test_penalize_policy_drops_score_on_null(self, spark, dataset, features):
        pairs = _pairs(spark, [("r3", "r4")])
        w = {"title": 0.4, "brand": 0.4, "ram": 0.2}
        pen = Matcher("p", features, w, "penalize").score(pairs, dataset).first()
        ren = Matcher("r", features, w, "renormalize").score(pairs, dataset).first()
        assert pen["similarity"] < ren["similarity"]

    def test_renormalize_all_null_is_zero(self, spark, features):
        ds = spark.createDataFrame(
            pd.DataFrame(
                [("a", None, None, None), ("b", None, None, None)],
                columns=["rid", "title", "brand", "ram"],
            )
        )
        pairs = _pairs(spark, [("a", "b")])
        m = Matcher("m", features, {"title": 1.0, "brand": 1.0, "ram": 1.0}, "renormalize")
        assert m.score(pairs, ds).first()["similarity"] == pytest.approx(0.0)

    def test_unknown_policy_raises(self, spark, dataset, features):
        pairs = _pairs(spark, [("r1", "r2")])
        m = Matcher("m", features, {"title": 1.0}, "bogus")
        with pytest.raises(ValueError):
            m.score(pairs, dataset).collect()

    def test_predict_applies_threshold(self, spark, dataset, features):
        pairs = _pairs(spark, [("r1", "r2"), ("r1", "r5")])
        m = Matcher("m", features, {"title": 1.0}, "penalize", threshold=0.5)
        got = m.predict(pairs, dataset).collect()
        assert [(r["id1"], r["id2"]) for r in got] == [("r1", "r2")]


class TestFitThreshold:
    def test_perfect_separation(self):
        scores = pd.Series([0.9, 0.8, 0.2, 0.1])
        labels = pd.Series([1, 1, 0, 0])
        thr, best_f1 = fit_threshold(scores, labels)
        assert best_f1 == pytest.approx(1.0)
        assert 0.2 < thr <= 0.8

    def test_no_positives(self):
        thr, best = fit_threshold(pd.Series([0.5, 0.6]), pd.Series([0, 0]))
        assert (thr, best) == (1.0, 0.0)

    def test_threshold_is_inclusive_score(self):
        scores = pd.Series([0.9, 0.5, 0.1])
        labels = pd.Series([1, 1, 0])
        thr, best = fit_threshold(scores, labels)
        assert thr == pytest.approx(0.5)
        assert best == pytest.approx(1.0)

    def test_overlapping_distributions(self):
        scores = pd.Series([0.9, 0.7, 0.6, 0.5, 0.4, 0.2])
        labels = pd.Series([1, 0, 1, 1, 0, 0])
        thr, best = fit_threshold(scores, labels)
        # best at thr=0.5: p=3/4, r=1 -> f1=6/7
        assert best == pytest.approx(6 / 7)


class TestFitWeights:
    def test_informative_feature_gets_higher_weight(self):
        df = pd.DataFrame(
            {
                "f_good": [0.9, 0.95, 0.1, 0.05],
                "f_noise": [0.5, 0.4, 0.5, 0.6],
                "label": [1, 1, 0, 0],
            }
        )
        w = fit_weights(df, {"f_good": "good", "f_noise": "noise"})
        assert w["good"] > w["noise"]

    def test_weights_sum_to_one(self):
        df = pd.DataFrame(
            {"f_a": [0.9, 0.1], "f_b": [0.8, 0.2], "label": [1, 0]}
        )
        w = fit_weights(df, {"f_a": "a", "f_b": "b"})
        assert sum(w.values()) == pytest.approx(1.0)

    def test_constant_feature_gets_floor(self):
        df = pd.DataFrame(
            {"f_const": [0.5, 0.5, 0.5], "f_sig": [0.9, 0.8, 0.1], "label": [1, 1, 0]}
        )
        w = fit_weights(df, {"f_const": "const", "f_sig": "sig"})
        assert w["const"] < w["sig"]

    def test_nulls_treated_as_zero(self):
        df = pd.DataFrame(
            {"f_a": [0.9, None, 0.1, None], "label": [1, 1, 0, 0]}
        )
        w = fit_weights(df, {"f_a": "a"})
        assert w["a"] == pytest.approx(1.0)


class TestDevelopMatcher:
    @pytest.fixture
    def training(self, spark, dataset):
        return _pairs(
            spark,
            [("r1", "r2", 1), ("r3", "r4", 1), ("r1", "r5", 0), ("r2", "r3", 0)],
            cols=("id1", "id2", "label"),
        )

    def test_ml_matcher_learns_and_separates(self, spark, dataset, training, features):
        m = develop_matchers({"m": "ml"}, training, dataset, features=features)[0]
        assert m.null_policy in {"penalize", "renormalize"}
        pred = m.predict(training, dataset)
        got = {(r["id1"], r["id2"]) for r in pred.collect()}
        assert got == {("r1", "r2"), ("r3", "r4")}

    @pytest.mark.parametrize("kind", ["rule", "hybrid"])
    def test_other_kinds_develop(self, spark, dataset, training, features, kind):
        m = develop_matchers({"m": kind}, training, dataset, features=features)[0]
        assert m.threshold > 0
        assert set(m.weights) <= {"title", "brand", "ram"}

    def test_unknown_kind_raises(self, spark, dataset, training, features):
        with pytest.raises(ValueError):
            develop_matchers({"m": "wat"}, training, dataset, features=features)
