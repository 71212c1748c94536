"""Spark jobs per view: one pass, whatever the number of experiments or attributes.

Jobs are counted through a job group and the status tracker, after the
listener bus that fills the tracker has been drained. The pair→record joins
are also checked by plan shape: the record side is broadcast, so the pair
table is not shuffled to attach its records.
"""
import random
import uuid
from functools import reduce

import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import cluster_metrics, confusion, noground
from repro.core.clustering import connected_components
from repro.experiments import table3
from repro.explore import attributes, error_analysis, setops, sorting
from repro.matchgen import blocking, matchers, sigmod
from repro.profiling import dataset_profile


def _jobs(spark, run) -> int:
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture(scope="module")
def inputs(spark):
    """A gold standard, five overlapping experiments and their records."""
    rng = random.Random(5)
    ids = [f"r{i:03d}" for i in range(120)]

    def pairs():
        rows = sorted({tuple(sorted(rng.sample(ids, 2))) for _ in range(80)})
        return spark.createDataFrame(rows, "id1 string, id2 string").cache()

    gold, exps = pairs(), [pairs() for _ in range(5)]
    records = spark.createDataFrame(
        [(i, f"{i} tok{int(i[1:]) % 7}") for i in ids], "rid string, name string"
    ).cache()
    frames = [gold, *exps, records]
    for df in frames:
        df.count()
    yield gold, exps, records
    for df in frames:
        df.unpersist()


def _named(exps, n):
    return {f"e{i}": e for i, e in enumerate(exps[:n])}


def _grid(gold, exps, n):
    # One membership row per pair: a flag per experiment (NULL where the
    # pair is not in it) and one for gold, from one union and one grouping.
    named = {**_named(exps, n), "gold": gold}
    members = reduce(
        DataFrame.unionByName,
        [df.select("id1", "id2", F.lit(name).alias("src")) for name, df in named.items()],
    )
    flags = members.groupBy("id1", "id2").agg(
        *[F.max(F.when(F.col("src") == name, True)).alias(name) for name in named]
    )
    return confusion.confusion_grid(
        flags,
        {name: F.col(name) for name in _named(exps, n)},
        F.col("gold"),
        confusion.pair_universe_size(120),
    )


VIEWS = {
    "confusion_counts": lambda gold, exps, n: confusion.confusion_counts(
        exps[n - 1], gold, n_records=120
    ),
    "confusion_grid": _grid,
    "venn_regions": lambda gold, exps, n: setops.venn_regions(_named(exps, n)).collect(),
    "missed_by_at_least": lambda gold, exps, n: setops.missed_by_at_least(
        gold, _named(exps, n), 1
    ).collect(),
    "consensus_deviations": lambda gold, exps, n: noground.consensus_deviations(exps[:n]),
}


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_jobs_do_not_grow_with_experiments(spark, inputs, view):
    gold, exps, _ = inputs
    run = VIEWS[view]
    assert _jobs(spark, lambda: run(gold, exps, 2)) == _jobs(
        spark, lambda: run(gold, exps, 5)
    )


def test_confusion_counts_is_one_join_and_one_aggregate(spark, inputs):
    # Two shuffle map stages for the join, one for the global aggregate,
    # and the result stage: at most four jobs, against 12 for 3 joins and
    # 3 counts.
    gold, exps, _ = inputs
    assert _jobs(spark, lambda: confusion.confusion_counts(exps[0], gold, n_records=120)) <= 4


def test_confusion_of_a_matcher_result_shuffles_only_gold(spark, inputs):
    # The matcher's broadcast joins keep token_blocking's (id1, id2)
    # partitioning, so the full outer join shuffles only the gold side: one
    # shuffle map stage for gold, one for the aggregate, and the result stage.
    gold, _, records = inputs
    candidates = blocking.token_blocking(records, "name").cache()
    matcher = matchers.Matcher("m", {"name": "jaccard"}, {"name": 1.0}, "penalize", 0.3)
    predicted = matcher.predict(candidates, records).cache()
    try:
        assert predicted.count() > 0
        assert _jobs(
            spark, lambda: confusion.confusion_counts(predicted, gold, n_records=120)
        ) <= 3
    finally:
        predicted.unpersist()
        candidates.unpersist()


def _executed_plans(spark, run) -> str:
    """The final physical plans of every SQL query that ``run`` executes."""
    store = spark._jsparkSession.sharedState().statusStore()

    def latest(k: int) -> list:
        n = store.executionsCount()
        runs = store.executionsList(max(0, n - k), k)
        return [runs.apply(i) for i in range(runs.size())]

    start = max((e.executionId() for e in latest(1)), default=-1)
    run()
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()
    return "\n".join(
        e.physicalPlanDescription() for e in latest(100) if e.executionId() > start
    )


PAIR_RECORD_VIEWS = {
    "compute_features": lambda exps, records: matchers.compute_features(
        exps[0], records, {("name", "jaccard")}
    ).collect(),
    "enrich_with_records": lambda exps, records: setops.enrich_with_records(
        exps[0], records
    ).collect(),
    "attribute_influence_report": lambda exps, records: (
        attributes.attribute_influence_report(exps[0], records, ["name"])
    ),
    "nearest_correct_pairs": lambda exps, records: error_analysis.nearest_correct_pairs(
        exps[0], exps[1], records, ["name"]
    ).collect(),
}


@pytest.mark.parametrize("view", sorted(PAIR_RECORD_VIEWS))
def test_pair_record_joins_broadcast_the_records(spark, inputs, view):
    _, exps, records = inputs
    plan = _executed_plans(spark, lambda: PAIR_RECORD_VIEWS[view](exps, records))
    # The inputs are cached, so any sort-merge join here would be one that
    # shuffles the pair table to attach its records.
    assert "BroadcastHashJoin" in plan and "SortMergeJoin" not in plan


@pytest.fixture(scope="module")
def clusterings(inputs):
    """The closed experiment 0 and the closed gold standard over the records."""
    gold, exps, records = inputs
    out = [connected_components(p, records.select("rid")).cache() for p in (exps[0], gold)]
    for df in out:
        df.count()
    yield out
    for df in out:
        df.unpersist()


def test_intersections_is_one_aggregate(spark, clusterings):
    # Two shuffle map stages for the full outer join, one for the grouping,
    # and the result stage, against 41 jobs when each metric built the table.
    assert _jobs(spark, lambda: cluster_metrics.intersections(*clusterings)) <= 4


@pytest.mark.parametrize(
    "metric",
    [
        "closest_cluster_f1",
        "variation_of_information",
        "generalized_merge_distance",
        "pairwise_from_gmd",
    ],
)
def test_cluster_metrics_start_no_job(spark, clusterings, metric):
    table = cluster_metrics.intersections(*clusterings)
    assert _jobs(spark, lambda: getattr(cluster_metrics, metric)(table)) == 0


def test_closure_violation_count_is_one_collect(spark, inputs):
    _, exps, records = inputs
    assert _jobs(spark, lambda: noground.closure_violation_count(exps[0], records)) <= 2


def test_building_sort_by_entropy_starts_no_job(spark, inputs):
    _, exps, records = inputs
    assert _jobs(spark, lambda: sorting.sort_by_entropy(exps[0], records, ["name"])) == 0


@pytest.fixture(scope="module")
def wide_records(spark):
    """120 records with four attributes: three strings and a double."""
    rng = random.Random(9)
    rows = [
        (
            f"r{i:03d}",
            f"tok{rng.randrange(9)} tok{rng.randrange(9)}",
            rng.choice([None, "berlin", "hamburg"]),
            rng.choice([None, "x y", "y z w"]),
            rng.choice([None, 0.0, -0.0, 1.5]),
        )
        for i in range(120)
    ]
    records = spark.createDataFrame(
        rows, "rid string, name string, city string, tags string, price double"
    ).cache()
    records.count()
    yield records
    records.unpersist()


RECORD_VIEWS = {
    "attribute_influence_report": lambda exps, records, attrs: (
        attributes.attribute_influence_report(exps[0], records, attrs)
    ),
    "sort_by_entropy": lambda exps, records, attrs: (
        sorting.sort_by_entropy(exps[0], records, attrs).collect()
    ),
    "profile_dataset": lambda exps, records, attrs: (
        dataset_profile.profile_dataset(records, exps[0], attributes=attrs)
    ),
}


@pytest.mark.parametrize("view", sorted(RECORD_VIEWS))
def test_jobs_do_not_grow_with_attributes(spark, inputs, wide_records, view):
    _, exps, _ = inputs
    run = RECORD_VIEWS[view]
    attrs = ["name", "city", "tags", "price"]
    assert _jobs(spark, lambda: run(exps, wide_records, attrs[:1])) == _jobs(
        spark, lambda: run(exps, wide_records, attrs)
    )


@pytest.fixture(scope="module")
def split(spark):
    """A small cached SIGMOD-like split, as ``table3.load_splits`` caches it."""
    s = sigmod.sigmod_split(spark, "D2", "train", scale=0.1)
    for df in (s.dataset, s.labeled_pairs):
        df.cache().count()
    yield s
    for df in (s.dataset, s.labeled_pairs):
        df.unpersist()


def test_table3_evaluate_jobs_do_not_grow_with_matchers(spark, split):
    # One feature frame and one aggregate per split, however many matchers
    # and features: the last three add (attr, sim) pairs of their own.
    other = {"title": "levenshtein", "brand": "jaccard"}
    ms = [
        matchers.Matcher(f"m{i}", null_policy=policy, threshold=0.3 + 0.1 * i)
        for i, policy in enumerate(["penalize", "renormalize"] * 3)
    ]
    for m in ms[3:]:
        m.features = dict(other)
    assert _jobs(spark, lambda: table3.evaluate(ms[:3], split)) == _jobs(
        spark, lambda: table3.evaluate(ms, split)
    )


def test_develop_matchers_rejects_an_unknown_kind_before_any_job(spark, split):
    def run():
        with pytest.raises(ValueError, match="unknown matcher kind 'wat'"):
            matchers.develop_matchers(
                {"a": "ml", "b": "wat"}, split.labeled_pairs, split.dataset
            )

    assert _jobs(spark, run) == 0
