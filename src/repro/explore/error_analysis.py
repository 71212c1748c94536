"""Error analysis — explain misclassified pairs by similar correct ones (§4.4).

For a misclassified pair p_f = {e_f1, e_f2}, find the correctly classified
pair p_t = {e_t1, e_t2} most similar to it. Similarity between pairs is
expressed through two vectors of record-record similarities:

    v_direct = (sim(e_f1, e_t1), sim(e_f2, e_t2))
    v_cross  = (sim(e_f1, e_t2), sim(e_f2, e_t1))

each reduced to a scalar by the Minkowski distance from the origin with
q ∈ [1, 2] (q=1 Manhattan, q=2 Euclidean), and the pair score is the max of
the two orientations. The candidate with the highest score wins.

The record-record similarity is pluggable; the default is token Jaccard
over the concatenated attribute values — the paper notes a full similarity
matrix would cost O(n^4) sims and suggests an internal simple measure for a
set of promising pairs, which is exactly this.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.pairs import with_records
from repro.text import words


def token_jaccard_sim(a: Column, b: Column) -> Column:
    """Whitespace-token Jaccard similarity of two string columns (null -> 0).

    Unlike the matcher feature ``similarity.token_jaccard`` it compares the
    never-null concatenated record text, case-sensitively, since it ranks
    pairs of records rather than feeding a null policy.
    """
    ta, tb = F.array_distinct(words(a)), F.array_distinct(words(b))
    inter = F.size(F.array_intersect(ta, tb))
    union = F.size(F.array_union(ta, tb))
    return F.when(union > 0, inter / union).otherwise(F.lit(0.0))


def _record_text(dataset: DataFrame, attributes: list[str]) -> DataFrame:
    text = F.concat_ws(
        " ", *[F.coalesce(F.col(a).cast("string"), F.lit("")) for a in attributes]
    )
    return dataset.select("rid", text.alias("text"))


def nearest_correct_pairs(
    misclassified: DataFrame,
    correct: DataFrame,
    dataset: DataFrame,
    attributes: list[str],
    q: float = 2.0,
) -> DataFrame:
    """Enrich each misclassified pair with its best-matching correct pair.

    Inputs are canonical pair sets; returns one row per misclassified pair:
    ``(id1, id2, t_id1, t_id2, score)`` where (t_id1, t_id2) is the
    correctly classified pair maximising the §4.4 score. Cross-joins the two
    pair sets — callers pre-filter to a promising subset as the paper
    prescribes for large results.
    """
    if not 1.0 <= q <= 2.0:
        raise ValueError("q must be in [1, 2]")
    texts = _record_text(dataset, attributes)

    def with_texts(pairs: DataFrame, p: str) -> DataFrame:
        return with_records(pairs.select("id1", "id2"), texts, ["text"]).select(
            F.col("id1").alias(f"{p}1"),
            F.col("id2").alias(f"{p}2"),
            F.col("a_text").alias(f"{p}1_text"),
            F.col("b_text").alias(f"{p}2_text"),
        )

    f, t = with_texts(misclassified, "f"), with_texts(correct, "t")
    joined = f.crossJoin(t)
    # Exclude the trivial self-candidate when a pair is (incorrectly) in both.
    joined = joined.filter(~((F.col("f1") == F.col("t1")) & (F.col("f2") == F.col("t2"))))

    def minkowski(u: Column, v: Column) -> Column:
        return (u ** q + v ** q) ** (1.0 / q)

    direct = minkowski(
        token_jaccard_sim(F.col("f1_text"), F.col("t1_text")),
        token_jaccard_sim(F.col("f2_text"), F.col("t2_text")),
    )
    cross = minkowski(
        token_jaccard_sim(F.col("f1_text"), F.col("t2_text")),
        token_jaccard_sim(F.col("f2_text"), F.col("t1_text")),
    )
    scored = joined.withColumn("score", F.greatest(direct, cross))
    w = Window.partitionBy("f1", "f2").orderBy(
        F.col("score").desc(), "t1", "t2"
    )
    return (
        scored.withColumn("_rank", F.row_number().over(w))
        .filter(F.col("_rank") == 1)
        .select(
            F.col("f1").alias("id1"),
            F.col("f2").alias("id2"),
            F.col("t1").alias("t_id1"),
            F.col("t2").alias("t_id2"),
            "score",
        )
    )
