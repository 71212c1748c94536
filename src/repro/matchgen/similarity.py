"""Similarity-based attribute value matching (pipeline step 3, §1.2).

Column-expression similarity functions over paired attribute columns.
Everything is a Catalyst expression (no Python UDFs): token Jaccard via
array intersect/union, Levenshtein ratio via the built-in edit distance,
and null-aware equality. Each returns NULL when either side is NULL so the
decision model can choose its null policy (penalise vs renormalise —
the §Appendix-C transfer asymmetry hinges on exactly this choice).
"""
from __future__ import annotations

from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.text import words


def _tokens(c: Column) -> Column:
    return F.array_distinct(words(F.lower(c.cast("string"))))


def token_jaccard(a: Column, b: Column) -> Column:
    """Jaccard similarity of lower-cased whitespace token sets; NULL if either is NULL.

    Unlike ``error_analysis.token_jaccard_sim`` this is a matcher feature:
    it returns NULL so that the matcher's null policy decides what a
    missing value costs, and it lower-cases as the other features do.
    """
    ta, tb = _tokens(a), _tokens(b)
    inter = F.size(F.array_intersect(ta, tb))
    union = F.size(F.array_union(ta, tb))
    sim = F.when(union > 0, inter / union).otherwise(F.lit(0.0))
    return F.when(a.isNull() | b.isNull(), F.lit(None).cast("double")).otherwise(sim)


def levenshtein_ratio(a: Column, b: Column) -> Column:
    """1 - editDistance/maxLen on lowercased strings; NULL if either is NULL."""
    la, lb = F.lower(a.cast("string")), F.lower(b.cast("string"))
    maxlen = F.greatest(F.length(la), F.length(lb))
    sim = F.when(
        maxlen > 0, 1.0 - F.levenshtein(la, lb) / maxlen
    ).otherwise(F.lit(1.0))
    return F.when(a.isNull() | b.isNull(), F.lit(None).cast("double")).otherwise(sim)


def equality(a: Column, b: Column) -> Column:
    """1.0/0.0 case-insensitive equality; NULL if either side is NULL."""
    return F.when(a.isNull() | b.isNull(), F.lit(None).cast("double")).otherwise(
        (F.lower(a.cast("string")) == F.lower(b.cast("string"))).cast("double")
    )


#: name -> column-expression similarity, for declarative matcher configs.
SIMILARITIES = {
    "jaccard": token_jaccard,
    "levenshtein": levenshtein_ratio,
    "equality": equality,
}
