"""The codebase's only whitespace tokenizer.

The exploration and profiling views use it as is; the matchers and the
blocker lower-case the cell first and keep that step to themselves.
"""
from __future__ import annotations

from pyspark.sql import Column
from pyspark.sql import functions as F


def words(c: Column) -> Column:
    """The whitespace words of a cell cast to string; a null cell has none."""
    return F.filter(
        F.split(F.coalesce(c.cast("string"), F.lit("")), r"\s+"), lambda t: t != ""
    )
