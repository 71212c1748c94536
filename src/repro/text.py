"""The whitespace tokenizer of the exploration and profiling views; the
matchers' tokenizers lower-case and stay in :mod:`repro.matchgen`."""
from __future__ import annotations

from pyspark.sql import Column
from pyspark.sql import functions as F


def words(c: Column) -> Column:
    """The whitespace words of a cell cast to string; a null cell has none."""
    return F.filter(
        F.split(F.coalesce(c.cast("string"), F.lit("")), r"\s+"), lambda t: t != ""
    )
