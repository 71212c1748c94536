"""spark-submit entrypoint for Table 2 (dataset profiling, Appendix C.1).

Exits non-zero, naming the check, when a profile leaves the paper's
Table-2 shape.
"""
import sys

from pyspark.sql import SparkSession

from repro.experiments.table2 import run_table2


def main() -> str | None:
    spark = (
        SparkSession.builder.appName("table2_profiling")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    df = run_table2(spark)
    print("\nTable 2 — profiling the SIGMOD-like datasets (paper values alongside)")
    print(df.to_string(index=False))
    t = df.set_index("split")
    checks = {
        "X2 SP within 0.03 of 0.111": abs(t.loc["X2", "SP"] - 0.111) < 0.03,
        "X3 SP within 0.03 of 0.501": abs(t.loc["X3", "SP"] - 0.501) < 0.03,
        "X2 TX within 1.5 of 27.99": abs(t.loc["X2", "TX"] - 27.99) < 1.5,
        "X3 TX within 1.5 of 15.53": abs(t.loc["X3", "TX"] - 15.53) < 1.5,
        "X2 PR within 0.004 of 0.022": abs(t.loc["X2", "PR"] - 0.022) < 0.004,
        "Z3 PR within 0.02 of 0.121": abs(t.loc["Z3", "PR"] - 0.121) < 0.02,
        "VS of D2 above VS of D3": t.loc["X2", "VS"] > t.loc["X3", "VS"],
    }
    # sys.exit prints a message to stderr and exits 1; None exits 0.
    return "\n".join(f"check failed: {n}" for n, ok in checks.items() if not ok) or None


if __name__ == "__main__":
    sys.exit(main())
