"""spark-submit entrypoint for Table 3 (cross-dataset matcher quality, App. C.2).

Exits non-zero, naming the check, when the averaged f1 grid leaves the
paper's shape: dense-trained solutions collapse on sparse data,
sparse-trained solutions transfer.
"""
import sys

from pyspark.sql import SparkSession

from repro.experiments.table3 import run_table3, table3_matrix


def main() -> str | None:
    spark = (
        SparkSession.builder.appName("table3_cross_dataset")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    tidy = run_table3(spark)
    print("\nPer-matcher results:")
    print(tidy[tidy["matcher"] != "average"].to_string(index=False))
    print("\nTable 3 — averages in the paper's layout:")
    print(table3_matrix(tidy).round(3).to_string())
    avg = tidy[tidy["matcher"] == "average"]
    f1 = avg.set_index(["developed_on", "applied_to"])["f1"]
    checks = {
        "X2 on X2 f1 > 0.85 (paper 99.8%)": f1[("X2", "X2")] > 0.85,
        "X2 on Z2 f1 > 0.7 (paper 97.4%)": f1[("X2", "Z2")] > 0.7,
        "X2 on X3 f1 < 0.6 (paper 35.7%)": f1[("X2", "X3")] < 0.6,
        "X2 on Z3 f1 < 0.6 (paper 47.0%)": f1[("X2", "Z3")] < 0.6,
        "X3 on Z3 f1 > 0.85 (paper 98.2%)": f1[("X3", "Z3")] > 0.85,
        "X3 on X2 beats X2 on X3 by > 0.2": f1[("X3", "X2")] - f1[("X2", "X3")] > 0.2,
    }
    # sys.exit prints a message to stderr and exits 1; None exits 0.
    return "\n".join(f"check failed: {n}" for n, ok in checks.items() if not ok) or None


if __name__ == "__main__":
    sys.exit(main())
