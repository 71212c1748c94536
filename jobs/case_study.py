"""spark-submit entrypoint for the §5.4 SIGMOD-contest case study.

Exits non-zero, naming the check, when a headline number leaves the
paper's shape.
"""
import sys

from pyspark.sql import SparkSession

from repro.experiments.case_study import run_case_study, summarize


def main() -> str | None:
    spark = (
        SparkSession.builder.appName("case_study")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    results = run_case_study(spark)
    print("\nN-Metrics view (five solutions):")
    print(results["metrics"].round(3).to_string(index=False))
    print("\nThreshold audit (metric/metric sweep):")
    print(results["threshold_audit"].round(3).to_string(index=False))
    print("\nGold pairs missed by >= 4 of 5 solutions:")
    print(results["missed"].to_string(index=False))
    s = summarize(results)
    print("\nHeadline numbers:", s)
    checks = {
        "average f1 > 0.6": s["avg_f1"] > 0.6,
        "two or more suboptimal thresholds (paper: two)": s["n_suboptimal_thresholds"] >= 2,
        "largest threshold f1 gain > 0.02 (paper: +8% / +6%)": s["max_f1_gain"] > 0.02,
        "most pairs missed by 4+ share the hard record (paper: all 3)": (
            s["n_pairs_missed_by_4plus"] == 0 or s["hard_record_share"] > 0.5
        ),
    }
    # sys.exit prints a message to stderr and exits 1; None exits 0.
    return "\n".join(f"check failed: {n}" for n, ok in checks.items() if not ok) or None


if __name__ == "__main__":
    sys.exit(main())
