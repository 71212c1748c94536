"""spark-submit entrypoint for Table 1 (metric/metric diagram runtimes).

Usage: spark-submit jobs/table1_diagram_runtime.py  (or plain python).
The timed algorithms are driver-side (see Appendix D / DESIGN.md §2); Spark
is only needed here for consistency of the job harness. Exits non-zero,
naming the check, when a diagram misses one of its thresholds.
"""
import sys

from repro.core.incremental import confusion_series
from repro.experiments.table1 import N_THRESHOLDS, WORKLOADS, build_workload, run_table1


def main() -> str | None:
    df = run_table1()
    print("\nTable 1 — runtime of metric/metric diagrams (s = 100 thresholds)")
    print(df.to_string(index=False))
    # run_table1 already checks that the naïve series equals the custom one.
    checks = {}
    for name in WORKLOADS:
        w = build_workload(name)
        series = confusion_series(w.n_records, w.truth_labels, w.matches, N_THRESHOLDS)
        checks[f"{name}: {N_THRESHOLDS} diagram points"] = len(series) == N_THRESHOLDS
    # sys.exit prints a message to stderr and exits 1; None exits 0.
    return "\n".join(f"check failed: {n}" for n, ok in checks.items() if not ok) or None


if __name__ == "__main__":
    sys.exit(main())
