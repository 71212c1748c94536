"""Table 1 — runtime of metric/metric diagrams, custom vs naïve (§5.3, App. D).

The paper times Snowman's incremental algorithm against the naïve
per-threshold recompute on five datasets at s = 100 thresholds:

========================= ========= ============== ======== ======= =======
 dataset                   records   matched pairs  custom    naïve  speedup
========================= ========= ============== ======== ======= =======
 Altosight X4                  835          4 005    184 ms    1.7 s      9
 HPI Cora                    1 879          5 067    245 ms    7.4 s     30
 FreeDB CDs                  9 763            147    293 ms   16.4 s     56
 Songs 100k                100 000         45 801     1.6 s   43.9 s     28
 Magellan Songs          1 000 000        144 349     6.1 s  6m 43s     66
========================= ========= ============== ======== ======= =======

We regenerate the workloads synthetically with the same record/match counts
(runtime depends only on counts and cluster structure — DESIGN.md
substitution 2); the two largest are scaled down (100k → 20k, 1M → 100k) so
the naïve baseline stays within CI budget. The *shape* to reproduce: the
custom algorithm stays interactive at every size and its speedup over naïve
grows roughly with dataset size.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.core.incremental import confusion_series, naive_confusion_series
from repro.matchgen.generator import DiagramWorkload, diagram_workload

#: paper dataset -> (our records, our matches, paper records, paper matches)
WORKLOADS: dict[str, tuple[int, int, int, int]] = {
    "Altosight X4": (835, 4_005, 835, 4_005),
    "HPI Cora": (1_879, 5_067, 1_879, 5_067),
    "FreeDB CDs": (9_763, 147, 9_763, 147),
    "Songs 100k (scaled 1/5)": (20_000, 9_160, 100_000, 45_801),
    "Magellan Songs (scaled 1/10)": (100_000, 14_435, 1_000_000, 144_349),
}

#: number of similarity thresholds per diagram, as in the paper.
N_THRESHOLDS = 100

#: paper runtimes in seconds, for the EXPERIMENTS.md side-by-side.
PAPER_SECONDS = {
    "Altosight X4": (0.184, 1.7),
    "HPI Cora": (0.245, 7.4),
    "FreeDB CDs": (0.293, 16.4),
    "Songs 100k (scaled 1/5)": (1.6, 43.9),
    "Magellan Songs (scaled 1/10)": (6.1, 403.0),
}


def build_workload(name: str, seed: int = 0) -> DiagramWorkload:
    """The synthetic stand-in workload for one Table-1 dataset."""
    n_records, n_matches, _, _ = WORKLOADS[name]
    # FreeDB-CDs-like: matches are a tiny fraction -> pure pair clusters.
    mean_cluster = 2.2 if n_matches < n_records / 10 else 3.0
    return diagram_workload(
        n_records=n_records,
        n_matches=n_matches,
        mean_cluster=mean_cluster,
        seed=seed,
    )


def time_algorithms(
    w: DiagramWorkload, s: int = N_THRESHOLDS
) -> tuple[float, float]:
    """(custom seconds, naïve seconds) on one workload; results are checked equal."""
    t0 = time.perf_counter()
    fast = confusion_series(w.n_records, w.truth_labels, w.matches, s)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = naive_confusion_series(w.n_records, w.truth_labels, w.matches, s)
    t_slow = time.perf_counter() - t0
    if fast != slow:  # a timing run must never trade away correctness
        raise AssertionError("custom and naïve series disagree")
    return t_fast, t_slow


def run_table1(s: int = N_THRESHOLDS, seed: int = 0) -> pd.DataFrame:
    """Measure every Table-1 row; returns measured + paper columns."""
    rows = []
    for name in WORKLOADS:
        w = build_workload(name, seed=seed)
        custom_s, naive_s = time_algorithms(w, s)
        paper_custom, paper_naive = PAPER_SECONDS[name]
        rows.append(
            {
                "dataset": name,
                "records": w.n_records,
                "matches": len(w.matches),
                "custom_s": round(custom_s, 3),
                "naive_s": round(naive_s, 3),
                "speedup": round(naive_s / custom_s, 1),
                "paper_custom_s": paper_custom,
                "paper_naive_s": paper_naive,
                "paper_speedup": round(paper_naive / paper_custom, 1),
            }
        )
    return pd.DataFrame(rows)
