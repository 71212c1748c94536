"""The benchmark's Spark session: settings, job probe, leak counter, shutdown.

The session uses the test fixture's settings (64 shuffle partitions,
broadcast joins off, Arrow on) on ``local[k]`` with ``k = min(4, nproc)``.
Spark's scratch files go under ``.perfbench_tmp/`` in the checkout. The
console progress bar is off so it cannot interleave with the report.
"""
from __future__ import annotations

import os
import subprocess
from pathlib import Path

SHUFFLE_PARTITIONS = 64
JVM_MEMORY = "2g"
#: Spark keeps 1000 jobs and stages by default; a pass launches more.
RETAINED = 100_000


def master() -> str:
    return f"local[{min(4, os.cpu_count() or 1)}]"


def start(tmp: Path):
    """A fresh SparkSession whose JVM writes only below ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master()} --driver-memory {JVM_MEMORY} "
        f'--driver-java-options "{java_opts}" '
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.ui.retainedJobs={RETAINED} "
        f"--conf spark.ui.retainedStages={RETAINED} "
        f"--conf spark.local.dir={tmp} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and wait until the JVM process has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def persisted_rdds(spark) -> int:
    return int(spark.sparkContext._jsc.getPersistentRDDs().size())


def jobs_started(spark) -> int:
    """Jobs this SparkContext has started so far (job ids are sequential)."""
    return int(spark.sparkContext._jsc.sc().dagScheduler().numTotalJobs())


class SparkProbe:
    """Job groups per span; job and task counts from the status tracker."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.status = self.sc.statusTracker()
        self.listener_bus = self.sc._jsc.sc().listenerBus()
        self._seen_stages: set[int] = set()

    def enter(self, group: str | None) -> None:
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(group, group)

    def collect(self, group: str) -> tuple[int, int, int]:
        # The status tracker is filled from Spark's listener bus, which runs
        # behind the actions that post to it; drain it so that the jobs and
        # stages of the span's last action are all counted.
        self.listener_bus.waitUntilEmpty()
        jobs = self.status.getJobIdsForGroup(group)
        tasks = failed = 0
        for j in jobs:
            info = self.status.getJobInfo(j)
            for stage_id in info.stageIds if info else ():
                # A shuffle stage reused by a later job is counted once.
                if stage_id in self._seen_stages:
                    continue
                self._seen_stages.add(stage_id)
                st = self.status.getStageInfo(stage_id)
                if st:
                    tasks += st.numCompletedTasks
                    failed += st.numFailedTasks
        return len(jobs), tasks, failed
