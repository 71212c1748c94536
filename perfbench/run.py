"""Frost benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload diagram_sweep --seed 0 --seconds 10 --trace 0

Set-up builds the workload's inputs from ``--seed`` (seed 0 reproduces the
inputs of EXPERIMENTS.md) ``SETUPS`` times, as the workload module sets it.
The first set-up warms the process up (imports, the JVM's JIT) and is only
printed; ``setup_s`` is the median of the others. The ops then run in whole
passes until ``--seconds`` of op time have been spent; every op's output is
checked, and a failed check counts the op as failed without stopping the
run. A check that finds only a known defect of the program (``ops.KnownDefect``)
counts the op in ``known_defect_ratio`` instead.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
(see ``tracer.py``). The lines before it are a readable report that names
every metric with its unit, the run's settings, every failed check and
every known defect found.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops as ops_mod
import spark_env
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("diagram_sweep", "n_way_compare")
#: layers whose self time, calls, Spark jobs and Spark tasks are reported.
LAYERS = (
    "core.incremental",
    "matchgen.sigmod",
    "matchgen.matchers",
    "matchgen.blocking",
    "core.confusion",
    "core.diagrams",
    "core.noground",
    "core.clustering",
    "explore.setops",
    "explore.selection",
    "explore.sorting",
    "explore.attributes",
    "explore.error_analysis",
    "profiling.dataset_profile",
)
LAYER_METRICS = (
    ("self_s", "s"),
    ("calls", "count"),
    ("spark_jobs", "count"),
    ("spark_tasks", "count"),
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no Frost sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = importlib.import_module(args.workload)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    spark = spark_env.start(tmp) if wl.USES_SPARK else None
    try:
        run = measure(wl, spark, args)
    finally:
        if spark is not None:
            spark_env.stop(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    # Read before any other child process runs: once stopped, the Spark
    # driver JVM is the largest child this process has waited for.
    run["jvm_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if spark is not None else 0.0
    )

    loop = run["loop"]
    settings = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "spark_master": spark_env.master() if wl.USES_SPARK else "none (no Spark)",
        "shuffle_partitions": spark_env.SHUFFLE_PARTITIONS if wl.USES_SPARK else None,
        "scale": wl.SCALE,
    }
    e2e = {
        "setup_s": (statistics.median(run["setup_s"][1:]), "s"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    layers = layer_metrics(run, loop) if args.trace else {}
    report(settings, run, loop, e2e, layers)
    metrics = layers if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def measure(wl, spark, args) -> dict:
    tracer = undo = None
    if args.trace:
        probe = spark_env.SparkProbe(spark) if spark is not None else tr.NullProbe()
        tracer = tr.Tracer(probe)
        undo = tr.instrument(tracer)
        jobs_before = spark_env.jobs_started(spark) if spark is not None else 0

    def in_span(layer, name, fn):
        if tracer is None:
            return fn()
        with tracer.span(layer, name):
            return fn()

    setup_s, state = [], None
    for _ in range(wl.SETUPS):
        if state is not None:
            wl.teardown(state)
            state = None
        # No set-up pays for collecting what the one before it left behind.
        gc.collect()
        if spark is not None:
            # No set-up may inherit cached state from the one before it.
            spark.catalog.clearCache()
            left = spark_env.persisted_rdds(spark)
            if left:
                raise RuntimeError(f"{left} RDDs still persisted before set-up")
        t0 = time.perf_counter()
        state = in_span("perfbench.setup", "setup", lambda: wl.setup(spark, args.seed))
        setup_s.append(time.perf_counter() - t0)
    ops = in_span("perfbench.prepare", "prepare", lambda: wl.ops(spark, state, args.seed))
    if tracer is not None:
        ops = [untraced_check(op, tracer) for op in ops]
    loop = ops_mod.run_loop(ops, args.seconds, lambda op: in_span(op.layer, op.name, op.run))
    wl.teardown(state)
    run = {"setup_s": setup_s, "loop": loop, "ops": ops, "tracer": tracer, "spark": spark}
    # What the program itself left persisted once the benchmark released its inputs.
    run["persisted_after"] = spark_env.persisted_rdds(spark) if spark is not None else 0
    if tracer is not None:
        undo()
        started = spark_env.jobs_started(spark) - jobs_before if spark is not None else 0
        attributed = sum(s.jobs for s in tracer.spans)
        if attributed != started:
            raise RuntimeError(f"{attributed} jobs attributed to spans, {started} started")
    return run


def untraced_check(op, tracer):
    def check(out):
        with tracer.suspended():
            return op.check(out)

    return dataclasses.replace(op, check=check)


def layer_metrics(run, loop) -> dict[str, tuple[float, str]]:
    tracer = run["tracer"]
    totals = tracer.layers()
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        t = totals.get(layer)
        for name, unit in LAYER_METRICS:
            out[f"{layer}.{name}"] = (getattr(t, name) if t else 0, unit)
    inc = totals.get("core.incremental")
    matches = len(loop.passes) * sum(
        op.items for op in run["ops"] if op.layer == "core.incremental"
    )
    out["core.incremental.matches_per_s"] = (matches / inc.self_s if inc else 0.0, "1/s")
    out["spark.jobs"] = (sum(s.jobs for s in tracer.spans), "count")
    out["spark.tasks"] = (sum(s.tasks for s in tracer.spans), "count")
    out["spark.failed_tasks"] = (sum(s.failed_tasks for s in tracer.spans), "count")
    out["spark.persisted_rdds_after"] = (run["persisted_after"], "count")
    # Per layer rather than end to end: the G1 collector sizes the heap from
    # pause times, so the JVM's peak moved by up to a third between runs.
    out["spark.jvm_peak_rss_mb"] = (run["jvm_peak_rss_mb"], "MB")
    out["trace.overhead_s"] = (tracer.overhead_s, "s")
    out["failed_ratio"] = (ops_mod.failed_ratio(loop.attempted, loop.failed), "ratio")
    out["known_defect_ratio"] = (ops_mod.failed_ratio(loop.attempted, loop.defective), "ratio")
    # Per layer rather than end to end: on diagram_sweep the median of the
    # mixed-size ops sits between two ~50 ms diagrams and moves by a quarter
    # from run to run, more than any bound allows.
    out["op_p50_ms"] = (loop.op_p50_s() * 1000, "ms")
    out["op_samples"] = (len(loop.latencies_s), "count")
    return out


def report(settings, run, loop, e2e, layers) -> None:
    p90 = ops_mod.percentile(loop.latencies_s, 0.9)
    print(f"# perfbench {settings['workload']}")
    print("settings " + json.dumps(settings))
    print(
        f"setup runs (s): {', '.join(f'{s:.3f}' for s in run['setup_s'])} "
        "(the first is the warm-up, not counted in setup_s)"
    )
    for k, (v, u) in e2e.items():
        print(f"{k} = {v:.6g} {u}")
    print(
        "peak_rss_mb is the Python process's peak, the benchmark's reference copies "
        f"included; the Spark driver JVM's is spark.jvm_peak_rss_mb = "
        f"{run['jvm_peak_rss_mb']:.6g} MB"
    )
    n = len(loop.latencies_s)
    print(f"op_p50_ms = {loop.op_p50_s() * 1000:.6g} ms (median over {len(loop.passes)} passes)")
    print(f"op samples = {n}")
    if p90 is None:
        print(f"op_p90_ms not reported: {n} samples, {ops_mod.MIN_BEYOND * 10} needed")
    else:
        print(f"op_p90_ms = {p90 * 1000:.6g} ms")
    ratio = ops_mod.failed_ratio(loop.attempted, loop.failed)
    print(f"failed_ratio = {ratio:.6g} ({loop.failed} of {loop.attempted} ops failed)")
    ratio = ops_mod.failed_ratio(loop.attempted, loop.defective)
    print(
        f"known_defect_ratio = {ratio:.6g} ({loop.defective} of {loop.attempted} ops "
        "show a known defect of the program and nothing else wrong)"
    )
    print(f"spark.persisted_rdds_after = {run['persisted_after']} count")
    for problem in dict.fromkeys(loop.problems):
        print(f"FAILED {problem}")
    for defect in dict.fromkeys(loop.defects):
        print(f"KNOWN DEFECT {defect}")
    if not layers:
        return
    print("per-layer metrics (traced run; self time excludes child spans):")
    for k, (v, u) in layers.items():
        print(f"  {k} = {v:.6g} {u}")
    print(f"trace.overhead_s = {layers['trace.overhead_s'][0]:.6g} s of tracer bookkeeping")
    totals = run["tracer"].layers()
    lazy = [l for l in LAYERS if l in totals and totals[l].calls and not totals[l].spark_jobs]
    if run["spark"] is not None and lazy:
        print(
            "lazy layers (plans only, no Spark job of their own; their Spark work is "
            "counted in the span of the action that forces the plan, such as set-up "
            "or an enclosing op): " + ", ".join(lazy)
        )


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def src_digest() -> str:
    """Digest of the program's sources, which identifies them without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
