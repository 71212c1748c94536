"""Self-tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import dataclasses
import statistics
import sys
from pathlib import Path

import pytest

from ops import KnownDefect, Op, failed_ratio, percentile, run_loop
from tracer import Tracer, _wrap, covered

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class FakeProbe:
    """Jobs 'run' by the test are charged to whichever group is current."""

    def __init__(self) -> None:
        self.group: str | None = None
        self.jobs: dict[str | None, int] = {}

    def enter(self, group):
        self.group = group

    def run_job(self, n: int = 1) -> None:
        self.jobs[self.group] = self.jobs.get(self.group, 0) + n

    def collect(self, group):
        return self.jobs.get(group, 0), 10 * self.jobs.get(group, 0), 0


def test_self_time_excludes_nested_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("a", "outer"):
        clock.t += 1
        with tr.span("b", "inner1"):
            clock.t += 2
            with tr.span("c", "innermost"):
                clock.t += 4
        clock.t += 8
        with tr.span("b", "inner2"):
            clock.t += 16
    layers = tr.layers()
    assert layers["a"].self_s == pytest.approx(1 + 8)
    assert layers["b"].self_s == pytest.approx(2 + 16)
    assert layers["c"].self_s == pytest.approx(4)
    assert layers["b"].calls == 2
    total = sum(t.self_s for t in layers.values())
    assert total == pytest.approx(clock.t)


def test_covered_merges_overlapping_and_clips():
    assert covered([(1, 3), (2, 5), (7, 9)], 0, 8) == pytest.approx(5)
    assert covered([], 0, 8) == 0


def test_jobs_attributed_to_innermost_span():
    probe = FakeProbe()
    tr = Tracer(probe, clock=FakeClock())
    with tr.span("outer", "o"):
        probe.run_job()
        with tr.span("inner", "i"):
            probe.run_job(3)
        probe.run_job()  # after the child ends, jobs go to the parent again
    probe.run_job()  # outside every span: no group
    layers = tr.layers()
    assert layers["outer"].spark_jobs == 2
    assert layers["inner"].spark_jobs == 3
    assert layers["inner"].spark_tasks == 30
    assert probe.jobs[None] == 1
    assert sum(s.jobs for s in tr.spans) == sum(probe.jobs.values()) - probe.jobs[None]


def test_same_layer_calls_open_no_span():
    tr = Tracer(clock=FakeClock())
    inner = _wrap(tr, lambda: 1, "m")
    outer = _wrap(tr, lambda: inner() + 1, "m")
    assert outer() == 2
    assert tr.layers()["m"].calls == 1
    with tr.suspended():
        outer()
    assert len(tr.spans) == 1


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(99)), 0.9) is None
    xs = [float(i) for i in range(100)]
    assert percentile(xs, 0.9) == pytest.approx(statistics.quantiles(xs, n=10, method="inclusive")[-1])
    assert percentile(list(range(19)), 0.5) is None
    assert percentile([float(i) for i in range(20)], 0.5) == pytest.approx(9.5)
    assert percentile([], 0.5) is None


def test_failed_ratio_counts_failed_checks_and_raised_ops():
    def boom():
        raise ValueError("no")

    ops = [
        Op("ok", "l", lambda: 1, lambda r: []),
        Op("wrong", "l", lambda: 2, lambda r: ["bad output"]),
        Op("raises", "l", boom, lambda r: []),
        Op("check raises", "l", lambda: 3, lambda r: 1 / 0),
    ]
    clock = FakeClock()

    def tick(op):
        clock.t += 1
        return op.run()

    res = run_loop(ops, seconds=6, wrap=tick, clock=clock)
    assert res.attempted == 8  # two whole passes reach 6 s of op time
    assert res.failed == 6
    assert failed_ratio(res.attempted, res.failed) == pytest.approx(0.75)
    assert len(res.latencies_s) == 8
    with pytest.raises(ValueError):
        failed_ratio(0, 0)


def test_known_defect_counts_apart_from_failures():
    ops = [
        Op("defect only", "l", lambda: 1, lambda r: [KnownDefect("known")]),
        Op("defect and wrong", "l", lambda: 2, lambda r: [KnownDefect("known"), "bad"]),
        Op("ok", "l", lambda: 3, lambda r: []),
    ]
    clock = FakeClock()

    def tick(op):
        clock.t += 1
        return op.run()

    res = run_loop(ops, seconds=3, wrap=tick, clock=clock)
    assert (res.attempted, res.failed, res.defective) == (3, 1, 1)
    assert res.defects == ["defect only: known"]
    assert res.problems == ["defect and wrong: known", "defect and wrong: bad"]


def test_phantom_point_is_a_known_defect_and_other_errors_fail():
    import diagram_sweep as ds
    from repro.core import incremental

    # Gold {0,1},{2,3}; two matches tie at 0.9. With s=4 point 1 holds only
    # the first of them, so it is a phantom point at threshold 0.9.
    n, labels = 4, [0, 0, 1, 1]
    matches = [(0.9, 0, 1), (0.9, 1, 2), (0.5, 2, 3)]
    check = ds._checker(ds.ClosureOracle(n, labels, matches), n, labels, matches, 4, False)
    points = incremental.confusion_series(n, labels, matches, 4)
    problems = check(points)
    assert len(problems) == 1 and isinstance(problems[0], KnownDefect)
    # Outside what any order of the tied matches could give: a plain failure.
    points[1] = dataclasses.replace(points[1], tp=2, fn=points[1].fn - 2)
    problems = check(points)
    assert any(not isinstance(p, KnownDefect) for p in problems)
    # Without ties the same engine is exact, and nothing is reported.
    distinct = [(0.9, 0, 1), (0.8, 1, 2), (0.5, 2, 3)]
    check = ds._checker(ds.ClosureOracle(n, labels, distinct), n, labels, distinct, 4, True)
    assert check(incremental.confusion_series(n, labels, distinct, 4)) == []
