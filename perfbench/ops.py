"""Operations, the closed loop that runs them, and the arithmetic on samples."""
from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

#: a percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class KnownDefect(str):
    """A problem that is a known, documented defect of the program.

    A check returns it among its problems when the output is wrong in exactly
    the way the defect's description says. The op is then counted in
    ``known_defect_ratio`` instead of ``failed_ratio``, so that the defect is
    measured on every run and its fix shows, while any other wrong output
    still fails the op.
    """


@dataclass
class Op:
    """One call to a public Frost entry point, and the check of its output.

    ``check`` returns a list of problems; an empty list means the output is
    correct, and a list of ``KnownDefect`` only that it shows a known defect. ``layer`` names the module whose entry point the op calls;
    ``items`` is how many input items (such as matches) the call processes.
    """

    name: str
    layer: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    items: int = 0


@dataclass
class LoopResult:
    #: op latencies, one list per whole pass over the ops.
    passes: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: ops whose only problems are known defects.
    defective: int = 0
    problems: list[str] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)

    @property
    def latencies_s(self) -> list[float]:
        return [t for p in self.passes for t in p]

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_s)

    def ops_per_s(self) -> float:
        """Median over passes of ops completed per second of op time."""
        return statistics.median([len(p) / sum(p) for p in self.passes])

    def op_p50_s(self) -> float:
        """Median over passes of the pass's median op latency."""
        return statistics.median([statistics.median(p) for p in self.passes])


def run_loop(
    ops: list[Op],
    seconds: float,
    wrap: Callable[[Op], Any],
    clock: Callable[[], float] = time.perf_counter,
) -> LoopResult:
    """Closed loop, one client: whole passes over ``ops`` until ``seconds`` of op time.

    ``wrap(op)`` makes the op's call, for instance ``op.run()`` inside a span.

    The metrics are medians over passes, so a run that measures more passes
    is steadier. Each op is sent only when the previous one has returned and been
    checked. A raised exception or a failed check counts the op as failed;
    neither stops the loop. An op whose problems are all ``KnownDefect`` is
    counted as defective, not failed. Check time is not op time.
    """
    res = LoopResult()
    while True:
        res.passes.append([])
        for op in ops:
            t0 = clock()
            try:
                out = wrap(op)
                error = None
            except Exception:  # the loop must go on; the failure is reported
                out, error = None, traceback.format_exc(limit=3)
            res.passes[-1].append(clock() - t0)
            res.attempted += 1
            if error is None:
                try:
                    problems = op.check(out)
                except Exception:
                    problems = ["check raised: " + traceback.format_exc(limit=3)]
            else:
                problems = ["op raised: " + error]
            known = [p for p in problems if isinstance(p, KnownDefect)]
            if len(known) < len(problems):
                res.failed += 1
                res.problems += [f"{op.name}: {p}" for p in problems]
            elif known:
                res.defective += 1
                res.defects += [f"{op.name}: {p}" for p in known]
        if res.busy_s >= seconds:
            return res


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-quantile, or ``None`` when fewer than MIN_BEYOND samples lie beyond it.

    Uses the same cut points as ``statistics.quantiles(method="inclusive")``.
    """
    n = len(samples)
    if n == 0 or round(n * (1 - q), 9) < MIN_BEYOND:
        return None
    s = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no op was attempted")
    return failed / attempted
