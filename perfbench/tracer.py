"""Span recorder for the benchmark's traced runs.

Spans are recorded from outside the program: :func:`instrument` replaces
every public module-level function of the ``repro`` package, wherever a
module holds a reference to it, with a wrapper that opens a span named
after the function's module (its *layer*). Calls that stay inside one layer
open no new span, so a layer's ``calls`` counts entries into it.

Each span gets its own Spark job group while it is the innermost span, so
every Spark job is attributed to the innermost span that was open when the
job ran. Job and task counts are read from the probe when the span ends,
before Spark's status tracker can evict them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol


class JobProbe(Protocol):
    """Where a span's Spark work is counted; :class:`NullProbe` when no Spark."""

    def enter(self, group: str | None) -> None:
        """Tag jobs started from now on with ``group`` (``None``: untagged)."""

    def collect(self, group: str) -> tuple[int, int, int]:
        """(jobs, completed tasks, failed tasks) run under ``group``."""


class NullProbe:
    def enter(self, group: str | None) -> None:
        pass

    def collect(self, group: str) -> tuple[int, int, int]:
        return 0, 0, 0


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children: list[tuple[float, float]] = field(default_factory=list)
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - covered(self.children, self.start, self.end)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


@dataclass
class LayerTotals:
    self_s: float = 0.0
    calls: int = 0
    spark_jobs: int = 0
    spark_tasks: int = 0


class Tracer:
    """Nested spans with self time and per-span Spark job counts."""

    def __init__(
        self,
        probe: JobProbe | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.probe = probe or NullProbe()
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.enabled = True
        #: wall time spent in the tracer's own bookkeeping, probe calls included.
        self.overhead_s = 0.0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Calls made inside run untraced, such as the benchmark's own checks."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @property
    def current_layer(self) -> str | None:
        return self.spans[self._stack[-1]].layer if self._stack else None

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        t0 = self.clock()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.probe.enter(f"span-{idx}")
        s = Span(layer, name, start=0.0, parent=parent)
        self.spans.append(s)
        self._stack.append(idx)
        s.start = self.clock()
        self.overhead_s += s.start - t0
        try:
            yield
        finally:
            s.end = self.clock()
            s.jobs, s.tasks, s.failed_tasks = self.probe.collect(f"span-{idx}")
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children.append((s.start, s.end))
            self.probe.enter(f"span-{parent}" if parent is not None else None)
            self.overhead_s += self.clock() - s.end

    def layers(self) -> dict[str, LayerTotals]:
        out: dict[str, LayerTotals] = {}
        for s in self.spans:
            t = out.setdefault(s.layer, LayerTotals())
            t.self_s += s.self_s
            t.calls += 1
            t.spark_jobs += s.jobs
            t.spark_tasks += s.tasks
        return out


#: the program's package, whose modules are the layers.
PACKAGE = "repro"


def layer_of(module_name: str) -> str:
    return module_name.removeprefix(PACKAGE + ".")


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public function of the program in a span; returns the undo.

    A function is public when its name has no leading underscore and it is
    defined in the module that exports it. Every module attribute bound to
    such a function, including names imported with ``from ... import``, is
    replaced, so calls between modules are traced too.
    """
    pkg = importlib.import_module(PACKAGE)
    modules = [pkg] + [
        importlib.import_module(m.name)
        for m in pkgutil.walk_packages(pkg.__path__, PACKAGE + ".")
    ]
    originals: dict[int, Callable] = {}
    wrappers: dict[int, Callable] = {}
    for mod in modules:
        for name, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and not name.startswith("_")
                and fn.__module__ == mod.__name__
            ):
                originals[id(fn)] = fn
                wrappers[id(fn)] = _wrap(tracer, fn, layer_of(mod.__name__))
    patched: list[tuple[object, str, Callable]] = []
    for mod in modules:
        for name, fn in list(vars(mod).items()):
            if id(fn) in wrappers and originals[id(fn)] is fn:
                setattr(mod, name, wrappers[id(fn)])
                patched.append((mod, name, fn))

    def undo() -> None:
        for mod, name, fn in patched:
            setattr(mod, name, fn)

    return undo


def _wrap(tracer: Tracer, fn: Callable, layer: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled or tracer.current_layer == layer:
            return fn(*args, **kwargs)
        with tracer.span(layer, fn.__name__):
            return fn(*args, **kwargs)

    return traced
