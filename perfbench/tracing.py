"""In-memory spans, GC pause attribution and the host reference loop.

The benchmark records spans only from its own files, around calls into a
module's public functions (``CompletionEngine.prepare``,
``apply_scene_delta``, ``AsyncCompletionClient.complete``, ...).  A span
carries a name, start, end, its parent and a request id; spans stay in
memory and :meth:`Tracer.dump` writes them out when the run ends.

Garbage-collector pauses come from :data:`gc.callbacks` and are charged to
the innermost span open when the collection started.  GC is recorded in
every run, traced or not: an untraced run only keeps the totals, so any
run shows a shifted pause apart from a program change without paying
for spans.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

#: Where a GC pause is charged when no span is open.
OUTSIDE = "outside"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[str] = None
    index: int = 0
    #: GC pause seconds that started while this was the innermost span.
    gc: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered_seconds(start: float, end: float,
                    intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of *intervals*, clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    covered = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_seconds(span: Span, children: Iterable[Span]) -> float:
    """A span's duration minus the part of it its children cover."""
    return span.seconds - covered_seconds(
        span.start, span.end, ((child.start, child.end) for child in children))


class Tracer:
    """Span recorder plus GC accounting for one benchmark run.

    With ``enabled=False`` :meth:`span` records nothing (the untraced,
    end-to-end run) while GC totals are still kept.
    """

    def __init__(self, enabled: bool,
                 clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "perfbench_span", default=None)
        self.gc_pause: defaultdict = defaultdict(float)
        self.gc_collections: Counter = Counter()
        self._gc_started: Optional[float] = None
        self._gc_span: Optional[Span] = None
        #: Seconds spent opening and closing spans (the tracer's own cost).
        self.overhead = 0.0

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, request: Optional[str] = None
             ) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        entered = self.clock()
        parent = self._current.get()
        span = Span(name, 0.0,
                    parent=parent.index if parent is not None else None,
                    request=request if request is not None else (
                        parent.request if parent is not None else None),
                    index=len(self.spans))
        self.spans.append(span)
        token = self._current.set(span)
        span.start = self.clock()
        self.overhead += span.start - entered
        try:
            yield span
        finally:
            span.end = self.clock()
            self._current.reset(token)
            self.overhead += self.clock() - span.end

    def wrap(self, name: str, function: Callable,
             nested: bool = True) -> Callable:
        """*function* with every call inside a span of *name*.

        With ``nested=False`` a call is recorded only inside an open span
        of another name — recursive calls and calls the harness makes
        outside any measured operation stay unrecorded.
        """
        def traced(*args, **kwargs):
            current = self._current.get()
            if not nested and (current is None or current.name == name):
                return function(*args, **kwargs)
            with self.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function
        return traced

    def children(self) -> dict[int, list[Span]]:
        by_parent: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                by_parent[span.parent].append(span)
        return by_parent

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    # -- garbage collector ----------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        """A :data:`gc.callbacks` hook: time the pause, charge its span."""
        now = self.clock()
        if phase == "start":
            self._gc_started = now
            self._gc_span = self._current.get()
            return
        if self._gc_started is None:
            return
        pause = now - self._gc_started
        self._gc_started = None
        self.gc_collections[info.get("generation", -1)] += 1
        span = self._gc_span
        self._gc_span = None
        if span is not None:
            span.gc += pause
        self.gc_pause[span.name if span is not None else OUTSIDE] += pause

    @contextmanager
    def collecting_gc(self) -> Iterator[None]:
        gc.callbacks.append(self.on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self.on_gc)

    @property
    def gc_pause_total(self) -> float:
        return sum(self.gc_pause.values())

    @property
    def gen2_collections(self) -> int:
        return self.gc_collections.get(2, 0)

    # -- output ---------------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        """Write every span (and the GC totals) as one JSON document."""
        document = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "request", "gc"],
            "spans": [[span.name, span.start, span.end, span.parent,
                       span.request, span.gc] for span in self.spans],
            "gc_pause_s": dict(self.gc_pause),
            "gc_collections": {str(gen): count for gen, count
                               in sorted(self.gc_collections.items())},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def reference_loop_ms(iterations: int = 12_000) -> float:
    """Wall time of a fixed pure-Python loop: the host-speed yardstick.

    Independent of the program under test, so a slow host window shows up
    here as well as in the program's timings.
    """
    start = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    elapsed = time.perf_counter() - start
    if total < 0:                       # keep the loop observable
        raise AssertionError
    return elapsed * 1000.0
