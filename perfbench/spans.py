"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: its name, start and end on
``time.perf_counter``, the thread it ran on, the enclosing span on the same
thread (its parent) and the id of the benchmark operation it belongs to.
Spans are kept in a list while the run lasts and written out as JSON lines
when it ends.

Spark work is attributed per span: a span opened with ``spark=True`` puts
the driver thread's Spark jobs into a job group of its own and counts them
with ``statusTracker().getJobIdsForGroup`` when it closes, then restores the
enclosing group. A nested Spark span therefore takes its jobs out of its
parent's count, so each span's ``spark_jobs`` are its own.

This module has no dependency on the system under test; ``layers.py``
decides which calls become spans.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

_GROUP_KEY = "spark.jobGroup.id"


@dataclass
class Span:
    sid: int
    name: str
    run: str | None
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; one instance per benchmark process.

    ``run`` is the id of the operation now being measured (a set-up or a
    round); spans opened on any thread while it is set carry it.
    """

    def __init__(self, spark_context=None) -> None:
        self.spans: list[Span] = []
        self.run: str | None = None
        self._sc = spark_context
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, spark: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1][0].sid if stack else None
        span = Span(next(self._ids), name, self.run, threading.get_ident(), parent, 0.0)
        prev_group = None
        if spark and self._sc is not None:
            prev_group = self._sc.getLocalProperty(_GROUP_KEY)
            self._sc.setJobGroup(f"perfbench-{span.sid}", name)
        stack.append((span, spark, prev_group))
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        top, spark, prev_group = stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if spark and self._sc is not None:
            jobs = self._sc.statusTracker().getJobIdsForGroup(f"perfbench-{span.sid}")
            span.counts["spark_jobs"] = len(jobs)
            self._sc.setLocalProperty(_GROUP_KEY, prev_group)
        self.spans.append(span)

    def iterate(self, name: str, it: Iterator, *, spark: bool = False) -> Iterator:
        """Re-yield ``it``, recording one span per fetch from it; a span that
        delivered an item carries ``items=1``."""
        try:
            while True:
                span = self.open(name, spark=spark)
                try:
                    item = next(it)
                    span.counts["items"] = 1
                except StopIteration:
                    return
                finally:
                    self.close(span)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "run": s.run,
                            "thread": s.thread,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "counts": {
                                k: v for k, v in s.counts.items() if not k.startswith("_")
                            },
                        }
                    )
                    + "\n"
                )


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans.

    Children are spans whose parent is the span; they run on its thread,
    so spans on other threads never reduce a span's self time.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.sid: s.duration
        - covered(((c.start, c.end) for c in children[s.sid]), s.start, s.end)
        for s in spans
    }
