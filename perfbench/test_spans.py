"""Self-test of the span self-time arithmetic.

Runs under pytest (``python3 -m pytest perfbench/test_spans.py``) and at
the start of every traced benchmark run through ``run_all``.
"""
from __future__ import annotations

import threading

from spans import Span, Tracer, covered, self_times


def _span(sid, start, end, *, parent=None, thread=1, name="s"):
    return Span(sid, name, "round-1", thread, parent, start, end)


def test_nested_spans_subtract_their_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_concurrent_worker_spans_do_not_reduce_the_driver():
    spans = [
        _span(0, 0.0, 10.0, thread=1),
        _span(1, 2.0, 8.0, thread=1, parent=0),
        # two worker threads busy during the driver's span, one nested pair
        _span(2, 1.0, 9.0, thread=2),
        _span(3, 3.0, 5.0, thread=2, parent=2),
        _span(4, 0.5, 9.5, thread=3),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 4.0
    assert selfs[2] == 6.0 and selfs[3] == 2.0 and selfs[4] == 9.0
    # worker busy time is summed over threads
    workers = [s for s in spans if s.thread != 1 and s.parent is None]
    assert sum(s.duration for s in workers) == 17.0


def test_covered_merges_and_clips_intervals():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3.0
    assert covered([], 0, 10) == 0.0


def test_tracer_keeps_one_parent_stack_per_thread():
    tracer = Tracer()
    tracer.run = "round-1"
    outer = tracer.open("outer")
    seen = {}

    def worker():
        span = tracer.open("worker")
        inner = tracer.open("worker.inner")
        tracer.close(inner)
        tracer.close(span)
        seen["worker"], seen["inner"] = span, inner

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    child = tracer.open("child")
    tracer.close(child)
    tracer.close(outer)
    assert seen["worker"].parent is None
    assert seen["inner"].parent == seen["worker"].sid
    assert child.parent == outer.sid
    assert all(s.run == "round-1" for s in tracer.spans)
    selfs = self_times(tracer.spans)
    assert abs(selfs[outer.sid] - (outer.duration - child.duration)) < 1e-12


def test_iterate_records_one_span_per_fetch():
    tracer = Tracer()
    assert list(tracer.iterate("it", iter([1, 2, 3]))) == [1, 2, 3]
    assert [s.counts.get("items", 0) for s in tracer.spans] == [1, 1, 1, 0]


def run_all() -> None:
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
