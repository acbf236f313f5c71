"""In-memory spans around the calls into distnewton's layers.

The tracer replaces a layer function, where its caller looks it up, with a
wrapper that records one span (name, start, end, parent) per call.  Nothing
inside the package changes, and leaving `installed()` puts every original
back.  Spans stay in memory until the benchmark writes them out at the end.

A span's self time is its duration minus the durations of its direct
children.  Spans nest per thread, so the traced phases keep the harness on
its serial path (threads=1), where every span has its caller as parent.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._local = threading.local()
        self._targets: list[tuple] = []  # (owner, attribute, span name)

    def add(self, owner, attribute: str, name: str):
        """Register `owner.attribute` to be wrapped as span `name`."""
        self._targets.append((owner, attribute, name))

    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def installed(self):
        """Wrap every registered target for the duration of the block."""
        originals = []
        try:
            for owner, attribute, name in self._targets:
                fn = getattr(owner, attribute)
                originals.append((owner, attribute, fn))
                setattr(owner, attribute, self._wrap(fn, name))
            yield self
        finally:
            for owner, attribute, fn in reversed(originals):
                setattr(owner, attribute, fn)


def self_times(spans) -> list[float]:
    """Duration minus the direct children's durations, per span."""
    selfs = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def by_name(spans, selfs) -> dict:
    """name -> {"calls", "total_s", "self_s"} summed over all spans."""
    out: dict = {}
    for (name, start, end, _), own in zip(spans, selfs):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def self_time_in_windows(spans, selfs, windows, skip: str | None) -> float:
    """Summed self time of the spans, other than those named `skip`, that
    start inside one of the disjoint, sorted (start, end) windows."""
    starts = [w[0] for w in windows]
    total = 0.0
    for (name, start, _, _), own in zip(spans, selfs):
        if name == skip:
            continue
        i = bisect.bisect_right(starts, start) - 1
        if i >= 0 and start < windows[i][1]:
            total += own
    return total
