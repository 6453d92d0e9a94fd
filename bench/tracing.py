"""Spans recorded by the benchmark around its calls into the package.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the index of
the enclosing span or -1, and ``op`` groups the spans of one operation.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import statistics
import time


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self._current = -1
        self._op = -1

    def begin_op(self, op_id):
        self._op = op_id

    def call(self, name, fn, *args, **kwargs):
        parent = self._current
        index = len(self.spans)
        self.spans.append(None)
        self._current = index
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current = parent
            self.spans[index] = (name, start, end, parent, self._op)

    def add(self, name, start_ns, end_ns):
        """Record a span timed elsewhere, e.g. a child process's wall time."""
        self.spans.append((name, start_ns, end_ns, self._current, self._op))

    def durations(self, name) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list:
        """Per span: its duration minus the time its children cover."""
        covered = [[] for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent].append((start, end))
        out = []
        for (name, start, end, _, _), intervals in zip(self.spans, covered):
            busy = 0
            last = start
            for s, e in sorted(intervals):
                s = max(s, last)
                if e > s:
                    busy += e - s
                    last = e
            out.append(end - start - busy)
        return out

    def summary(self) -> dict:
        """Per span name: count, total and self time, median duration."""
        groups: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end = span[0], span[1], span[2]
            g = groups.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0, "d": []})
            g["count"] += 1
            g["total_ns"] += end - start
            g["self_ns"] += own
            g["d"].append(end - start)
        return {
            name: {
                "count": g["count"],
                "total_ms": g["total_ns"] / 1e6,
                "self_ms": g["self_ns"] / 1e6,
                "median_us": statistics.median(g.pop("d")) / 1e3,
            }
            for name, g in sorted(groups.items())
        }

    def to_doc(self) -> dict:
        """Spans as columns, with names stored once."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
