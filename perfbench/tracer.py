"""Spans around the benchmark's calls into each pushcops layer.

The benchmark never instruments code inside the package: every span wraps a
call made from the benchmark's own files, or a strategy callable that the
benchmark hands to ``play_match``.  Spans are kept in memory and written out
after the pass that recorded them.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, item, fn, *args):
        return fn(*args)

    def wrap(self, name, item, fn):
        return fn

    def span(self, name, item):
        return contextlib.nullcontext()


class Tracer:
    """Records one span per wrapped call: name, item id, start, end, parent.

    ``spans[i]`` is ``(name, item, start, end, parent)`` with ``parent`` the
    index of the enclosing span, or -1 at the top level.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [-1]

    def call(self, name, item, fn, *args):
        with self.span(name, item):
            return fn(*args)

    def wrap(self, name, item, fn):
        def traced(game, state):
            return self.call(name, item, fn, game, state)

        return traced

    @contextlib.contextmanager
    def span(self, name, item):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, item, start, end, parent)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, item, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for sid, (name, item, start, end, parent) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child[sid]
        return totals

    def write(self, fh, pass_index: int) -> None:
        """Append this pass's spans as JSON lines, times relative to its first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        for sid, (name, item, start, end, parent) in enumerate(self.spans):
            fh.write(
                json.dumps(
                    [pass_index, sid, parent, name, item,
                     round((start - t0) * 1e6), round((end - t0) * 1e6)]
                )
            )
            fh.write("\n")
