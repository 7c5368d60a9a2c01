"""In-memory span recorder for the traced run.

A span has a name, a start, an end, the index of its parent span and an
item id.  Spans are kept in a list while the run lasts and written out once
at the end.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, item])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time covered
        by direct children.  Children of one span never overlap, because
        spans nest on a single stack."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def last_duration(self, name: str) -> float:
        for n, start, end, _, _ in reversed(self.spans):
            if n == name:
                return end - start
        raise KeyError(name)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")


def span_cost(spans: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to the traced run: the fastest of a few timed
    loops of empty spans on a recorder of their own."""
    best = float("inf")
    for _ in range(repeats):
        tr = Tracer()
        t0 = perf_counter()
        for _ in range(spans):
            with tr.span("x"):
                pass
        best = min(best, (perf_counter() - t0) / spans)
    return best
