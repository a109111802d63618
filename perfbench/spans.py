"""In-memory span and count recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent index, call id) on the system-wide
monotonic clock, so spans reported by a child process line up with the
parent's.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    call: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._call = 0

    def new_call(self) -> int:
        self._call += 1
        return self._call

    @contextmanager
    def span(self, name: str):
        index = self.add(name, time.monotonic_ns(), 0)
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.monotonic_ns()
            self._open.pop()

    def add(self, name: str, start: int, end: int, parent: int | None = None) -> int:
        """Record a span; by default its parent is the innermost open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append(Span(name, start, end, parent, self._call))
        return len(self.spans) - 1

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_ns(self) -> list[int]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0, s.start
            for start, end in sorted(children.get(i, ())):
                start, end = max(start, reach), min(end, s.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(s.end - s.start - covered)
        return out
