"""In-memory span recorder that wraps sliceseg's module attributes.

sliceseg resolves its collaborators through module globals at call time
(`build_plan` calls `select_slice`, `best_width` calls `compute_psi`, ...),
so rebinding those attributes to timing wrappers traces every layer
boundary from outside the package. Nothing under `src/` changes; `restore`
puts the original functions back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Spans (name, start, end, parent) plus named counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self._next_id = 0

    def _open(self) -> tuple[int, Optional[int]]:
        ident = self._next_id
        self._next_id += 1
        return ident, self._stack[-1] if self._stack else None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named `name`."""
        ident, parent = self._open()
        self._stack.append(ident)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(ident, name, start, end, parent))

    def add_span(self, name: str, start: float, end: float) -> int:
        """Record a span timed by the caller; returns its id."""
        ident, parent = self._open()
        self.spans.append(Span(ident, name, start, end, parent))
        return ident

    def dump(self, path) -> None:
        """Write spans and counters for another process to `adopt`."""
        doc = {
            "spans": [[s.ident, s.name, s.start, s.end, s.parent] for s in self.spans],
            "counters": self.counters,
        }
        with open(path, "w") as out:
            json.dump(doc, out)

    def adopt(self, path, parent: int) -> None:
        """Merge a child process's dump; its root spans become children of `parent`.

        perf_counter reads the system-wide monotonic clock, so the child's
        times line up with this process's.
        """
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            return
        base = self._next_id
        for ident, name, start, end, child_parent in doc["spans"]:
            up = parent if child_parent is None else base + child_parent
            self.spans.append(Span(base + ident, name, start, end, up))
            self._next_id = max(self._next_id, base + ident + 1)
        for key, value in doc["counters"].items():
            self.counters[key] += value

    def wrap(
        self,
        module,
        attr: str,
        name,
        count: Optional[Callable] = None,
    ) -> None:
        """Rebind module.attr to a spanning wrapper.

        `name` is a span name or a function of the call's arguments that
        returns one; `count(counters, result, *args, **kwargs)` may add to
        the counters after each call.
        """
        original = getattr(module, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            result = self.call(span_name, original, *args, **kwargs)
            if count is not None:
                count(counters, result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over and clear the spans and counters recorded so far."""
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters.clear()
        return spans, counters


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is the span's duration minus the part its children cover.
    Children of one span run one after another in a single thread, so that
    part is the sum of their durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        row = totals.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s.end - s.start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[s.ident]
    return totals


def write_spans(path, spans_by_iteration: list[list[Span]]) -> None:
    """One JSON line per span; times are seconds from the first span's start."""
    starts = [s.start for spans in spans_by_iteration for s in spans]
    origin = min(starts) if starts else 0.0
    with open(path, "w") as out:
        for iteration, spans in enumerate(spans_by_iteration):
            for s in spans:
                out.write(
                    json.dumps(
                        {
                            "iteration": iteration,
                            "id": s.ident,
                            "name": s.name,
                            "start": round(s.start - origin, 9),
                            "end": round(s.end - origin, 9),
                            "parent": s.parent,
                        }
                    )
                    + "\n"
                )
