"""In-memory spans around the benchmark's calls into the engine's layers.

A span records its name, start, end, parent span and trace id, plus any
counts attached while it is open.  Spans stay in memory until ``dump``.
The benchmark calls the engine from one thread, so the open spans form a
stack and a span's children are the spans opened while it was on top.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self._trace_id = 0

    @contextmanager
    def trace(self, name: str):
        """Open a new trace (a root span with a fresh trace id)."""
        self._trace_id += 1
        with self.span(name) as s:
            yield s

    @contextmanager
    def span(self, name: str):
        """Yields a dict of counts stored with the span."""
        parent = self._stack[-1] if self._stack else None
        s = {
            "name": name,
            "span_id": next(self._ids),
            "parent_id": parent["span_id"] if parent else None,
            "trace_id": self._trace_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._stack.append(s)
        try:
            yield s["counts"]
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def self_times(self) -> dict[int, float]:
        """span_id -> duration minus the time its child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent_id"] is not None:
                child_time[s["parent_id"]] = child_time.get(
                    s["parent_id"], 0.0
                ) + (s["end"] - s["start"])
        return {
            s["span_id"]: (s["end"] - s["start"]) - child_time.get(s["span_id"], 0.0)
            for s in self.spans
        }

    def total(self, name: str, self_time: bool = False) -> float:
        """Summed duration (or self time) of every span called ``name``."""
        st = self.self_times() if self_time else None
        return sum(
            st[s["span_id"]] if self_time else s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name
        )

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def dump(self, path: str) -> None:
        st = self.self_times()
        rows = [
            {**s, "duration": s["end"] - s["start"], "self": st[s["span_id"]]}
            for s in sorted(self.spans, key=lambda s: s["span_id"])
        ]
        with open(path, "w") as f:
            json.dump(rows, f, indent=1)
