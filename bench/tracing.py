"""In-memory spans around calls into iotram, recorded from outside the program.

A span is (name, start_ns, end_ns, parent index). Wrappers go on the name
that the caller looks up at call time: `iotram.cli` and `iotram.net.service`
import functions by name, so their own module attribute is the one wrapped,
while methods are wrapped on their class. Spans stay in memory and are written
out once, when the traced process ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a function that records a span per call."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name))

    def traced(self, fn, name: str):
        """fn, recording a span named `name` per call."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        doc = {"names": self.names, "starts": self.starts, "ends": self.ends,
               "parents": self.parents}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class Spans:
    """A dump read back, with each span's duration and self time in ns."""

    def __init__(self, doc: dict) -> None:
        self.names = doc["names"]
        self.starts = doc["starts"]
        self.ends = doc["ends"]
        self.parents = doc["parents"]
        self.duration = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            self.by_name[name].append(i)

    @classmethod
    def load(cls, path) -> "Spans":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def durations(self, name: str, self_only: bool = False) -> list[int]:
        source = self.self_time if self_only else self.duration
        return [source[i] for i in self.by_name.get(name, ())]
