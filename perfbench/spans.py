"""In-memory spans around calls into coastwatch's public functions.

The traced run replaces each listed public function, in every coastwatch
module that binds it, with a wrapper that records a span (name, start, end,
parent, operation) and optional counts taken from the call's arguments and
result. Nested library calls give nested spans, so a span's self time is its
duration minus that of its children, and the self times of all spans of one
operation plus the operation span's own self time add up to the
operation's duration. Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("sensor", "raster", "dataset", "mlp", "convnet", "alerting",
           "quantbench", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    op: int              # operation index, -1 during set-up
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), 0.0, parent, self.op, counts)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    s.counts.update(counter(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the counts, not the span
            return result
        return wrapper

    def install(self, targets: dict) -> None:
        """Wrap each ``"module.function": counter`` target everywhere it is
        bound inside the coastwatch package. Names the package no longer
        has are skipped, so their metrics read 0."""
        modules = [m for n, m in sys.modules.items()
                   if n == "coastwatch" or n.startswith("coastwatch.")]
        for qualname, counter in targets.items():
            modname, attr = qualname.split(".", 1)
            original = getattr(sys.modules.get(f"coastwatch.{modname}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(qualname, original, counter)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- queries -----------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            kids.setdefault(s.parent, []).append(i)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        return [s.duration - sum(self.spans[k].duration for k in kids.get(i, ()))
                for i, s in enumerate(self.spans)]

    def named(self, name: str, parent: str | None = None,
              ops_only: bool = True) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (s.op >= 0 or not ops_only)
                and (parent is None
                     or (s.parent >= 0 and self.spans[s.parent].name == parent))]

    def write_jsonl(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start_s": s.start - t0, "end_s": s.end - t0,
                    "counts": s.counts,
                }) + "\n")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
