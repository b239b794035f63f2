"""Spans around calls into the program's modules, installed from outside.

A probe replaces one module attribute with a timing wrapper and puts the
original back on `restore`. Callers bind names with `from .x import f`, so
a probe patches the name in the module that makes the call (for example
`adapt.evaluate`, not `diffcore.evaluate`, for the regressor step).

Spans live in memory: (metric, start, end, parent index). A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    metric: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    active: bool = True
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def open(self, metric: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(metric, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.metric} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, metric, after=None):
        """`metric` is a name or a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = metric(args, kwargs) if callable(metric) else metric
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def probe(self, module, attr: str, metric, after=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, metric, after))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def samples(self, metric: str, merge_adjacent: bool = False) -> list:
        """Durations in seconds of one metric's spans, in call order.

        With merge_adjacent, spans of the metric that follow one another
        with no other traced span in between count as one sample (the
        forward graph and the loss graph of one step form one build).
        """
        out: list = []
        previous = None
        for span in self.spans:
            if span.metric == metric:
                if merge_adjacent and previous is not None and previous.metric == metric:
                    out[-1] += span.duration
                else:
                    out.append(span.duration)
            previous = span
        return out

    def self_samples(self, metric: str) -> list:
        return [span.self_s for span in self.spans if span.metric == metric]
