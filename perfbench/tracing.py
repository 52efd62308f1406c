"""In-memory spans around the benchmark's calls into the program.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until the run ends; ``Tracer.dump`` then writes them out.
Counts (calls, failures and per-call sizes such as rows out) are recorded
at the same call sites as the spans.

``NullTracer`` has the same surface and records nothing: its ``wrap`` hands
back the function itself, so the untraced pass calls the program directly.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    op = None

    def span(self, name):
        return nullcontext()

    def wrap(self, name, fn, **sizes):
        return fn


class Tracer:
    def __init__(self):
        self.op = None  # id of the operation that new spans belong to
        self.counts = defaultdict(int)
        self._closed = []  # (index, name, start, end, parent index or -1, op id)
        self._open = []
        self._next = 0

    @contextmanager
    def span(self, name):
        index, parent, op = self._next, self._open[-1] if self._open else -1, self.op
        self._next += 1
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            # closed spans are tuples of atoms, which the garbage collector
            # stops tracking, so a long trace does not slow the traced code
            self._closed.append((index, name, start, perf_counter(), parent, op))
            self._open.pop()

    def wrap(self, name, fn, **sizes):
        """``fn`` inside a span named ``name``, counting calls and failures.

        Each keyword maps a count name to a function of the result, whose
        value is added to ``<name>.<count>`` after every successful call.
        """

        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            with self.span(name):
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    self.counts[f"{name}.failed"] += 1
                    raise
            for count, size in sizes.items():
                self.counts[f"{name}.{count}"] += int(size(out))
            return out

        return traced

    def spans(self) -> list[tuple]:
        """(name, start, end, parent, op) per span, in the order opened."""
        return [s[1:] for s in sorted(self._closed)]

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the children's."""
        spans = self.spans()
        out = defaultdict(float)
        for name, start, end, parent, _ in spans:
            out[name] += end - start
            if parent >= 0:
                out[spans[parent][0]] -= end - start
        return dict(out)

    def dump(self) -> list:
        """Spans as lists, with times relative to the first span's start."""
        spans = self.spans()
        t0 = spans[0][1] if spans else 0.0
        return [[n, round(s - t0, 7), round(e - t0, 7), p, op] for n, s, e, p, op in spans]
