"""Spans, self time and percentiles for the benchmark.

A span is one timed call into a phidetect module, recorded from outside the
package: name, start, end, parent span and a job/request/replicate id, plus
free-form attributes (sizes, cache hit, rusage deltas).  ``Tracer.patched``
replaces module functions with span-recording wrappers for the length of a
``with`` block, so the package's own callers are timed where they look the
functions up.  Spans are kept in memory and written out as JSON lines when
the run ends, so recording adds no I/O to the traced calls.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records nested spans; each span inherits its parent's id unless given one."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid=None, rusage: bool = False, **attrs):
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent]["rid"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "rid": rid,
               "start": 0.0, "end": 0.0, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        ru0 = resource.getrusage(resource.RUSAGE_SELF) if rusage else None
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if ru0 is not None:
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                attrs["minflt"] = ru1.ru_minflt - ru0.ru_minflt
                attrs["sys_s"] = ru1.ru_stime - ru0.ru_stime
            self._stack.pop()

    def wrap(self, fn, name: str, attrs, rusage: bool = False):
        """``fn`` recording a span per call; ``attrs(args, result)`` adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, rusage=rusage) as rec:
                result = fn(*args, **kwargs)
            rec["attrs"].update(attrs(args, result))
            return result

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Wrap ``module.attr`` for each ``(module, attr, name, attrs, rusage)``
        while the block runs; the originals are put back on exit."""
        saved = []
        try:
            for module, attr, name, attrs, rusage in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, attrs, rusage))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]].append((rec["start"], rec["end"]))
    return [
        (rec["end"] - rec["start"]) - _covered(children[rec["id"]], rec["start"], rec["end"])
        for rec in spans
    ]


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """Highest percentile in TAIL_PERCENTILES with >= TAIL_MIN_BEYOND samples above it.

    Order-statistic form, no interpolation: with n samples and percentile p,
    k = floor(n * (1 - p/100)) samples lie beyond, and the value is the
    largest sample not among them.  Returns (p, value, k), or None when n is
    too small for any percentile.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        # integer tenths of a percent: 1 - 99.9/100 is not exact in binary
        beyond = n * (1000 - round(p * 10)) // 1000
        if beyond >= TAIL_MIN_BEYOND:
            return p, float(xs[n - beyond - 1]), beyond
    return None
