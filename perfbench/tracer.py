"""In-memory span recording for the traced mode of the benchmark.

A span is one call into a layer of fracreg: its name ("<layer>.<what>"),
start and end (perf_counter seconds), the index of the enclosing span
(-1 for a root), the id of the task it belongs to, and a dict of counts
filled in by the wrapper.  Spans stay in memory and are written out by
the caller when the run ends.

Only the traced mode creates a Tracer; untraced runs call the program's
functions directly and never pass through this module.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TASK, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.task = None

    @contextmanager
    def span(self, name, **attrs):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.task, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, annotate=None):
        """`fn` recorded as a span; `annotate(rec, args, result, exc)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if annotate is not None:
                        annotate(rec, args, None, exc)
                    raise
                if annotate is not None:
                    annotate(rec, args, result, None)
                return result

        return traced


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their summed durations are the part of the parent they cover.
    """
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def busy_time(spans, predicate):
    """Summed duration of spans matching `predicate` whose parent does not.

    Counting only the outermost matching span of each nest keeps a layer
    that calls itself from being counted twice.
    """
    total = 0.0
    for rec in spans:
        if predicate(rec[NAME]) and not (rec[PARENT] >= 0 and predicate(spans[rec[PARENT]][NAME])):
            total += rec[END] - rec[START]
    return total
