"""Harness-side spans and the self-time / attribution arithmetic.

The benchmark adds no span to the program.  In a traced run it records
its own spans around calls into each layer's public functions, folds in
the spans the program already emits on the same thread (``probe.all``,
``validate.chain``, ``ml.*``, ``analysis.*``), and maps span names onto
per-layer metrics.  A layer's self time is its span minus the part of
it that its child *layer* spans cover; spans that map to no layer are
transparent.  ``unattributed`` is the part of the traced wall that no
layer span covers, so the self times plus ``unattributed`` add up to
the wall whenever layer spans nest properly.
"""

import functools
import time
from contextlib import contextmanager


class SpanLog:
    """In-memory ``(name, start, end)`` spans under one clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []

    @contextmanager
    def span(self, name):
        start = self.clock()
        try:
            yield
        finally:
            self.spans.append((name, start, self.clock()))

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a ``name`` span."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    def wrap_build(self, cls, prop, name):
        """Record the first build of a lazily-built property of ``cls``.

        ``Study`` keeps each artifact in ``_<prop>`` once built; later
        reads return the cached object and are not spans.
        """
        getter = getattr(cls, prop).fget
        attr = f"_{prop}"

        def fget(obj):
            if getattr(obj, attr) is None:
                with self.span(name):
                    return getter(obj)
            return getter(obj)
        setattr(cls, prop, property(fget, doc=getattr(cls, prop).__doc__))

    def fold(self, tracer, thread="MainThread"):
        """Add the finished spans a ``repro.obs`` tracer recorded.

        Only spans opened on ``thread`` are folded, so every folded span
        shares this log's timeline and nests with the harness spans.
        """
        self.spans.extend((span.name, span.started, span.ended)
                          for span in tracer.finished()
                          if span.thread == thread)


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def attribute(spans, layer_of, wall):
    """Self seconds per layer, plus the unattributed rest of ``wall``.

    ``spans`` are ``(name, start, end)``; ``layer_of(name)`` gives the
    layer a span belongs to, or None for a transparent span; ``wall``
    is the traced ``(start, end)``.  Returns
    ``(self_seconds_by_layer, unattributed_seconds, residual)`` where
    ``residual`` is wall minus (self times + unattributed): zero up to
    rounding when layer spans nest, nonzero when they overlap.
    """
    lo, hi = wall
    layered = sorted(
        ((max(start, lo), min(end, hi), layer_of(name))
         for name, start, end in spans
         if layer_of(name) is not None and end > lo and start < hi),
        key=lambda item: (item[0], -item[1]))
    children = [[] for _ in layered]
    roots = []
    stack = []
    for index, (start, end, _layer) in enumerate(layered):
        while stack and layered[stack[-1]][1] <= start:
            stack.pop()
        if stack:
            children[stack[-1]].append(index)
        else:
            roots.append(index)
        stack.append(index)
    selves = {}
    for index, (start, end, layer) in enumerate(layered):
        covered = _union_length(
            (max(start, layered[child][0]), min(end, layered[child][1]))
            for child in children[index])
        selves[layer] = selves.get(layer, 0.0) + (end - start) - covered
    covered = _union_length((layered[i][0], layered[i][1]) for i in roots)
    unattributed = (hi - lo) - covered
    residual = (hi - lo) - (sum(selves.values()) + unattributed)
    return selves, unattributed, residual


def adds_up(residual, wall):
    """Whether self times plus ``unattributed`` make up ``wall``."""
    return abs(residual) <= 1e-6 * wall + 1e-6
