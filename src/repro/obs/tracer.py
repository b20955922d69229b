"""Nested, thread-safe tracing spans with a deterministic-clock hook.

A :class:`Span` measures one pipeline stage; spans nest, so a trace of a
full study run is a tree: ``cli.report`` over ``analysis.server`` over
``probe.all`` over nothing.  The tracer's clock is injectable
(``Tracer(clock=fake)``) which makes span durations exact in tests.

Threading model: each thread keeps its own span stack, so concurrent
spans on different threads never corrupt each other's nesting.  A span
opened on a worker thread with an empty local stack parents to the
innermost span open on the tracer's *home* thread (the thread that
created the tracer) — the coordinator-plus-workers shape every stage of
this pipeline has.  Workers that need a specific parent pass it
explicitly: ``tracer.span("probe.one", parent=batch_span)``.

Closed spans stream into the tracer's sink as JSONL events (see
:mod:`repro.obs.sink`), carrying ``id``/``parent`` references so the
tree is reconstructable from the flat file — this is what
``repro trace-summary`` consumes.
"""

import threading
import time


class Stopwatch:
    """A minimal span-alike: just elapsed time under an injectable clock.

    Used where a component wants span-style elapsed-time semantics (a
    live reading while running, frozen once stopped) without requiring
    an active tracer — e.g. the probe engine's ``wall_seconds``, which
    it reports whether or not observability is on.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.started = clock()
        self.ended = None

    def stop(self):
        if self.ended is None:
            self.ended = self._clock()
        return self.duration

    @property
    def duration(self):
        end = self.ended if self.ended is not None else self._clock()
        return end - self.started


class Span:
    """One timed, counted stage of the pipeline."""

    def __init__(self, tracer, name, span_id, parent):
        self.tracer = tracer
        self.name = name
        self.id = span_id
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children = []
        self.counters = {}
        self.thread = threading.current_thread().name
        self.started = tracer.clock()
        self.ended = None

    @property
    def duration(self):
        """Elapsed seconds; live reading while the span is open."""
        end = self.ended if self.ended is not None else self.tracer.clock()
        return end - self.started

    @property
    def self_seconds(self):
        """Duration minus child durations (clamped: children on other
        threads may overlap the parent)."""
        return max(0.0, self.duration
                   - sum(child.duration for child in self.children))

    def incr(self, key, n=1):
        """Bump a per-span counter (attached to the span event)."""
        with self.tracer._lock:
            self.counters[key] = self.counters.get(key, 0) + n
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self, error=exc_type.__name__ if exc_type
                           else None)
        return False

    def to_event(self, error=None):
        event = {
            "type": "span",
            "id": self.id,
            "parent": None if self.parent is None else self.parent.id,
            "name": self.name,
            "depth": self.depth,
            "thread": self.thread,
            "started": round(self.started, 6),
            "duration": round(self.duration, 6),
        }
        if self.counters:
            event["counters"] = dict(sorted(self.counters.items()))
        if error is not None:
            event["error"] = error
        return event


class _NullSpan:
    """The do-nothing span the disabled context hands out."""

    name = None
    duration = 0.0
    self_seconds = 0.0

    def incr(self, key, n=1):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Builds the span tree; streams closed spans into a sink."""

    def __init__(self, clock=time.perf_counter, sink=None):
        self.clock = clock
        self.sink = sink
        self.spans = []        # every span, in open order
        self.roots = []        # depth-0 spans, in open order
        self._lock = threading.Lock()
        self._next_id = 0
        self._home_ident = threading.get_ident()
        self._home_stack = []
        self._tls = threading.local()

    def _stack(self):
        if threading.get_ident() == self._home_ident:
            return self._home_stack
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self):
        """This thread's innermost open span (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name, parent=None):
        """Open a nested span; use as a context manager."""
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._home_ident:
                # Ambient fallback: nest under the coordinator thread.
                parent = self._home_stack[-1] if self._home_stack else None
        with self._lock:
            span = Span(self, name, self._next_id, parent)
            self._next_id += 1
            self.spans.append(span)
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        stack.append(span)
        return span

    def _close(self, span, error=None):
        span.ended = self.clock()
        stack = self._stack()
        if span in stack:
            # Tolerate out-of-order exits instead of corrupting nesting.
            del stack[stack.index(span):]
        if self.sink is not None:
            self.sink.emit(span.to_event(error=error))

    def finished(self):
        return [span for span in self.spans if span.ended is not None]

    def find(self, name):
        """All spans with ``name``, in open order."""
        return [span for span in self.spans if span.name == name]

    def stage_timings(self):
        """``name -> total seconds`` over closed spans (manifest food).

        Aggregates by name, so repeated stages (one span per analysis,
        several probe batches) sum naturally.
        """
        timings = {}
        for span in self.finished():
            timings[span.name] = timings.get(span.name, 0.0) \
                + span.duration
        return {name: round(seconds, 6)
                for name, seconds in sorted(timings.items())}
