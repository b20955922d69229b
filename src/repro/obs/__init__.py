"""``repro.obs`` — observability for the whole study pipeline.

Production measurement systems (Active TLS Stack Fingerprinting, IoT
Inspector) live or die on per-stage telemetry: without it, scan skew and
regressions hide inside a multi-minute pipeline.  This package gives the
reproduction the same three primitives:

- :class:`~repro.obs.tracer.Tracer` — nested, thread-safe spans with a
  deterministic-clock hook (``span("probe.all")``), recording wall time,
  per-span counters, and parent/child structure;
- :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges,
  histograms, and keyed counter families whose snapshots are
  deterministic (sorted, timing-free) for a given seed and config;
- :class:`~repro.obs.sink.JsonlSink` — a structured-event JSONL sink the
  tracer streams closed spans into, plus the
  :class:`~repro.obs.manifest.RunManifest` written alongside every CLI
  artifact (seed, config digest, package version, stage timings, metric
  snapshot).

Instrumented code never imports the tracer directly; it calls the
module-level helpers below (:func:`span`, :func:`incr`, :func:`gauge`),
which proxy to the process-global *active* :class:`Observability`
context.  By default the context is disabled and every helper is a
cheap no-op, so library callers pay nothing; the CLI (and tests) switch
it on with :func:`activate` / :func:`enabled`.

Activation is process-global, not thread-local: one coordinator (the
CLI command, a benchmark harness) owns the context and worker threads
report into it.
"""

import time
from contextlib import contextmanager

from repro.obs.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder, TeeSink
from repro.obs.sink import JsonlSink, NullSink
from repro.obs.slo import SloObjective, SloTracker
from repro.obs.tracer import NULL_SPAN, Span, Stopwatch, Tracer

__all__ = [
    "Counter", "CounterFamily", "FlightRecorder", "Gauge", "Histogram",
    "JsonlSink", "MetricsRegistry", "NullSink", "Observability",
    "ServiceTelemetry", "SloObjective", "SloTracker", "Span",
    "Stopwatch", "TeeSink", "Tracer", "activate", "active_registry",
    "current", "deactivate", "enabled", "ensure_enabled", "gauge",
    "incr", "parse_prometheus", "render_prometheus", "span",
]


class Observability:
    """One observability context: a tracer plus a metrics registry.

    ``enabled=False`` builds the inert singleton used as the default
    active context — every operation on it is a no-op.  The ``clock``
    hook feeds the tracer, so a fake clock makes traces fully
    deterministic in tests.
    """

    def __init__(self, clock=time.perf_counter, sink=None, enabled=True):
        self.enabled = enabled
        self.sink = sink if sink is not None else NullSink()
        if enabled:
            self.metrics = MetricsRegistry()
            self.tracer = Tracer(clock=clock, sink=self.sink)
        else:
            self.metrics = None
            self.tracer = None

    def span(self, name, parent=None):
        """Open a span on the tracer (no-op span when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, parent=parent)

    def incr(self, name, key=None, n=1):
        """Bump a counter (``key`` selects a counter-family member)."""
        if not self.enabled:
            return
        if key is None:
            self.metrics.counter(name).inc(n)
        else:
            self.metrics.family(name).inc(key, n)

    def gauge(self, name, value):
        """Set a gauge (no-op when disabled)."""
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def close(self):
        """Flush the metric snapshot into the sink and close it."""
        if self.enabled:
            self.sink.emit({"type": "metrics",
                            "snapshot": self.metrics.snapshot()})
        self.sink.close()


#: The inert default context; module helpers proxy to ``_active``.
_DISABLED = Observability(enabled=False)
_active = _DISABLED


def current():
    """The process-global active observability context."""
    return _active


def activate(obs):
    """Install ``obs`` as the active context; returns the previous one."""
    global _active
    previous = _active
    _active = obs
    return previous


def deactivate(previous=None):
    """Restore ``previous`` (or the disabled default) as active."""
    global _active
    _active = previous if previous is not None else _DISABLED


@contextmanager
def enabled(clock=time.perf_counter, sink=None):
    """``with obs.enabled() as ctx:`` — a scoped live context."""
    ctx = Observability(clock=clock, sink=sink)
    previous = activate(ctx)
    try:
        yield ctx
    finally:
        deactivate(previous)


def span(name, parent=None):
    """Open a span on the active context (module-level convenience)."""
    return _active.span(name, parent=parent)


def incr(name, key=None, n=1):
    """Bump a counter on the active context."""
    _active.incr(name, key=key, n=n)


def gauge(name, value):
    """Set a gauge on the active context."""
    _active.gauge(name, value)


def active_registry():
    """The active context's registry, or None when disabled.

    Components that report into the shared registry only when
    observability is on (e.g. the probe engine's ``probe_all``) use
    this to find it.
    """
    return _active.metrics


def ensure_enabled(clock=time.perf_counter, sink=None):
    """Activate a fresh enabled context iff the active one is disabled.

    Returns the active (now guaranteed enabled) context.  Long-running
    services (``repro serve``) call this at boot so ``/metrics`` is
    never silently empty; an already-active context — e.g. the one the
    CLI installs around every command — is left in place untouched.
    """
    if not _active.enabled:
        activate(Observability(clock=clock, sink=sink))
    return _active


# Imported last: telemetry builds on the context helpers above.
from repro.obs.telemetry import (  # noqa: E402
    ServiceTelemetry,
    parse_prometheus,
    render_prometheus,
)
