"""Named metrics: counters, gauges, histograms, and counter families.

A :class:`MetricsRegistry` is the single place a run's numbers live.
Every instrument is get-or-create by name, thread-safe, and cheap enough
to sit on the probe hot path (one lock acquisition per update).

Snapshots are *deterministic*: they contain only values that are a pure
function of the seed and config — counts, taxonomies, simulated-latency
buckets — never wall-clock readings (those belong to the tracer).  That
is what lets the probe engine's pool and its serial path produce
byte-identical metric snapshots, which tests and the run manifest rely
on.
"""

import threading
from collections import Counter as _TallyCounter


class Counter:
    """A monotonically increasing named count."""

    kind = "counter"

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n=1):
        with self._lock:
            self._value += n

    @property
    def value(self):
        return self._value

    def snapshot(self):
        return self._value


class Gauge:
    """A named value that can move both ways (last write wins)."""

    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value):
        with self._lock:
            self._value = value

    def add(self, delta):
        """Move the gauge by ``delta`` (in-flight style up/down counts)."""
        with self._lock:
            self._value += delta

    @property
    def value(self):
        return self._value

    def snapshot(self):
        return self._value


class Histogram:
    """Bucketed observations over ``((upper_bound, label), ...)``.

    An observation lands in the first bucket whose bound it is strictly
    below; the last bucket should use ``float("inf")`` as a catch-all.
    """

    kind = "histogram"

    def __init__(self, name, buckets):
        self.name = name
        self.buckets = tuple(buckets)
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._lock = threading.Lock()
        self._counts = _TallyCounter()

    def bucket_label(self, value):
        for bound, label in self.buckets:
            if value < bound:
                return label
        return self.buckets[-1][1]

    def observe(self, value, n=1):
        label = self.bucket_label(value)
        with self._lock:
            self._counts[label] += n

    @property
    def counts(self):
        """A Counter copy of ``label -> observation count``."""
        with self._lock:
            return _TallyCounter(self._counts)

    @property
    def total(self):
        with self._lock:
            return sum(self._counts.values())

    def snapshot(self):
        with self._lock:
            return dict(sorted(self._counts.items()))


class CounterFamily:
    """A set of counters keyed by label (an outcome taxonomy)."""

    kind = "family"

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self._counts = _TallyCounter()

    def inc(self, key, n=1):
        with self._lock:
            self._counts[str(key)] += n

    def get(self, key):
        with self._lock:
            return self._counts[str(key)]

    def snapshot(self):
        with self._lock:
            return dict(sorted(self._counts.items()))


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Re-requesting a name returns the existing instrument; requesting it
    as a different kind raises, which catches name collisions early.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments = {}

    def _get(self, name, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {kind}")
            return instrument

    def counter(self, name):
        return self._get(name, "counter", lambda: Counter(name))

    def gauge(self, name):
        return self._get(name, "gauge", lambda: Gauge(name))

    def histogram(self, name, buckets):
        return self._get(name, "histogram",
                         lambda: Histogram(name, buckets))

    def family(self, name):
        return self._get(name, "family", lambda: CounterFamily(name))

    def __len__(self):
        with self._lock:
            return len(self._instruments)

    def snapshot(self):
        """All instruments as one sorted, JSON-ready nested dict."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        kinds = {"counter": "counters", "gauge": "gauges",
                 "histogram": "histograms", "family": "families"}
        out = {group: {} for group in kinds.values()}
        for name, instrument in instruments:
            out[kinds[instrument.kind]][name] = instrument.snapshot()
        return out


def flatten_snapshot(snapshot):
    """``snapshot()`` flattened to sorted ``(name, value)`` rows.

    Family and histogram members render as ``name{key}`` — the shape the
    CLI metric table and ``trace-summary`` print.
    """
    rows = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append((name, value))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append((name, value))
    for group in ("families", "histograms"):
        for name, members in snapshot.get(group, {}).items():
            for key, value in members.items():
                rows.append((f"{name}{{{key}}}", value))
    return sorted(rows)
