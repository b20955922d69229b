"""The capture as a time-ordered record stream.

The paper's dataset is a 16-month crowdsourced ClientHello capture; the
batch pipeline materializes it all at once and every analysis re-reads
it from scratch.  :class:`TimelineStream` re-presents the same records
as an *ordered stream*: records sorted by capture timestamp (ties keep
the generator's deterministic order, so the stream is a pure function of
the :class:`~repro.config.StudyConfig`), chunked into fixed time windows
spanning ``CAPTURE_START``..``CAPTURE_END``.  The
:class:`~repro.ingest.ingester.Ingester` folds the stream window by
window into a growing dataset and checkpoints between windows — which
is what makes a killed ingester resumable.

Every window in the span is emitted, including empty ones, so window
indexes are a pure function of the clock and compaction never depends on
traffic actually arriving.
"""

from dataclasses import dataclass, field

from repro.inspector.timeline import CAPTURE_END, CAPTURE_START, days

#: default window width: four weeks of capture time.
DEFAULT_WINDOW_SECONDS = days(28)


@dataclass(frozen=True)
class Window:
    """One time window of the capture stream."""

    index: int
    start: int           # inclusive, POSIX seconds
    end: int             # exclusive
    records: tuple = field(default_factory=tuple)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class TimelineStream:
    """ClientHello records in capture-time order, chunked into windows.

    Args:
        records: any iterable of
            :class:`~repro.inspector.model.ClientHelloRecord`.
        window_seconds: window width; the stream spans ``start``..``end``
            in fixed steps (the last window absorbs the remainder).
        start / end: capture span bounds (defaults: the paper's
            ``CAPTURE_START`` / ``CAPTURE_END``).  Records outside the
            span are clamped into the first/last window rather than
            dropped — the stream must conserve records for the ingested
            dataset to equal the study's.
    """

    def __init__(self, records, window_seconds=DEFAULT_WINDOW_SECONDS,
                 start=CAPTURE_START, end=CAPTURE_END):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if end <= start:
            raise ValueError("capture span must be non-empty")
        #: stable sort: equal timestamps keep generator order, so the
        #: stream is deterministic for a given config.
        self.records = sorted(records, key=lambda r: r.timestamp)
        self.window_seconds = int(window_seconds)
        self.start = int(start)
        self.end = int(end)

    @classmethod
    def from_study(cls, study, window_seconds=DEFAULT_WINDOW_SECONDS):
        """The stream over a study's capture."""
        return cls(study.dataset.records, window_seconds=window_seconds)

    @property
    def window_count(self):
        span = self.end - self.start
        return max(1, -(-span // self.window_seconds))

    def window_index(self, timestamp):
        """The window an event at ``timestamp`` lands in (clamped)."""
        raw = (int(timestamp) - self.start) // self.window_seconds
        return min(max(raw, 0), self.window_count - 1)

    def window_bounds(self, index):
        """``(start, end)`` of window ``index`` (last absorbs remainder)."""
        start = self.start + index * self.window_seconds
        if index >= self.window_count - 1:
            return start, self.end
        return start, start + self.window_seconds

    def windows(self, after=-1):
        """Yield every :class:`Window` with ``index > after``, in order.

        ``after`` is the resume cursor: an ingester that compacted
        through window *n* re-enters the stream with ``after=n`` and
        sees only the windows it has not absorbed yet.
        """
        count = self.window_count
        buckets = [[] for _ in range(count)]
        for record in self.records:
            buckets[self.window_index(record.timestamp)].append(record)
        for index in range(max(after + 1, 0), count):
            start, end = self.window_bounds(index)
            yield Window(index=index, start=start, end=end,
                         records=tuple(buckets[index]))

    def __iter__(self):
        return self.windows()

    def __len__(self):
        return self.window_count
