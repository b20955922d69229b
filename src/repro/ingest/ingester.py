"""The ingester: grow a dataset from the stream, window by window.

An :class:`Ingester` owns a :class:`~repro.ingest.stream.TimelineStream`
and one private :class:`~repro.inspector.dataset.InspectorDataset` that
starts empty; each window's records are folded into it with
:meth:`~repro.inspector.dataset.InspectorDataset.extend`, the same fold
that builds the study's dataset in one call.  :meth:`Ingester.snapshots`
runs the served analyses (:mod:`repro.ingest.snapshots`) over the grown
dataset, so once the stream is absorbed every served number equals the
batch report's by construction.

Every ``compact_every`` windows (and at end-of-stream) the ingester
*compacts*: the dataset and the window cursor are checkpointed into the
study's :class:`~repro.store.artifact.ArtifactStore` under the
``ingest.dataset`` stage, keyed — like every artifact — by the config's
artifact digest and the package version.  A restarted ingester finds
the checkpoint, restores the dataset, and re-enters the stream *after*
the last compacted window; records already absorbed are never
replayed, so a killed-and-resumed ingester ends with the same dataset
as an uninterrupted one.

Observability: ``ingest.records`` / ``ingest.windows`` /
``ingest.compactions`` counters, an ``ingest.window`` span per window,
and three live lag gauges — ``ingest.lag_windows`` (windows not yet
absorbed), ``ingest.last_checkpoint_age`` (windows absorbed since the
last compaction, i.e. the work a kill right now would lose), and
``ingest.records_behind`` (records not yet absorbed) — all through
:mod:`repro.obs` (no-ops unless a context is active).  The gauges are
refreshed at construction, on every window, on every compaction, and on
resume, so a scrape of ``/metrics`` always sees the current lag.
"""

from repro import obs
from repro.ingest.snapshots import served_snapshots
from repro.ingest.stream import DEFAULT_WINDOW_SECONDS, TimelineStream
from repro.inspector.dataset import InspectorDataset
from repro.store.artifact import MISS

#: artifact-store stage name of the compacted ingest state.  Store keys
#: do not cover the checkpoint's layout (the pickled dataset's indexes
#: included), so a layout change takes a new name: earlier layouts, such
#: as the per-analysis states under ``ingest.checkpoint``, are then never
#: read and a restarted ingester starts cold.
CHECKPOINT_STAGE = "ingest.dataset"


class Ingester:
    """Stream a study's capture into a growing dataset.

    Args:
        study: the :class:`~repro.study.Study` whose capture to ingest
            (also supplies the corpus / certificates the analyses need).
        window_seconds: stream window width.
        store: optional :class:`~repro.store.artifact.ArtifactStore`
            for checkpoint/compaction; defaults to the study's attached
            store.  With no store the ingester still runs, it just
            cannot resume.
        compact_every: windows between compactions.
    """

    def __init__(self, study, window_seconds=DEFAULT_WINDOW_SECONDS,
                 store=None, compact_every=4):
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.study = study
        self.config = study.config
        self.store = store if store is not None \
            else getattr(study, "store", None)
        self.compact_every = compact_every
        self.stream = TimelineStream.from_study(
            study, window_seconds=window_seconds)
        self._dataset = InspectorDataset(())
        #: index of the last window absorbed (-1: nothing yet).
        self.last_window = -1
        #: index of the last window covered by a store checkpoint.
        self.last_compacted = -1
        self.resumed = False
        self._update_lag_gauges()

    def _update_lag_gauges(self):
        """Refresh the ingest lag gauges from the stream cursor."""
        obs.gauge("ingest.lag_windows",
                  self.stream.window_count - (self.last_window + 1))
        obs.gauge("ingest.last_checkpoint_age",
                  self.last_window - self.last_compacted)
        obs.gauge("ingest.records_behind",
                  len(self.stream.records) - self.records_ingested)

    # -- checkpointing --------------------------------------------------------

    def _load_checkpoint(self):
        if self.store is None:
            return None
        state = self.store.get(self.config, CHECKPOINT_STAGE)
        return None if state is MISS else state

    def try_resume(self):
        """Restore the last compacted state, if the store has one.

        Returns the resumed window cursor (-1 when starting cold).
        """
        state = self._load_checkpoint()
        if state is None:
            return -1
        self._dataset = state["dataset"]
        self.last_window = state["window_index"]
        self.last_compacted = state["window_index"]
        self.resumed = True
        obs.incr("ingest.resumes")
        self._update_lag_gauges()
        return self.last_window

    def compact(self):
        """Checkpoint the dataset and cursor into the artifact store."""
        if self.store is None:
            return None
        state = {
            "window_index": self.last_window,
            "dataset": self._dataset,
        }
        path = self.store.put(self.config, CHECKPOINT_STAGE, state)
        self.last_compacted = self.last_window
        obs.incr("ingest.compactions")
        self._update_lag_gauges()
        return path

    # -- ingestion ------------------------------------------------------------

    def ingest_window(self, window):
        """Absorb one stream window into the dataset."""
        with obs.span("ingest.window") as span:
            self._dataset.extend(window)
            self.last_window = window.index
            span.incr("records", len(window))
        obs.incr("ingest.windows")
        obs.incr("ingest.records", n=len(window))
        self._update_lag_gauges()

    def run(self, resume=True, stop_after_windows=None):
        """Ingest the stream (from the last checkpoint when resuming).

        ``stop_after_windows`` bounds how many windows this call
        absorbs — the seam the kill/resume tests (and a long-running
        service's incremental ticks) use.  Compaction happens on its
        cadence and at end-of-stream, *not* on an early stop: a killed
        ingester loses at most ``compact_every`` windows of work, and
        the resume path replays exactly those.  Returns ``self``.
        """
        with obs.span("ingest.run"):
            if resume and not self.resumed and self.last_window < 0:
                self.try_resume()
            absorbed = 0
            for window in self.stream.windows(after=self.last_window):
                self.ingest_window(window)
                absorbed += 1
                if self.last_window - self.last_compacted >= \
                        self.compact_every:
                    self.compact()
                if stop_after_windows is not None \
                        and absorbed >= stop_after_windows:
                    break
            if self.finished and self.last_window > self.last_compacted:
                self.compact()
        return self

    @property
    def records_ingested(self):
        return len(self._dataset)

    @property
    def finished(self):
        return self.last_window >= self.stream.window_count - 1

    def snapshots(self):
        """name → served payload over the records absorbed so far."""
        return served_snapshots(self.study, self._dataset)

    def status(self):
        """The ingester's progress summary (the ``/healthz`` payload)."""
        return {
            "seed": self.config.seed,
            "windows_total": self.stream.window_count,
            "windows_ingested": self.last_window + 1,
            "last_compacted_window": self.last_compacted,
            "records_ingested": self.records_ingested,
            "resumed": self.resumed,
            "finished": self.finished,
        }
