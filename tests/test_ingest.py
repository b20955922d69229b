"""Tests for the streaming ingest path (repro.ingest)."""

import pytest

from repro.config import StudyConfig
from repro.ingest import (ANALYSIS_NAMES, DEFAULT_WINDOW_SECONDS,
                          Ingester, TimelineStream)
from repro.ingest.snapshots import served_snapshots
from repro.inspector.timeline import CAPTURE_END, CAPTURE_START, days
from repro.store.artifact import ArtifactStore
from repro.verify.canonical import canonicalize, digest

from .conftest import make_record


def snap_digest(payload):
    return digest(canonicalize(payload))


class TestTimelineStream:
    def test_records_time_ordered(self, study):
        stream = TimelineStream.from_study(study)
        stamps = [record.timestamp for record in stream.records]
        assert stamps == sorted(stamps)
        assert len(stream.records) == len(study.dataset.records)

    def test_windows_cover_capture_span(self, study):
        stream = TimelineStream.from_study(study)
        windows = list(stream.windows())
        assert windows[0].start == CAPTURE_START
        assert windows[-1].end == CAPTURE_END
        for before, after in zip(windows, windows[1:]):
            assert after.start == before.end
            assert after.index == before.index + 1
        assert sum(len(w) for w in windows) == len(stream.records)

    def test_stream_deterministic_per_config(self, study):
        one = TimelineStream.from_study(study)
        two = TimelineStream.from_study(study)
        assert [r.device_id for r in one.records] == \
            [r.device_id for r in two.records]

    def test_empty_windows_emitted(self):
        records = [make_record(timestamp=CAPTURE_START + 10)]
        stream = TimelineStream(records, window_seconds=days(28))
        windows = list(stream.windows())
        assert len(windows) == stream.window_count
        assert len(windows[0]) == 1
        assert all(len(w) == 0 for w in windows[1:])

    def test_out_of_span_records_clamped(self):
        records = [make_record(timestamp=CAPTURE_START - 999),
                   make_record(timestamp=CAPTURE_END + 999)]
        stream = TimelineStream(records)
        windows = list(stream.windows())
        assert len(windows[0]) == 1
        assert len(windows[-1]) == 1

    def test_resume_cursor_skips_absorbed_windows(self, study):
        stream = TimelineStream.from_study(study)
        tail = list(stream.windows(after=4))
        assert tail[0].index == 5
        assert len(tail) == stream.window_count - 5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimelineStream([], window_seconds=0)
        with pytest.raises(ValueError):
            TimelineStream([], start=10, end=10)


class TestIncrementalAnalyses:
    def test_streaming_equals_batch_node_for_node(self, study):
        ingester = Ingester(study).run()
        batch = served_snapshots(study, study.dataset)
        streaming = ingester.snapshots()
        assert tuple(streaming) == ANALYSIS_NAMES
        for name in ANALYSIS_NAMES:
            assert snap_digest(streaming[name]) == \
                snap_digest(batch[name]), name

    def test_window_width_does_not_change_final_state(self, study):
        assert DEFAULT_WINDOW_SECONDS == days(28)
        default = Ingester(study).run().snapshots()
        for width in (days(7), days(60), days(120)):
            snapshots = Ingester(study, window_seconds=width).run() \
                .snapshots()
            for name in ANALYSIS_NAMES:
                assert snap_digest(snapshots[name]) == \
                    snap_digest(default[name]), (width, name)


class TestIngesterResume:
    def test_resume_after_kill_matches_uninterrupted(self, study,
                                                     tmp_path):
        store = ArtifactStore(tmp_path)
        killed = Ingester(study, store=store, compact_every=4)
        killed.run(stop_after_windows=6)
        assert not killed.finished
        # the simulated kill loses the windows after the last compact
        assert killed.last_compacted == 3
        resumed = Ingester(study, store=store, compact_every=4).run()
        assert resumed.resumed
        assert resumed.finished
        uninterrupted = Ingester(study).run()
        for name in ANALYSIS_NAMES:
            assert snap_digest(resumed.snapshots()[name]) == \
                snap_digest(uninterrupted.snapshots()[name]), name
        assert resumed.records_ingested == \
            uninterrupted.records_ingested

    def test_finished_ingester_compacts_tail(self, study, tmp_path):
        store = ArtifactStore(tmp_path)
        ingester = Ingester(study, store=store, compact_every=4).run()
        assert ingester.finished
        assert ingester.last_compacted == \
            ingester.stream.window_count - 1

    def test_resume_from_finished_checkpoint_is_noop(self, study,
                                                     tmp_path):
        store = ArtifactStore(tmp_path)
        first = Ingester(study, store=store).run()
        again = Ingester(study, store=store).run()
        assert again.resumed and again.finished
        for name in ANALYSIS_NAMES:
            assert snap_digest(again.snapshots()[name]) == \
                snap_digest(first.snapshots()[name]), name

    def test_stale_checkpoint_layout_starts_cold(self, study, tmp_path):
        """A per-analysis checkpoint under the old stage name is ignored."""
        store = ArtifactStore(tmp_path)
        windows = TimelineStream.from_study(study).window_count
        store.put(study.config, "ingest.checkpoint", {
            "window_index": windows - 1,
            "records_ingested": len(study.dataset.records),
            "states": {"fingerprint_index": {"index": {}},
                       "doc": {"vendors_by_fp": {}},
                       "match_rate": {"fingerprints": set()},
                       "issuer_shares": {"seen": set()}}})
        ingester = Ingester(study, store=store).run()
        assert not ingester.resumed
        assert ingester.finished
        assert ingester.records_ingested == len(study.dataset.records)
        batch = served_snapshots(study, study.dataset)
        for name, snapshot in ingester.snapshots().items():
            assert snap_digest(snapshot) == snap_digest(batch[name]), name

    def test_no_store_still_runs(self, study):
        ingester = Ingester(study, store=None).run()
        assert ingester.finished
        assert ingester.last_compacted == -1

    def test_empty_window_compaction(self, study, tmp_path):
        """Compaction cadence holds over windows with no traffic."""
        from repro.inspector.dataset import InspectorDataset
        from repro.study import Study
        sparse = Study(StudyConfig())
        sparse._dataset = InspectorDataset(
            [make_record(timestamp=CAPTURE_START + 5)])
        sparse._certificates = study.certificates
        store = ArtifactStore(tmp_path)
        ingester = Ingester(sparse, store=store, compact_every=2).run()
        assert ingester.finished
        assert ingester.records_ingested == 1
        assert ingester.last_compacted == \
            ingester.stream.window_count - 1

    def test_status_payload(self, study):
        status = Ingester(study).run().status()
        assert status["finished"] is True
        assert status["windows_ingested"] == status["windows_total"]
        assert status["records_ingested"] == \
            len(study.dataset.records)
