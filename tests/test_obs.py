"""Tests for the ``repro.obs`` observability subsystem.

Covers span nesting and thread-safety, metric snapshot determinism
across probe worker counts, run-manifest round-trips, per-run probe
stats beside the shared registry, and the CLI
``--trace``/``--metrics``/``trace-summary`` surface.
"""

import json
import threading
from dataclasses import replace

import pytest

from repro import obs
from repro.cli import main
from repro.config import StudyConfig
from repro.obs.manifest import RunManifest, manifest_path_for
from repro.obs.metrics import MetricsRegistry, flatten_snapshot
from repro.obs.sink import JsonlSink, NullSink, read_events
from repro.obs.summary import render_summary, span_rows
from repro.obs.tracer import NULL_SPAN, Stopwatch, Tracer
from repro.probing.engine import ProbeEngine


class FakeClock:
    """A deterministic clock for exact span durations."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTracer:
    def test_nesting_and_deterministic_durations(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(2.0)
            clock.advance(0.5)
        assert outer.duration == 3.5
        assert inner.duration == 2.0
        assert inner.parent is outer
        assert inner.depth == 1
        assert outer.self_seconds == 1.5
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert tracer.stage_timings() == {"inner": 2.0, "outer": 3.5}

    def test_siblings_and_find(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("parent"):
            with tracer.span("step"):
                pass
            with tracer.span("step"):
                pass
        assert len(tracer.find("step")) == 2
        assert all(s.parent.name == "parent" for s in tracer.find("step"))

    def test_live_duration_while_open(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.span("open")
        clock.advance(4.0)
        assert span.duration == 4.0  # still open: live reading
        assert span.ended is None

    def test_span_counters(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s") as span:
            span.incr("items", 3).incr("items", 2).incr("errors")
        assert span.counters == {"items": 5, "errors": 1}
        assert span.to_event()["counters"] == {"errors": 1, "items": 5}

    def test_sink_receives_events_and_error_flag(self):
        sink_events = []

        class ListSink:
            def emit(self, event):
                sink_events.append(event)

        tracer = Tracer(clock=FakeClock(), sink=ListSink())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        assert sink_events[0]["name"] == "boom"
        assert sink_events[0]["error"] == "RuntimeError"
        with tracer.span("fine"):
            pass
        assert "error" not in sink_events[1]

    def test_worker_spans_nest_under_home_thread_span(self):
        tracer = Tracer()
        seen = []

        def worker(i):
            with tracer.span(f"worker.{i}") as span:
                seen.append(span)

        with tracer.span("batch") as batch:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(seen) == 8
        assert all(span.parent is batch for span in seen)
        assert batch.ended is not None

    def test_explicit_parent_across_threads(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            results = []

            def worker():
                with tracer.span("child", parent=root) as span:
                    with tracer.span("grandchild") as inner:
                        results.append((span, inner))

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        child, grandchild = results[0]
        assert child.parent is root
        assert grandchild.parent is child
        assert grandchild.depth == 2

    def test_concurrent_span_counter_is_exact(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            threads = [threading.Thread(
                target=lambda: [span.incr("n") for _ in range(500)])
                for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert span.counters["n"] == 4000

    def test_stopwatch_live_then_frozen(self):
        clock = FakeClock()
        watch = Stopwatch(clock=clock)
        clock.advance(5.0)
        assert watch.duration == 5.0
        watch.stop()
        clock.advance(3.0)
        assert watch.duration == 5.0


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.family("f") is registry.family("f")
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_histogram_buckets_strict_upper_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "h", ((1.0, "<1"), (2.0, "<2"), (float("inf"), ">=2")))
        for value in (0.0, 0.999, 1.0, 1.5, 2.0, 99.0):
            hist.observe(value)
        assert hist.snapshot() == {"<1": 2, "<2": 2, ">=2": 2}
        assert hist.total == 6

    def test_histogram_boundary_value_lands_in_next_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "h", ((1.0, "<1"), (2.0, "<2"), (float("inf"), ">=2")))
        hist.observe(1.0)  # exactly on a bound: strictly-below rule
        assert hist.snapshot() == {"<2": 1}
        hist.observe(0.9999999999)
        assert hist.snapshot() == {"<1": 1, "<2": 1}

    def test_histogram_overflow_without_inf_catchall(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", ((1.0, "<1"), (2.0, "<2")))
        hist.observe(99.0)  # beyond every bound: last label absorbs it
        hist.observe(-5.0)  # below every bound: first bucket
        assert hist.snapshot() == {"<1": 1, "<2": 1}

    def test_histogram_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry().histogram("h", ())

    def test_snapshot_sorted_and_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(2)
        registry.counter("a").inc()
        registry.gauge("g").set(1.5)
        registry.family("fam").inc("beta")
        registry.family("fam").inc("alpha", 3)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["families"]["fam"] == {"alpha": 3, "beta": 1}
        assert json.loads(json.dumps(snap)) == snap

    def test_flatten_snapshot_rows(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.family("f").inc("k", 2)
        rows = flatten_snapshot(registry.snapshot())
        assert ("c", 7) in rows
        assert ("f{k}", 2) in rows

    def test_flatten_snapshot_nested_families_sorted(self):
        registry = MetricsRegistry()
        registry.family("z.family").inc("beta", 2)
        registry.family("z.family").inc("alpha")
        registry.family("a.family").inc("k", 5)
        registry.histogram(
            "m.hist", ((1.0, "<1"), (float("inf"), ">=1"))).observe(3.0)
        registry.counter("b.counter").inc(9)
        registry.gauge("g.gauge").set(4)
        rows = flatten_snapshot(registry.snapshot())
        assert rows == [
            ("a.family{k}", 5),
            ("b.counter", 9),
            ("g.gauge", 4),
            ("m.hist{>=1}", 1),
            ("z.family{alpha}", 1),
            ("z.family{beta}", 2),
        ]

    def test_concurrent_updates_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        family = registry.family("f")

        def work():
            for _ in range(300):
                counter.inc()
                family.inc("k")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 2400
        assert family.get("k") == 2400


class TestObsContext:
    def test_disabled_by_default_and_noop(self):
        assert obs.current().enabled is False
        assert obs.active_registry() is None
        assert obs.span("anything") is NULL_SPAN
        obs.incr("anything")  # must not raise
        obs.gauge("anything", 1.0)
        with obs.span("x") as span:
            assert span.incr("k") is span

    def test_enabled_scopes_and_restores(self):
        with obs.enabled() as ctx:
            assert obs.current() is ctx
            assert obs.active_registry() is ctx.metrics
            obs.incr("hits")
            obs.incr("taxonomy", key="a")
            obs.gauge("level", 3)
        assert obs.current().enabled is False
        snap = ctx.metrics.snapshot()
        assert snap["counters"]["hits"] == 1
        assert snap["families"]["taxonomy"] == {"a": 1}
        assert snap["gauges"]["level"] == 3

    def test_close_flushes_metrics_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.enabled(sink=JsonlSink(path)) as ctx:
            with obs.span("stage"):
                obs.incr("n")
        ctx.close()
        events = read_events(path)
        assert events[0]["type"] == "span"
        assert events[-1] == {"type": "metrics",
                              "snapshot": ctx.metrics.snapshot()}


class TestProbeStatsView:
    def test_engine_joins_active_registry(self, network, study):
        snis = [s.fqdn for s in study.world.servers][:20]
        with obs.enabled() as ctx:
            dataset = ProbeEngine(network, jobs=2).probe_all(snis)
        snap = ctx.metrics.snapshot()
        assert snap["counters"]["probe.probes"] == len(snis) * 3
        assert snap["families"]["probe.outcomes"] == \
            dict(dataset.stats.outcomes)
        assert snap["histograms"]["probe.latency"] == \
            dict(dataset.stats.latency_buckets)
        probe_span = ctx.tracer.find("probe.all")[0]
        assert probe_span.counters["probes"] == len(snis) * 3
        assert dataset.stats.wall_seconds > 0

    def test_each_run_reports_its_own_stats(self, network, study):
        # Two runs under one active context: each dataset counts its
        # own probes, and the shared registry holds their sum.
        snis = [s.fqdn for s in study.world.servers]
        with obs.enabled() as ctx:
            first = ProbeEngine(network).probe_all(snis[:10])
            second = ProbeEngine(network, jobs=2).probe_all(snis[10:30])
        assert first.stats.probes == 30
        assert second.stats.probes == 60
        assert sum(first.stats.reachable_by_vantage.values()) + \
            sum(first.stats.unreachable_by_vantage.values()) == 30
        assert ctx.metrics.snapshot()["counters"]["probe.probes"] == 90


class TestSnapshotDeterminism:
    def test_jobs_do_not_change_metric_snapshot(self, network, study):
        snis = [s.fqdn for s in study.world.servers][:120]
        snapshots = []
        for jobs in (1, 4):
            with obs.enabled() as ctx:
                ProbeEngine(network, jobs=jobs).probe_all(snis)
            snapshots.append(ctx.metrics.snapshot())
        assert snapshots[0] == snapshots[1]
        assert json.dumps(snapshots[0], sort_keys=True) == \
            json.dumps(snapshots[1], sort_keys=True)
        assert snapshots[0]["counters"]["probe.probes"] == len(snis) * 3


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest(
            command="report", seed=7, config_digest="abc123",
            version="1.0.0", started_at=10.0, finished_at=12.5,
            stage_timings={"probe.all": 2.0}, metrics={"counters": {}},
            outputs=("study_report.md",))
        assert RunManifest.from_json(manifest.to_json()) == manifest
        path = tmp_path / "m.json"
        manifest.write(path)
        assert RunManifest.load(path) == manifest
        assert manifest.elapsed_seconds == 2.5

    def test_from_run_uses_config_digest_and_obs(self):
        config = StudyConfig(seed=5)
        with obs.enabled(clock=FakeClock()) as ctx:
            with obs.span("stage"):
                obs.incr("n")
            manifest = RunManifest.from_run("report", config, ctx)
        assert manifest.seed == 5
        assert manifest.config_digest == config.artifact_digest()
        assert "stage" in manifest.stage_timings
        assert manifest.metrics["counters"]["n"] == 1

    def test_config_digest_stable_and_sensitive(self):
        base = StudyConfig()
        assert base.artifact_digest() == \
            StudyConfig(seed=2023).artifact_digest()
        assert base.artifact_digest() != \
            replace(base, seed=7).artifact_digest()
        assert base.artifact_digest() != StudyConfig(
            trust_stores=("mozilla",)).artifact_digest()


class TestCLI:
    def test_report_trace_metrics_and_manifest(self, tmp_path, study,
                                               capsys):
        out = tmp_path / "report.md"
        trace = tmp_path / "trace.jsonl"
        assert main(["report", "-o", str(out), "--trace", str(trace),
                     "--metrics"]) == 0
        text = capsys.readouterr().out
        assert "metrics:" in text and "validate.status" in text

        events = read_events(trace)
        span_names = {e["name"] for e in events
                      if e.get("type") == "span"}
        # >= 1 span per pipeline analysis stage.
        for name in ("analysis.client.matching",
                     "analysis.client.semantics",
                     "analysis.server.issuers",
                     "analysis.server.geo",
                     "validate.chain",
                     "cli.report"):
            assert name in span_names
        assert sum(1 for n in span_names
                   if n.startswith("analysis.")) >= 20

        manifest = RunManifest.load(manifest_path_for(str(out)))
        assert manifest.command == "report"
        assert manifest.config_digest == \
            StudyConfig(seed=2023).artifact_digest()
        assert manifest.outputs == (str(out),)
        assert "validate.status" in manifest.metrics["families"]
        # The trace carries the same manifest as its final record.
        manifest_events = [e for e in events
                           if e.get("type") == "manifest"]
        assert manifest_events[-1]["manifest"]["config_digest"] == \
            manifest.config_digest

    def test_probe_manifest_matches_probe_config(self, tmp_path, study):
        out = tmp_path / "certs.jsonl"
        assert main(["probe", "-o", str(out), "--seed", "2023",
                     "--trust-stores", "apple"]) == 0
        manifest = RunManifest.load(manifest_path_for(str(out)))
        expected = StudyConfig(seed=2023, trust_stores=("apple",))
        assert manifest.config_digest == expected.artifact_digest()

    def test_trace_summary_renders(self, tmp_path, study, capsys):
        out = tmp_path / "report.md"
        trace = tmp_path / "trace.jsonl"
        assert main(["report", "-o", str(out),
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-summary", str(trace), "--top", "5"]) == 0
        text = capsys.readouterr().out
        assert "trace summary" in text
        assert "self-time" in text
        assert "manifest: command=report seed=2023" in text

    def test_trace_summary_missing_file(self, capsys):
        assert main(["trace-summary", "/nonexistent/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace-summary: ")
        assert len(err.strip().splitlines()) == 1

    def test_trace_summary_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["trace-summary", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "empty trace file" in err
        assert len(err.strip().splitlines()) == 1

    def test_trace_summary_corrupt_file(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"type": "span"}\nnot json at all\n',
                           encoding="utf-8")
        assert main(["trace-summary", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert "corrupt JSONL" in err
        assert f"{corrupt}:2" in err  # names the file and line

    def test_trace_summary_non_object_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('[1, 2, 3]\n', encoding="utf-8")
        assert main(["trace-summary", str(bad)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_obs_deactivated_after_command(self, tmp_path, study):
        out = tmp_path / "capture.jsonl"
        assert main(["generate", "-o", str(out)]) == 0
        assert obs.current().enabled is False


class TestSummaryRendering:
    def test_span_rows_self_time(self):
        events = [
            {"type": "span", "id": 0, "parent": None, "name": "outer",
             "depth": 0, "duration": 5.0},
            {"type": "span", "id": 1, "parent": 0, "name": "inner",
             "depth": 1, "duration": 3.0},
        ]
        rows = span_rows(events)
        by_name = {row["name"]: row for row in rows}
        assert by_name["outer"]["self"] == 2.0
        assert by_name["inner"]["self"] == 3.0
        assert rows[0]["name"] == "inner"  # sorted by self-time

    def test_render_summary_empty_and_error_spans(self):
        assert "spans: 0" in render_summary([])
        text = render_summary([
            {"type": "span", "id": 0, "parent": None, "name": "bad",
             "depth": 0, "duration": 1.0, "error": "RuntimeError"}])
        assert "bad (RuntimeError)" in text

    def test_null_sink_swallows(self):
        sink = NullSink()
        sink.emit({"type": "span"})
        sink.close()
