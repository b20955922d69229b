"""Self-tests of the benchmark harness (no workload is run).

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import catalog
import checks
import openloop
import report_cold
import serve_open
import spans
import sweep_cluster

HARNESS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HARNESS)
DECLARED = os.path.join(ROOT, "BENCHMARK.json")


def declared():
    with open(DECLARED, "r", encoding="utf-8") as handle:
        return json.load(handle)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# -- names and declarations ---------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = list(catalog.END_TO_END) + list(catalog.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names + list(catalog.WORKLOADS):
        assert catalog.NAME_RE.match(name), name


def test_benchmark_json_matches_the_catalog():
    bench = declared()
    assert [w["name"] for w in bench["workloads"]] == \
        list(catalog.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        catalog.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_node_spans_are_the_pipeline_registry():
    pipeline = pytest.importorskip("repro.core.pipeline")
    stages = [name for name in pipeline.analysis_stage_names()
              if name != "analysis.server.survey"]
    assert sorted(stages) == sorted(catalog.NODE_SPANS)


def test_result_refuses_a_missing_metric():
    with pytest.raises(ValueError):
        catalog.result({"setup_s": 1.0}, catalog.END_TO_END, 1, 0)


# -- every workload emits what it declares ------------------------------------


def _units(trace):
    bench = declared()
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def _fake_report_child(flip=False):
    digests = {"analysis.client.matching": "a" * 64,
               "artifact.report": "b" * 64}

    def fake(work_dir, name, seed, trace, deadline, setup_only=False):
        if setup_only:
            return {"setup_s": 0.4}
        out = {"setup_s": 0.5, "wait_s": 20.0, "cpu_s": 21.0,
               "peak_rss_mb": 110.0, "counts": {"inspector.records": 9},
               "digests": dict(digests),
               "checks": {"attempted": 49, "failed": 0, "failures": []}}
        if trace:
            out.update(layers={"inspector.world_s": 5.0},
                       unattributed_s=1.0, residual_s=0.0)
            if flip:
                out["digests"]["artifact.report"] = "c" * 64
        return out
    return fake


def _fake_serve_server(status=200):
    def fake(work_dir, name, seed, seconds, trace, deadline):
        step = {"rate": serve_open.NOMINAL, "sent": 4,
                "failed": int(status != 200), "p50_ms": 1.2,
                "p99_ms": 3.0,
                "late_p99_ms": 0.3, "achieved_rps": 200.0,
                "backlog_growing": False, "valid": True, "meets_slo": True,
                "window": [0.0, 100.0]}
        tally = checks.Tally()
        checks.check_response(tally, "doc", "/v1/doc", status, "d",
                              {"/v1/doc": "d"})
        load = {"steps": [step], "checks": tally.to_json()}
        served = {"setup_s": 15.0, "boot_s": 14.0, "cpu_s": 2.0,
                  "peak_rss_mb": 90.0}
        if trace:
            served.update(layers={"ingest.run_s": 1.0},
                          counts={"ingest.records": 9},
                          unattributed_s=0.5, residual_s=0.0,
                          handled=[["doc", 1.0, 0.0004]])
        return served, load
    return fake


def _fake_sweep_child(fail_unit=False):
    def fake(work_dir, name, seed, trace, deadline, setup_only=False):
        if setup_only:
            return {"setup_s": 0.3}
        tally = checks.Tally()
        cold = {"k1": {"ok": True, "config_digest": "x"},
                "k2": {"ok": True, "config_digest": "y"}}
        warm = dict(cold)
        if fail_unit:
            del warm["k2"]
        checks.check_units(tally, cold, [warm], ["k1", "k2"])
        out = {"setup_s": 0.3, "wait_s": 7.0, "sweep_s": 38.0,
               "cpu_s": 12.0, "peak_rss_mb": 130.0,
               "failures": [], "checks": tally.to_json()}
        if trace:
            out.update(layers={"sweep.unit_s": 40.0,
                               "fabric.overhead_s": 4.0},
                       untraced_warm_s=[6.5, 6.6], traced_wall_s=44.0)
        return out
    return fake


@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_each_declared_metric(monkeypatch, trace,
                                                   tmp_path):
    monkeypatch.setattr(report_cold, "_run_child", _fake_report_child())
    monkeypatch.setattr(serve_open, "_one_server", _fake_serve_server())
    monkeypatch.setattr(sweep_cluster, "_run_child", _fake_sweep_child())
    units = _units(trace)
    for module in (report_cold, serve_open, sweep_cluster):
        metrics, tally, ok, _notes = module.run(2023, 10, trace,
                                                str(tmp_path), 1e12)
        assert set(metrics) == set(units), module.__name__
        payload = catalog.result(metrics, units, tally.attempted,
                                 tally.failed, extra_ok=ok)
        assert payload["correct"], module.__name__
        for name, unit in units.items():
            assert payload["metrics"][name]["unit"] == unit


# -- output checks feed error_rate --------------------------------------------


def test_flipped_digest_raises_error_rate(monkeypatch, tmp_path):
    monkeypatch.setattr(report_cold, "_run_child",
                        _fake_report_child(flip=True))
    _metrics, tally, _ok, _notes = report_cold.run(7, 10, True,
                                                   str(tmp_path), 1e12)
    assert tally.failed == 1 and tally.error_rate > 0


class _Status500(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (http.server API)
        self.send_response(500)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format, *args):
        pass


def test_http_500_raises_error_rate(monkeypatch, tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Status500)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        status, _body = serve_open.http_get(server.server_address[1],
                                            "/v1/doc")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert status == 500
    monkeypatch.setattr(serve_open, "_one_server",
                        _fake_serve_server(status=status))
    _metrics, tally, _ok, _notes = serve_open.run(7, 10, False,
                                                  str(tmp_path), 1e12)
    assert tally.failed == 1 and tally.error_rate > 0


def test_changed_body_and_volatile_route():
    tally = checks.Tally()
    expected = {"/v1/doc": "good"}
    checks.check_response(tally, "doc", "/v1/doc", 200, "bad", expected)
    checks.check_response(tally, "healthz", "/healthz", 200, "any",
                          expected)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_failed_unit_raises_error_rate(monkeypatch, tmp_path):
    monkeypatch.setattr(sweep_cluster, "_run_child",
                        _fake_sweep_child(fail_unit=True))
    _metrics, tally, _ok, _notes = sweep_cluster.run(7, 10, False,
                                                     str(tmp_path), 1e12)
    assert tally.failed == 1 and tally.error_rate > 0


def test_changed_config_digest_fails_the_warm_unit():
    tally = checks.Tally()
    checks.check_units(tally, {"k": {"ok": True, "config_digest": "a"}},
                       [{"k": {"ok": True, "config_digest": "b"}}], ["k"])
    assert (tally.attempted, tally.failed) == (2, 1)


# -- attribution --------------------------------------------------------------


def test_self_time_is_span_minus_covered_children():
    clock = FakeClock()
    log = spans.SpanLog(clock=clock)
    layer = {"A": "a_s", "B": "b_s", "C": "c_s"}.get
    clock.now = 1.0
    with log.span("A"):
        clock.now = 2.0
        with log.span("B"):
            clock.now = 3.0
        with log.span("T"):      # transparent: no layer of its own
            clock.now = 4.0
            with log.span("B"):
                clock.now = 4.5
        clock.now = 5.0
    clock.now = 6.0
    with log.span("C"):
        clock.now = 8.0
    selves, unattributed, residual = spans.attribute(log.spans, layer,
                                                     (0.0, 10.0))
    assert selves == {"a_s": 2.5, "b_s": 1.5, "c_s": 2.0}
    assert unattributed == 4.0
    assert residual == 0.0 and spans.adds_up(residual, 10.0)


def test_overlapping_layer_spans_leave_a_residual():
    layer = {"A": "a_s", "B": "b_s"}.get
    _selves, _unattributed, residual = spans.attribute(
        [("A", 0.0, 4.0), ("B", 3.0, 6.0)], layer, (0.0, 10.0))
    assert not spans.adds_up(residual, 10.0)


def test_wrap_build_records_only_the_first_build():
    clock = FakeClock()
    log = spans.SpanLog(clock=clock)

    class Lazy:
        def __init__(self):
            self._thing = None

        @property
        def thing(self):
            if self._thing is None:
                clock.now += 2.0
                self._thing = "built"
            return self._thing

    log.wrap_build(Lazy, "thing", "Lazy.thing")
    lazy = Lazy()
    assert lazy.thing == "built" and lazy.thing == "built"
    assert log.spans == [("Lazy.thing", 0.0, 2.0)]


# -- the open-loop generator -------------------------------------------------


def test_stalled_request_charges_its_wait_to_requests_behind_it():
    clock = FakeClock()
    service = [0.050, 0.001, 0.001, 0.001]   # request 0 stalls 50 ms

    def send(index):
        clock.now += service[index]
        return True
    loop = openloop.OpenLoop([0.0, 0.010, 0.020, 0.030], send,
                             clock=clock, sleep=clock.sleep)
    loop.start = 0.0
    loop.sender()                              # one sender, inline
    waits = openloop.latencies_ms(loop.records)
    assert waits == pytest.approx([50.0, 41.0, 32.0, 23.0])
    # The generator itself was never late: the delay is the server's.
    assert all(record["late"] == 0.0 for record in loop.records)


def test_step_where_the_generator_fell_behind_is_invalid():
    records = [{"due": i * 0.01, "sent": i * 0.01 + 0.02,
                "done": i * 0.01 + 0.021, "ok": True, "late": 0.02}
               for i in range(100)]
    step = openloop.summarize(records, 100)
    assert not step["valid"]
    assert openloop.max_qps([step]) == 0


def test_ladder_fills_the_measured_seconds():
    counts = serve_open.steps_for(10)
    assert sum(count / rate for rate, count in counts.items()) == \
        pytest.approx(10, abs=0.01)
    assert min(counts.values()) >= 1000   # p99 with ten samples beyond


def test_failed_request_misses_the_latency_objective():
    records = [{"due": i * 0.01, "sent": i * 0.01, "done": i * 0.01 + 0.001,
                "ok": i != 0, "late": 0.0} for i in range(50)]
    step = openloop.summarize(records, 100)
    assert step["failed"] == 1 and not step["meets_slo"]


# -- contract -----------------------------------------------------------------


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(DECLARED, tmp_path / "BENCHMARK.json")
    shutil.copytree(HARNESS, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".state",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-cold",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
