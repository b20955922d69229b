"""Tests for the distributed campaign fabric (``repro.fabric``).

Covers the lease protocol against an injected clock (grant order,
heartbeat extension, lazy expiry, work stealing, idempotent completion,
attempt exhaustion), the pure HTTP service surface (routing, metrics,
the blob endpoints), real coordinator + worker end-to-end runs over
localhost HTTP — including a dead worker whose lease expires and is
stolen — cross-backend campaign handoff through the shared ledger, and
the headline digest-equivalence contract: the cluster backend and the
verify-matrix cluster mode produce per-config digests byte-identical
to the serial reference path.
"""

import hashlib
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro import cli, obs
from repro.cli import main
from repro.config import StudyConfig
from repro.fabric import (DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS,
                          FabricCoordinator, FabricService,
                          FabricWorker, make_fabric_server,
                          worker_main)
from repro.fabric.protocol import LEASE_HOLD_BUCKETS_MS
from repro.fabric.worker import BLAS_THREAD_VARS
from repro.http import MAX_BODY_BYTES, HTTPError
from repro.store import ArtifactStore, blob_key_of, encode_entry
from repro.store.campaign import CampaignIndex
from repro.sweep import SweepRunner, expand_grid
from repro.verify.matrix import (EquivalenceMatrix, ExecutionMode,
                                 default_modes)


class FakeClock:
    """An injectable monotonic clock for deterministic lease expiry."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _specs(count):
    """Minimal stub unit specs (a ledger only needs ``key`` + extras)."""
    return [{"name": f"u{i}",
             "key": hashlib.sha256(f"unit-{i}".encode()).hexdigest(),
             "seed": i, "stage": "probe"}
            for i in range(count)]


def _coordinator(tmp_path, count=3, **kwargs):
    index = CampaignIndex.create(tmp_path / "campaign.json",
                                 _specs(count), "probe")
    return FabricCoordinator(index, **kwargs)


def _result_for(spec, marker="result"):
    return {"name": spec["name"], "key": spec["key"], "ok": True,
            "marker": marker, "scalars": {}, "issuer_shares": {},
            "invariants": {}, "wall_seconds": 0.0}


def _free_port():
    """A port that was just free — nothing listens on it afterwards."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestCoordinatorProtocol:
    def test_leases_follow_campaign_order(self, tmp_path):
        clock = FakeClock()
        spec = {"backend": "local", "dir": "/tmp/cache"}
        coordinator = _coordinator(tmp_path, count=3, store_spec=spec,
                                   clock=clock, lease_seconds=30.0)
        leases = [coordinator.lease(f"w{i}") for i in range(3)]
        assert [l["unit"]["name"] for l in leases] == ["u0", "u1", "u2"]
        assert all(l["attempt"] == 1 for l in leases)
        assert all(l["store"] == spec for l in leases)
        assert all(l["lease_seconds"] == 30.0 for l in leases)
        assert len({l["lease"] for l in leases}) == 3  # unique tokens
        # Everything is leased out but nothing finished: poll again.
        assert coordinator.lease("w3") == {"unit": None, "done": False}
        assert not coordinator.done()

    def test_heartbeat_extends_the_deadline(self, tmp_path):
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, count=1, clock=clock,
                                   lease_seconds=10.0)
        lease = coordinator.lease("w")
        clock.advance(8.0)
        assert coordinator.heartbeat(lease["lease"])["ok"]
        clock.advance(8.0)  # past the original deadline, not the new one
        assert coordinator.heartbeat(lease["lease"])["ok"]
        clock.advance(10.5)
        with pytest.raises(HTTPError) as err:
            coordinator.heartbeat(lease["lease"])
        assert err.value.status == 410
        assert "returned to the queue" in err.value.message

    def test_unknown_tokens_are_404(self, tmp_path):
        coordinator = _coordinator(tmp_path, count=1)
        for call in (lambda: coordinator.heartbeat("nope"),
                     lambda: coordinator.complete(
                         "nope", {"key": "k"}),
                     lambda: coordinator.fail("nope", "boom")):
            with pytest.raises(HTTPError) as err:
                call()
            assert err.value.status == 404

    def test_expired_lease_is_stolen_and_first_result_wins(self,
                                                           tmp_path):
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, count=1, clock=clock,
                                   lease_seconds=5.0)
        first = coordinator.lease("slow")
        clock.advance(6.0)  # the lease lapses; the unit is claimable
        second = coordinator.lease("fast")
        assert second["unit"]["key"] == first["unit"]["key"]
        assert second["attempt"] == 2  # a steal, not a fresh grant
        spec = second["unit"]
        done = coordinator.complete(second["lease"],
                                    _result_for(spec, marker="fast"))
        assert done == {"ok": True, "duplicate": False}
        # The dead worker finishes anyway; its late result is a no-op.
        late = coordinator.complete(first["lease"],
                                    _result_for(spec, marker="slow"))
        assert late == {"ok": True, "duplicate": True}
        recorded = coordinator.index.completed[spec["key"]]
        assert recorded["marker"] == "fast"
        assert coordinator.done()

    def test_late_result_from_expired_lease_still_lands(self, tmp_path):
        # Content-addressed results are interchangeable: if nobody stole
        # the unit yet, the expired lease's upload is accepted.
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, count=1, clock=clock,
                                   lease_seconds=5.0)
        lease = coordinator.lease("w")
        clock.advance(60.0)
        reply = coordinator.complete(lease["lease"],
                                     _result_for(lease["unit"]))
        assert reply == {"ok": True, "duplicate": False}
        assert coordinator.done()

    def test_complete_validates_the_result_payload(self, tmp_path):
        coordinator = _coordinator(tmp_path, count=2)
        lease = coordinator.lease("w")
        with pytest.raises(HTTPError) as err:
            coordinator.complete(lease["lease"], None)
        assert err.value.status == 400
        with pytest.raises(HTTPError) as err:
            coordinator.complete(lease["lease"], {"key": "wrong-unit"})
        assert err.value.status == 400
        assert "covers unit" in err.value.message

    @pytest.mark.parametrize("fields", [
        {"scalars": [1]},
        {"scalars": {"match_rate": "high"}},
        {"scalars": {"match_rate": 1e200}},
        {"issuer_shares": {"Acme": None}},
        {"invariants": []},
        {"invariants": {"checks": [{"name": "band", "ok": "yes"}]}}],
        ids=["scalars-list", "scalar-text", "scalar-huge", "share-null",
             "invariants-list", "check-ok-text"])
    def test_complete_rejects_results_the_aggregator_cannot_read(
            self, tmp_path, fields):
        coordinator = _coordinator(tmp_path, count=1)
        lease = coordinator.lease("w")
        bad = dict(_result_for(lease["unit"]), **fields)
        with pytest.raises(HTTPError) as err:
            coordinator.complete(lease["lease"], bad)
        assert err.value.status == 400
        assert "\n" not in err.value.message
        assert not coordinator.index.completed
        # Rejected, not recorded: a correct result still lands first.
        reply = coordinator.complete(lease["lease"],
                                     _result_for(lease["unit"]))
        assert reply == {"ok": True, "duplicate": False}

    def test_failures_retry_until_attempts_exhausted(self, tmp_path):
        coordinator = _coordinator(tmp_path, count=1, max_attempts=2)
        key = coordinator.index.units[0]["key"]
        first = coordinator.lease("w")
        reply = coordinator.fail(first["lease"], "boom 1")
        assert reply["attempts"] == 1 and not reply["exhausted"]
        assert coordinator.index.failed[key] == "boom 1"
        assert not coordinator.done()  # still re-leasable

        second = coordinator.lease("w")
        assert second["attempt"] == 2
        reply = coordinator.fail(second["lease"], "boom 2")
        assert reply["exhausted"]
        assert coordinator.lease("w") == {"unit": None, "done": True}
        assert coordinator.done()
        status = coordinator.status()
        assert status["exhausted"] == [key]
        # A resume clears the failure the moment the unit completes.
        assert coordinator.index.pending_units()[0]["key"] == key

    def test_status_reports_queue_and_lease_state(self, tmp_path):
        clock = FakeClock()
        coordinator = _coordinator(tmp_path, count=2, clock=clock,
                                   lease_seconds=30.0)
        lease = coordinator.lease("worker-a")
        clock.advance(5.0)
        status = coordinator.status()
        assert status["campaign_id"] == coordinator.index.campaign_id
        assert status["units"] == 2
        assert status["completed"] == 0
        assert status["pending"] == 1
        assert status["leased"] == [{"worker": "worker-a",
                                     "unit": lease["unit"]["key"],
                                     "expires_in": 25.0}]
        assert not status["done"]
        assert status["uptime_seconds"] == 5.0

    def test_lease_hold_histogram_buckets_cover_unit_durations(self):
        # Unit holds run seconds-to-minutes; the bucket grid must not
        # collapse every observation into +Inf.
        bounds = [bound for bound, _ in LEASE_HOLD_BUCKETS_MS]
        assert bounds == sorted(bounds)
        assert bounds[-1] == float("inf")
        assert any(bound >= 60_000 for bound in bounds[:-1])

    def test_completion_metrics_and_hold_histogram(self, tmp_path):
        clock = FakeClock()
        with obs.enabled() as ctx:
            coordinator = _coordinator(tmp_path, count=1, clock=clock,
                                       lease_seconds=60.0)
            lease = coordinator.lease("w")
            clock.advance(2.0)
            coordinator.complete(lease["lease"],
                                 _result_for(lease["unit"]))
            snapshot = ctx.metrics.snapshot()
        assert snapshot["counters"]["fabric.completed"] == 1
        assert snapshot["families"]["fabric.leases"] == {"w": 1}
        hold = snapshot["histograms"]["fabric.lease_hold_ms"]
        assert sum(hold.values()) == 1  # one completion observed


@pytest.fixture
def service(tmp_path):
    index = CampaignIndex.create(tmp_path / "campaign.json", _specs(1),
                                 "probe")
    blob_store = ArtifactStore(tmp_path / "blobs")
    return FabricService(FabricCoordinator(index),
                         blob_store=blob_store)


def _valid_blob():
    payload = pickle.dumps({"certs": [1, 2, 3]})
    blob = encode_entry("a" * 64, "certificates", "1.0.0", payload)
    return blob_key_of(blob), blob


class TestFabricService:
    """The pure ``handle()`` surface — no sockets involved."""

    def test_ping_and_status(self, service):
        status, payload = service.handle("GET", "/fabric/ping")
        assert status == 200 and payload["ok"]
        status, payload = service.handle("GET", "/fabric/status")
        assert status == 200 and payload["units"] == 1

    def test_lease_complete_round_trip(self, service):
        status, lease = service.handle(
            "POST", "/fabric/lease",
            body=json.dumps({"worker": "w"}).encode())
        assert status == 200 and lease["unit"]["name"] == "u0"
        status, reply = service.handle(
            "POST", "/fabric/complete",
            body=json.dumps({"lease": lease["lease"],
                             "result": _result_for(lease["unit"])
                             }).encode())
        assert status == 200 and reply == {"ok": True,
                                           "duplicate": False}

    def test_protocol_errors_surface_as_json(self, service):
        assert service.handle("GET", "/nope")[0] == 404
        assert service.handle("DELETE", "/fabric/status")[0] == 405
        status, payload = service.handle("POST", "/fabric/lease",
                                         body=b"not json")
        assert status == 400 and "JSON" in payload["error"]
        status, payload = service.handle("POST", "/fabric/heartbeat",
                                         body=b"{}")
        assert status == 400 and "lease token" in payload["error"]

    def test_metrics_formats(self, service):
        with obs.enabled():
            obs.incr("fabric.completed")
            status, payload = service.handle("GET", "/metrics", {})
            assert status == 200 and payload["enabled"]
            assert payload["metrics"]["counters"][
                "fabric.completed"] == 1
            status, prom = service.handle("GET", "/metrics",
                                          {"format": ["prom"]})
            assert status == 200
            assert b"repro_fabric_completed" in prom.data
        assert service.handle("GET", "/metrics",
                              {"format": ["xml"]})[0] == 400

    def test_blob_round_trip_and_rejection(self, service):
        key, blob = _valid_blob()
        status, _ = service.handle("GET", f"/blob/{key}")
        assert status == 404  # cold store
        status, payload = service.handle("PUT", f"/blob/{key}",
                                         body=blob)
        assert status == 200 and payload["key"] == key
        status, raw = service.handle("GET", f"/blob/{key}")
        assert status == 200 and raw.data == blob
        # The server re-derives the key: garbage and mismatches bounce.
        status, payload = service.handle("PUT", f"/blob/{'b' * 64}",
                                         body=blob)
        assert status == 400 and "rejected" in payload["error"]
        assert service.handle("PUT", f"/blob/{key}",
                              body=b"garbage")[0] == 400
        assert service.handle("GET", "/blob/short-key")[0] == 400
        status, stats = service.handle("GET", "/blob/stats")
        assert status == 200 and stats["entries"] == 1

    def test_blob_routes_need_a_store(self, tmp_path):
        index = CampaignIndex.create(tmp_path / "c.json", _specs(1),
                                     "probe")
        bare = FabricService(FabricCoordinator(index))
        assert bare.handle("GET", f"/blob/{'a' * 64}")[0] == 503


def _digest_runner(calls=None, lock=None, fail_once=None, block=None):
    """A stub unit runner whose digest is a pure function of the spec.

    Parity between backends then proves the *payloads* (unit spec in,
    result out) are identical across the local and fabric paths — the
    same contract the real ``run_unit`` digests enforce.
    """
    failed = set()

    def run(payload):
        unit = payload["unit"]
        if block is not None and unit["name"] in block:
            block[unit["name"]].wait(timeout=30)
        if fail_once is not None and unit["name"] == fail_once \
                and unit["name"] not in failed:
            failed.add(unit["name"])
            raise RuntimeError("injected unit failure")
        if calls is not None:
            with lock:
                calls.append(unit["name"])
        canonical = json.dumps(unit, sort_keys=True)
        return {"name": unit["name"], "key": unit["key"],
                "seed": unit.get("seed"), "ok": True,
                "config_digest": hashlib.sha256(
                    canonical.encode()).hexdigest(),
                "store": payload.get("store"),
                "scalars": {}, "issuer_shares": {}, "invariants": {},
                "wall_seconds": 0.0}
    return run


class _Fabric:
    """A live coordinator + HTTP server over one stub campaign."""

    def __init__(self, tmp_path, count=4, **kwargs):
        self.index = CampaignIndex.create(tmp_path / "campaign.json",
                                          _specs(count), "probe")
        self.coordinator = FabricCoordinator(self.index, **kwargs)
        self.server, self.service = make_fabric_server(self.coordinator)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def fabric(tmp_path):
    live = _Fabric(tmp_path)
    yield live
    live.close()


def _raw_post(url, content_length):
    """POST with a verbatim Content-Length header; ``(status, body)``."""
    return _raw(url, f"POST /fabric/lease HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Length: {content_length}\r\n\r\n")


def _raw(url, request):
    """Send one raw request; ``(status, body)`` read until EOF."""
    host, port = url[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request.encode("ascii"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), body


class TestHttpBoundary:
    @pytest.mark.parametrize("content_length, status", [
        ("abc", 400), ("-5", 400), ("1_0", 400),
        (str(MAX_BODY_BYTES + 1), 413),
        pytest.param("9" * 5000, 413, id="5000-digits")])
    def test_bad_content_length_is_one_line_json(self, fabric,
                                                 content_length, status):
        got, body = _raw_post(fabric.url, content_length)
        assert got == status
        payload = json.loads(body)
        assert set(payload) == {"error"}
        assert "\n" not in payload["error"]

    @pytest.mark.parametrize("request_text, status", [
        ("DELETE /fabric/status HTTP/1.1\r\nConnection: close\r\n\r\n",
         405),
        ("PATCH /fabric/status HTTP/1.1\r\n\r\n", 501),
        ("GARBAGE\r\n\r\n", 400),
        ("POST /fabric/lease HTTP/1.1\r\nTransfer-Encoding: chunked"
         "\r\nConnection: close\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 411),
        ("POST /fabric/lease HTTP/1.1\r\nContent-Length: 2\r\n"
         "Content-Length: 2\r\nConnection: close\r\n\r\n{}", 400)],
        ids=["delete", "patch", "garbage-line", "chunked",
             "repeated-length"])
    def test_rejected_request_is_one_line_json(self, fabric,
                                               request_text, status):
        got, body = _raw(fabric.url, request_text)
        assert got == status
        payload = json.loads(body)
        assert set(payload) == {"error"}
        assert "\n" not in payload["error"]

    def test_malformed_completion_is_one_line_json(self, fabric):
        client = FabricWorker(fabric.url)
        status, lease = client.post("/fabric/lease", {"worker": "w"})
        assert status == 200
        status, reply = client.post("/fabric/complete", {
            "lease": lease["lease"],
            "result": {"key": lease["unit"]["key"], "scalars": [1]}})
        assert status == 400
        assert set(reply) == {"error"}
        assert "\n" not in reply["error"]
        assert not fabric.index.completed


class TestObsScope:
    """Booting or draining the fabric leaves the process's obs context
    exactly as it found it."""

    def test_server_boot_leaves_obs_context_alone(self, tmp_path):
        obs.deactivate()
        before = obs.current()
        _Fabric(tmp_path, count=1).close()
        assert obs.current() is before

    def test_worker_drain_leaves_obs_context_alone(self, fabric):
        obs.deactivate()
        before = obs.current()
        FabricWorker(fabric.url, runner=_digest_runner(),
                     poll_seconds=0.01).run()
        assert len(fabric.index.completed) == 4
        assert obs.current() is before


class TestWorkersOverHTTP:
    def test_two_workers_drain_exactly_once_and_match_serial(
            self, fabric, tmp_path):
        lock = threading.Lock()
        calls = []
        workers = [FabricWorker(fabric.url, worker_id=f"w{i}",
                                runner=_digest_runner(calls, lock),
                                poll_seconds=0.01)
                   for i in range(2)]
        threads = [threading.Thread(target=worker.run)
                   for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # Exactly once: every unit executed once, none lost, none twice.
        assert sorted(calls) == [f"u{i}" for i in range(4)]
        assert len(fabric.index.completed) == 4
        assert not fabric.index.failed
        assert fabric.coordinator.done()
        ran = sorted(workers[0].ran + workers[1].ran)
        assert ran == [f"u{i}" for i in range(4)]

        # The serial baseline over the *same* specs agrees digest for
        # digest — the campaign is backend-independent.
        runner = _digest_runner()
        serial = {spec["key"]:
                  runner({"unit": spec, "store": None})["config_digest"]
                  for spec in fabric.index.units}
        assert serial == {key: result["config_digest"]
                          for key, result
                          in fabric.index.completed.items()}

    def test_dead_worker_lease_expires_and_is_stolen(self, tmp_path):
        fabric = _Fabric(tmp_path, count=2, lease_seconds=0.4)
        release = threading.Event()
        try:
            # The "dead" worker: no heartbeat, hangs mid-unit on u0.
            dead = FabricWorker(
                fabric.url, worker_id="dead",
                runner=_digest_runner(block={"u0": release}),
                heartbeat=False, max_units=1, poll_seconds=0.01)
            dead_thread = threading.Thread(target=dead.run)
            dead_thread.start()
            deadline = time.monotonic() + 5.0
            while not fabric.coordinator._leases \
                    and time.monotonic() < deadline:
                time.sleep(0.01)  # wait for the dead worker's claim
            time.sleep(0.6)  # lease_seconds elapse; the lease lapses

            live = FabricWorker(fabric.url, worker_id="live",
                                runner=_digest_runner(),
                                poll_seconds=0.01)
            summary = live.run()  # steals u0, drains the campaign
            assert sorted(summary["ran"]) == ["u0", "u1"]
            assert len(fabric.index.completed) == 2

            release.set()  # the dead worker wakes up and uploads late
            dead_thread.join(timeout=10)
            assert dead.stolen == ["u0"]  # its result was a duplicate
            assert dead.ran == [] and dead.failed == []
            # First result won; the ledger holds exactly one per unit.
            assert fabric.coordinator.done()
            assert len(fabric.index.completed) == 2
        finally:
            release.set()
            fabric.close()

    def test_worker_retries_failed_units_via_new_lease(self, tmp_path):
        fabric = _Fabric(tmp_path, count=2, max_attempts=3)
        try:
            worker = FabricWorker(
                fabric.url, worker_id="w",
                runner=_digest_runner(fail_once="u1"),
                poll_seconds=0.01)
            summary = worker.run()
            assert summary["failed"] == ["u1"]  # first attempt
            assert sorted(summary["ran"]) == ["u0", "u1"]  # then retried
            assert len(fabric.index.completed) == 2
            assert not fabric.index.failed  # cleared on completion
        finally:
            fabric.close()

    def test_worker_payload_carries_resolved_store_spec(self, tmp_path):
        spec = {"backend": "local", "dir": str(tmp_path / "cache")}
        fabric = _Fabric(tmp_path, count=1, store_spec=spec)
        try:
            worker = FabricWorker(fabric.url, runner=_digest_runner(),
                                  poll_seconds=0.01)
            worker.run()
            result = next(iter(fabric.index.completed.values()))
            assert result["store"] == spec
        finally:
            fabric.close()

    def test_worker_main_fails_fast_on_dead_endpoint(self, blas_env):
        url = f"http://127.0.0.1:{_free_port()}"
        with pytest.raises(ConnectionError, match="no fabric "
                                                  "coordinator"):
            worker_main(url)


class TestCrossBackendResume:
    """One ledger, either backend: campaigns hand off mid-flight."""

    def _units(self, seeds=3):
        return expand_grid(StudyConfig(), seeds=seeds, stage="probe")

    def test_local_campaign_resumes_on_the_fabric(self, tmp_path):
        units = self._units()
        ran = []
        lock = threading.Lock()

        def killed(payload):
            if payload["unit"]["name"] == "seed2024":
                raise KeyboardInterrupt
            return _digest_runner(ran, lock)(payload)

        runner = SweepRunner(units,
                             index_path=tmp_path / "campaign.json",
                             workers=1, unit_runner=killed)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        assert ran == ["seed2023"]

        # A fabric coordinator over the reloaded ledger serves only the
        # incomplete units — completed work is never re-leased.
        index = CampaignIndex.load(tmp_path / "campaign.json")
        coordinator = FabricCoordinator(index)
        server, _ = make_fabric_server(coordinator)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            worker = FabricWorker(f"http://{host}:{port}",
                                  runner=_digest_runner(ran, lock),
                                  poll_seconds=0.01)
            worker.run()
        finally:
            server.shutdown()
            server.server_close()
        assert ran == ["seed2023", "seed2024", "seed2025"]
        assert len(index.completed) == 3

    def test_fabric_campaign_resumes_locally(self, tmp_path):
        units = self._units()
        specs = [unit.to_json() for unit in units]
        index = CampaignIndex.create(tmp_path / "campaign.json", specs,
                                     "probe")
        coordinator = FabricCoordinator(index)
        server, _ = make_fabric_server(coordinator)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        ran = []
        lock = threading.Lock()
        try:
            worker = FabricWorker(f"http://{host}:{port}",
                                  runner=_digest_runner(ran, lock),
                                  max_units=1, poll_seconds=0.01)
            worker.run()
        finally:
            server.shutdown()
            server.server_close()
        assert ran == ["seed2023"]

        resumed = SweepRunner(
            index_path=tmp_path / "campaign.json", workers=1,
            unit_runner=_digest_runner(ran, lock)).run(resume=True)
        assert resumed.ok
        assert resumed.skipped == ["seed2023"]
        assert ran == ["seed2023", "seed2024", "seed2025"]


@pytest.fixture(scope="module")
def fabric_root(tmp_path_factory):
    return tmp_path_factory.mktemp("fabric-e2e")


@pytest.fixture(scope="module")
def serial_baseline(fabric_root):
    """A real 2-seed probe campaign, serially, warming the shared cache."""
    units = expand_grid(StudyConfig(), seeds=2, stage="probe")
    result = SweepRunner(units,
                         index_path=fabric_root / "serial.json",
                         workers=1,
                         cache_dir=fabric_root / "cache").run()
    assert result.ok
    return units, result


def _digest_map(result):
    return {payload["key"]: (payload["config_digest"],
                             payload["node_digests"])
            for payload in result.results()}


class TestClusterBackendEndToEnd:
    """Real studies through spawned fabric worker processes."""

    def test_cluster_digests_byte_identical_to_serial(self, fabric_root,
                                                      serial_baseline):
        units, serial = serial_baseline
        cluster = SweepRunner(units,
                              index_path=fabric_root / "cluster.json",
                              workers=2,
                              cache_dir=fabric_root / "cache",
                              worker_jobs=1).run()
        assert cluster.ok
        assert sorted(cluster.ran) == ["seed2023", "seed2024"]
        assert _digest_map(cluster) == _digest_map(serial)
        assert cluster.index.campaign_id == serial.index.campaign_id

    def test_cluster_with_self_served_http_store(self, fabric_root,
                                                 serial_baseline):
        units, serial = serial_baseline
        spec = {"backend": "http", "dir": str(fabric_root / "cache")}
        cluster = SweepRunner(units,
                              index_path=fabric_root / "http.json",
                              workers=2, store=spec,
                              worker_jobs=1).run()
        assert cluster.ok
        assert _digest_map(cluster) == _digest_map(serial)
        # Workers pulled their artifacts over the blob endpoints.
        for payload in cluster.results():
            assert payload["cache"]["url"].startswith("http://")
            assert payload["cache"]["hits"]
        # The ledger records the *unresolved* spec: ports are ephemeral,
        # so a resume must not dial a long-gone socket.
        index = CampaignIndex.load(fabric_root / "http.json")
        assert index.store_spec == spec

    def test_local_backend_rejects_unresolved_http_store(self,
                                                         tmp_path):
        units = expand_grid(StudyConfig(), seeds=1, stage="probe")
        runner = SweepRunner(units, index_path=tmp_path / "c.json",
                             workers=1,
                             store={"backend": "http", "dir": "/tmp/x"})
        with pytest.raises(ValueError, match="workers"):
            runner.run()


class TestVerifyMatrixClusterMode:
    def test_default_grid_includes_cluster_mode(self):
        modes = {mode.name: mode for mode in default_modes()}
        assert modes["cluster"].backend == "cluster"
        assert all(mode.backend == "inline"
                   for name, mode in modes.items() if name != "cluster")

    def test_cluster_mode_digests_identical_to_serial(self, tmp_path):
        matrix = EquivalenceMatrix(
            modes=(ExecutionMode("serial"),
                   ExecutionMode("cluster", backend="cluster")),
            workdir=str(tmp_path))
        report = matrix.run()
        assert report.ok, report.render()
        serial, cluster = report.results
        assert serial.comparable_digests() == \
            cluster.comparable_digests()
        assert len(cluster.comparable_digests()) > 20


class TestFabricCLI:
    def test_fabric_status_against_live_coordinator(self, tmp_path,
                                                    capsys):
        live = _Fabric(tmp_path, count=2)
        try:
            assert main(["fabric", "status", live.url]) == 0
        finally:
            live.close()
        out = capsys.readouterr().out
        assert "0/2 completed" in out

    def test_fabric_status_dead_coordinator_exits_2(self, capsys):
        url = f"http://127.0.0.1:{_free_port()}"
        assert main(["fabric", "status", url]) == 2
        assert "fabric status:" in capsys.readouterr().err

    def test_fabric_worker_dead_coordinator_exits_2(self, capsys,
                                                    blas_env):
        url = f"http://127.0.0.1:{_free_port()}"
        assert main(["fabric", "worker", url]) == 2
        err = capsys.readouterr().err
        assert "no fabric coordinator" in err
        assert "Traceback" not in err

    @pytest.fixture
    def serve(self, monkeypatch, capsys):
        """``repro fabric serve`` over one out dir; it returns 0 once its
        server is up instead of serving forever."""
        def up(server):
            server.server_close()
            return 0
        monkeypatch.setattr(cli, "_serve_until_interrupted", up)

        def run(out):
            code = main(["fabric", "serve", "--out", str(out),
                         "--seeds", "1", "--stage", "probe",
                         "--port", "0"])
            return code, capsys.readouterr()
        return run

    def test_fabric_serve_creates_then_resumes(self, tmp_path, serve):
        ledger = tmp_path / "out" / "campaign.json"
        code, captured = serve(tmp_path / "out")
        assert code == 0 and "created campaign" in captured.out
        before = ledger.read_bytes()
        code, captured = serve(tmp_path / "out")
        assert code == 0 and "resuming campaign" in captured.out
        assert ledger.read_bytes() == before

    @pytest.mark.parametrize("ledger_text", [
        None,  # a completed unit whose spec has no ``seed``
        '{"format": 1, "units": [',
        "[1, 2]",
    ], ids=["unit-spec", "invalid-json", "not-an-object"])
    def test_fabric_serve_keeps_a_ledger_it_cannot_read(
            self, tmp_path, serve, ledger_text):
        ledger = tmp_path / "out" / "campaign.json"
        if ledger_text is None:
            spec = {"name": "a", "key": "k1"}
            index = CampaignIndex.create(ledger, [spec], "probe")
            index.complete("k1", _result_for(spec))
        else:
            ledger.parent.mkdir()
            ledger.write_text(ledger_text)
        before = ledger.read_bytes()
        code, captured = serve(tmp_path / "out")
        assert code == 2
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("fabric serve: ")
        assert str(ledger) in err[0]
        assert "created campaign" not in captured.out
        assert ledger.read_bytes() == before


#: numpy loaded or not after importing the worker modules, and the BLAS
#: thread variables after ``worker_main`` failed against a dead URL.
_BLAS_PROBE = """
import json, os, socket, sys
import repro.fabric.worker as fabric_worker
import repro.sweep.worker
loaded = "numpy" in sys.modules
with socket.socket() as sock:
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
try:
    fabric_worker.worker_main(f"http://127.0.0.1:{port}")
except ConnectionError:
    pass
print(json.dumps({"numpy": loaded,
                  "env": {name: os.environ.get(name)
                          for name in fabric_worker.BLAS_THREAD_VARS}}))
"""


class TestWorkerBlasThreads:
    """A worker process pins BLAS to one thread before numpy loads."""

    def _probe(self, **preset):
        env = {name: value for name, value in os.environ.items()
               if name not in BLAS_THREAD_VARS}
        env.update(preset)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_worker_imports_leave_numpy_unloaded_and_pin_one_thread(self):
        seen = self._probe()
        assert seen["numpy"] is False
        assert seen["env"] == {name: "1" for name in BLAS_THREAD_VARS}

    def test_a_preset_count_is_kept(self):
        seen = self._probe(OPENBLAS_NUM_THREADS="3")
        assert seen["env"]["OPENBLAS_NUM_THREADS"] == "3"
        assert seen["env"]["OMP_NUM_THREADS"] == "1"
