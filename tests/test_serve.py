"""Tests for the ``repro serve`` HTTP/JSON query API."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.http import Body
from repro.ingest import Ingester, QueryService, make_server, run_load
from repro.obs.slo import STATES
from repro.obs.telemetry import parse_prometheus
from repro.schema import SCHEMA_VERSION


@pytest.fixture(scope="module")
def service(study):
    return QueryService(study, Ingester(study)).warm()


@pytest.fixture(scope="module")
def server_url(service):
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def raw_exchange(url, raw):
    """Send raw request bytes; every ``(status, body)`` read until EOF."""
    host, port = url[len("http://"):].split(":")
    data = b""
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(raw)
        while chunk := sock.recv(65536):
            data += chunk
    responses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        length = next(int(line.split(b":")[1]) for line in lines
                      if line.lower().startswith(b"content-length:"))
        responses.append((int(lines[0].split()[1]), data[:length]))
        data = data[length:]
    return responses


class TestEnvelopes:
    def test_success_envelope_versioned(self, service):
        status, payload = service.handle("/healthz")
        assert status == 200
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["api_version"] == "v1"
        assert payload["endpoint"] == "/healthz"
        assert payload["data"]["status"] == "ok"

    def test_error_envelope_versioned(self, service):
        status, payload = service.handle("/no/such/route")
        assert status == 404
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["error"]["status"] == 404
        assert "unknown route" in payload["error"]["message"]


class TestEndpoints:
    def test_healthz(self, service):
        _, payload = service.handle("/healthz")
        data = payload["data"]
        assert data["finished"] is True
        assert data["windows_ingested"] == data["windows_total"]

    def test_metrics(self, service):
        status, payload = service.handle("/metrics")
        assert status == 200
        assert "metrics" in payload["data"]

    def test_doc_all_vendors(self, service, dataset):
        _, payload = service.handle("/v1/doc")
        doc = payload["data"]["doc_vendor"]
        assert set(doc) == set(dataset.vendor_names())
        assert all(0.0 <= value <= 1.0 for value in doc.values())

    def test_doc_single_vendor(self, service, dataset):
        vendor = dataset.vendor_names()[0]
        _, payload = service.handle("/v1/doc", {"vendor": [vendor]})
        assert payload["data"]["vendor"] == vendor
        assert 0.0 <= payload["data"]["doc_vendor"] <= 1.0

    def test_fingerprint_listing_and_lookup(self, service):
        _, listing = service.handle("/v1/fingerprints",
                                    {"limit": ["5"]})
        assert len(listing["data"]["ids"]) == 5
        fp_id = listing["data"]["ids"][0]
        _, entry = service.handle("/v1/fingerprints", {"id": [fp_id]})
        assert entry["data"]["id"] == fp_id
        assert entry["data"]["vendors"]

    def test_match_rate_in_paper_band(self, service):
        _, payload = service.handle("/v1/match-rate")
        fraction = payload["data"]["matched_fraction"]
        assert 0.015 <= fraction <= 0.04

    def test_issuers_and_vendor_column(self, service, dataset):
        _, payload = service.handle("/v1/issuers")
        assert 0.0 <= payload["data"]["private_leaf_share"] <= 1.0
        vendor = sorted(payload["data"]["matrix"])[0]
        _, column = service.handle("/v1/issuers", {"vendor": [vendor]})
        shares = column["data"]["issuers"]
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_verdict_summary_and_single_sni(self, service,
                                            certificates):
        _, summary = service.handle("/v1/verdicts")
        assert summary["data"]["verdict_count"] > 0
        sni = sorted(service.verdicts)[0]
        _, verdict = service.handle("/v1/verdicts", {"sni": [sni]})
        assert verdict["data"]["sni"] == sni
        assert "status" in verdict["data"]
        assert "issuer" in verdict["data"]


class TestTelemetryPlane:
    def test_metrics_prom_format_param(self, service):
        with obs.enabled():
            obs.incr("probe.attempts", n=3)
            status, payload = service.handle("/metrics",
                                             {"format": ["prom"]})
        assert status == 200
        assert isinstance(payload, Body)
        assert payload.content_type == Body.PROMETHEUS
        parsed = parse_prometheus(payload.data.decode())
        assert parsed["metrics"]["repro_probe_attempts_total"][()] == 3

    def test_metrics_accept_header_negotiation(self, service):
        status, payload = service.handle("/metrics",
                                         accept="text/plain")
        assert status == 200
        assert isinstance(payload, Body)
        # Explicit JSON (or a browser wildcard) keeps the JSON default.
        for accept in ("application/json, text/plain", "*/*", None):
            status, payload = service.handle("/metrics", accept=accept)
            assert status == 200
            assert isinstance(payload, dict)
            assert "metrics" in payload["data"]

    def test_metrics_format_param_beats_accept(self, service):
        _, payload = service.handle("/metrics", {"format": ["json"]},
                                    accept="text/plain")
        assert isinstance(payload, dict)

    def test_metrics_unknown_format_400(self, service):
        status, payload = service.handle("/metrics",
                                         {"format": ["xml"]})
        assert status == 400
        assert "xml" in payload["error"]["message"]

    def test_slo_endpoint(self, service):
        status, payload = service.handle("/v1/slo")
        assert status == 200
        data = payload["data"]
        assert data["status"] in STATES
        names = [objective["name"] for objective in data["objectives"]]
        assert names == ["query_latency_p99", "error_rate",
                         "ingest_lag"]
        by_name = {o["name"]: o for o in data["objectives"]}
        # The ingester is fully warm, so lag is zero and the SLO holds.
        assert by_name["ingest_lag"]["status"] == "ok"
        assert by_name["ingest_lag"]["samples"] >= 1

    def test_healthz_reports_slo_state(self, service):
        _, payload = service.handle("/healthz")
        data = payload["data"]
        assert data["slo"]["status"] in STATES
        assert set(data["slo"]["objectives"]) == {
            "query_latency_p99", "error_rate", "ingest_lag"}
        assert data["status"] == data["slo"]["status"]

    def test_debug_recent_endpoint(self, service):
        service.handle_request("/healthz")
        _, payload = service.handle("/v1/debug/recent")
        data = payload["data"]
        assert data["capacity"] == service.telemetry.recorder.capacity
        assert data["events_seen"] >= len(data["events"]) >= 1
        assert data["events"][-1]["type"] in ("request", "ingest")
        # seq is monotonic across the returned window.
        seqs = [event["seq"] for event in data["events"]]
        assert seqs == sorted(seqs)

    def test_debug_recent_limit(self, service):
        for _ in range(3):
            service.handle_request("/healthz")
        _, payload = service.handle("/v1/debug/recent",
                                    {"limit": ["2"]})
        assert len(payload["data"]["events"]) == 2
        _, payload = service.handle("/v1/debug/recent", {"limit": ["0"]})
        assert payload["data"]["events"] == []

    def test_debug_recent_limit_validation(self, service):
        status, _ = service.handle("/v1/debug/recent",
                                   {"limit": ["abc"]})
        assert status == 400
        status, _ = service.handle("/v1/debug/recent",
                                   {"limit": ["-1"]})
        assert status == 400

    def test_handle_request_instruments_registry(self, service):
        with obs.enabled() as ctx:
            status, body, content_type = \
                service.handle_request("/v1/doc")
        assert status == 200
        assert content_type == "application/json"
        assert json.loads(body)["endpoint"] == "/v1/doc"
        snap = ctx.metrics.snapshot()
        assert snap["families"]["http.requests"] == {"2xx": 1}
        assert snap["families"]["http.requests_by_route"] == \
            {"/v1/doc": 1}
        assert sum(snap["histograms"]
                   ["http.latency_ms.v1_doc"].values()) == 1
        assert snap["gauges"]["http.in_flight"] == 0  # closed again

    def test_handle_request_unmatched_path_bounded_label(self, service):
        with obs.enabled() as ctx:
            status, _, _ = service.handle_request("/scanned/by/a/bot")
        assert status == 404
        snap = ctx.metrics.snapshot()
        # One shared label, so scanners cannot grow the namespace.
        assert snap["families"]["http.requests_by_route"] == \
            {"unknown": 1}
        assert snap["families"]["http.requests"] == {"4xx": 1}

    def test_handle_request_prom_body(self, service):
        with obs.enabled():
            obs.incr("probe.attempts")
            status, body, content_type = service.handle_request(
                "/metrics", {"format": ["prom"]})
        assert status == 200
        assert content_type == Body.PROMETHEUS
        parse_prometheus(body.decode("utf-8"))


class TestErrorHandling:
    def test_unknown_route_404(self, service):
        status, payload = service.handle("/v2/doc")
        assert status == 404

    def test_unknown_vendor_404(self, service):
        status, payload = service.handle(
            "/v1/doc", {"vendor": ["NoSuchVendor"]})
        assert status == 404
        assert "NoSuchVendor" in payload["error"]["message"]

    def test_unknown_sni_404(self, service):
        status, _ = service.handle("/v1/verdicts",
                                   {"sni": ["no.such.host"]})
        assert status == 404

    def test_unknown_fingerprint_404(self, service):
        status, _ = service.handle("/v1/fingerprints",
                                   {"id": ["ffffffffffffffff"]})
        assert status == 404

    def test_malformed_limit_400(self, service):
        status, payload = service.handle("/v1/fingerprints",
                                         {"limit": ["abc"]})
        assert status == 400
        assert "integer" in payload["error"]["message"]
        status, _ = service.handle("/v1/fingerprints",
                                   {"limit": ["-3"]})
        assert status == 400

    def test_unknown_parameter_400(self, service):
        status, payload = service.handle("/v1/doc", {"bogus": ["1"]})
        assert status == 400
        assert "bogus" in payload["error"]["message"]

    def test_empty_parameter_400(self, service):
        status, _ = service.handle("/v1/doc", {"vendor": [""]})
        assert status == 400

    def test_repeated_parameter_400(self, service):
        status, _ = service.handle("/v1/doc",
                                   {"vendor": ["Acme", "Bolt"]})
        assert status == 400


class TestHttpTransport:
    def test_endpoints_over_http(self, server_url):
        for path in ("/healthz", "/metrics", "/v1/slo",
                     "/v1/debug/recent?limit=5", "/v1/doc",
                     "/v1/fingerprints?limit=3", "/v1/match-rate",
                     "/v1/issuers", "/v1/verdicts"):
            status, payload = get_json(server_url + path)
            assert status == 200
            assert payload["schema_version"] == SCHEMA_VERSION
            assert "data" in payload

    def test_404_json_over_http(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server_url + "/nope")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["error"]["status"] == 404

    def test_400_json_over_http(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                server_url + "/v1/fingerprints?limit=zzz")
        assert excinfo.value.code == 400

    def test_prometheus_over_http(self, server_url):
        for target in (server_url + "/metrics?format=prom",
                       urllib.request.Request(
                           server_url + "/metrics",
                           headers={"Accept": "text/plain"})):
            with urllib.request.urlopen(target) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == \
                    "text/plain; version=0.0.4; charset=utf-8"
                parse_prometheus(response.read().decode("utf-8"))

    def test_load_generator(self, server_url):
        result = run_load(server_url, requests_per_worker=10,
                          workers=2)
        summary = result.to_json()
        assert summary["requests"] == 20
        assert summary["errors"] == 0
        assert summary["p99_ms"] >= summary["p50_ms"]


class TestHttpBoundary:
    """Raw-socket requests: bodies are read, rejections are envelopes."""

    def test_get_body_is_read_not_replayed_as_a_request(self,
                                                        server_url):
        smuggled = b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        raw = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: %d\r\n\r\n" % len(smuggled) + smuggled
               + b"GET /v1/match-rate HTTP/1.1\r\nHost: x\r\n"
                 b"Connection: close\r\n\r\n")
        statuses = [status for status, _ in
                    raw_exchange(server_url, raw)]
        assert statuses == [200, 200]

    @pytest.mark.parametrize("raw, status", [
        (b"POST /v1/doc HTTP/1.1\r\nContent-Length: 2\r\n"
         b"Connection: close\r\n\r\n{}", 405),
        (b"PUT /v1/doc HTTP/1.1\r\nContent-Length: 0\r\n"
         b"Connection: close\r\n\r\n", 405),
        (b"DELETE /v1/doc HTTP/1.1\r\nConnection: close\r\n\r\n", 405),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"GARBAGE\r\n\r\n", 400),
    ], ids=["post", "put", "delete", "bad-length", "garbage-line"])
    def test_rejection_is_a_versioned_envelope(self, server_url, raw,
                                               status):
        [(got, body)] = raw_exchange(server_url, raw)
        assert got == status
        payload = json.loads(body)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["error"]["status"] == status
        assert "\n" not in payload["error"]["message"]
