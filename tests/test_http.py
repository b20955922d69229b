"""Tests for the shared HTTP layer (``repro.http``).

Both servers run on one request handler, so the transport rules are
checked once per server: an idle connection releases its thread, and
``/metrics?format=prom`` carries the exposition content type; a slow
reader of a large response is not cut off.  On the
client side, every caller of :func:`repro.http.request` keeps its own
failure contract when a server answers with a truncated body, a garbled
status line, or garbage bytes.
"""

import http.client
import socket
import socketserver
import threading
import time

import pytest

from repro import http as repro_http
from repro.cli import main
from repro.config import StudyConfig
from repro.fabric import FabricCoordinator, FabricWorker, \
    make_fabric_server, worker_main
from repro.http import Body, TransportError, request, serving
from repro.ingest import Ingester, QueryService, make_server, run_load
from repro.obs.scrape import ScrapeError, scrape
from repro.obs.telemetry import parse_prometheus
from repro.store import MISS, RemoteArtifactStore, StoreUnreachable
from repro.store.campaign import CampaignIndex


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.fixture(params=["query", "fabric"])
def live_server(request, study, tmp_path):
    """``(host, port)`` of a running query or fabric server."""
    if request.param == "query":
        server = make_server(QueryService(study, Ingester(study)))
    else:
        index = CampaignIndex.create(
            tmp_path / "campaign.json",
            [{"name": "u0", "key": "0" * 64, "seed": 0}], "probe")
        server, _ = make_fabric_server(FabricCoordinator(index))
    with serving(server):
        yield server.server_address[:2]


class TestServers:
    def test_idle_connections_release_their_threads(self, live_server,
                                                    monkeypatch):
        # One finite idle timeout ships; the test shortens it.
        assert repro_http._Handler.timeout == repro_http.IDLE_TIMEOUT_S > 0
        monkeypatch.setattr(repro_http._Handler, "timeout", 0.3)
        baseline = threading.active_count()
        # Silent sockets, plus a keep-alive client that goes quiet after
        # one request.
        idle = [socket.create_connection(live_server, timeout=10)
                for _ in range(4)]
        quiet = http.client.HTTPConnection(*live_server, timeout=10)
        try:
            quiet.request("GET", "/metrics")
            assert quiet.getresponse().read()
            # The server closes each idle connection: EOF, not a hang.
            for sock in idle + [quiet.sock]:
                assert sock.recv(1) == b""
            assert _wait_until(
                lambda: threading.active_count() <= baseline)
        finally:
            quiet.close()
            for sock in idle:
                sock.close()

    def test_slow_reader_gets_the_whole_response(self, monkeypatch):
        # The timeout bounds each write, not the whole response: a client
        # that reads steadily, but for longer than the timeout, still
        # gets every byte.
        monkeypatch.setattr(repro_http._Handler, "timeout", 0.4)
        data = bytes(range(256)) * (16 * 1024)  # 4 MiB
        server = repro_http.make_server(
            lambda *request: (200, Body(data)),
            lambda status, message: {"error": message})
        # Small kernel buffers (accepted sockets inherit the listener's),
        # so the body cannot sit in them while the reader dawdles.
        server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                 64 * 1024)
        chunks = []
        with serving(server), socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            sock.settimeout(10)
            sock.connect(server.server_address[:2])
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\n\r\n")
            start = time.monotonic()
            while chunk := sock.recv(64 * 1024):
                chunks.append(chunk)
                time.sleep(0.02)
            elapsed = time.monotonic() - start
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert elapsed > 0.4  # the response outlasted the timeout
        assert body == data

    def test_leaving_serving_is_prompt(self):
        # Shutdown waits for the serve loop's next poll, which restarts
        # as each request comes in: at the stdlib's 0.5 s poll, leaving
        # right after a request took about half a second.
        exits = []
        for _ in range(5):
            server = repro_http.make_server(
                lambda *request: (200, {}),
                lambda status, message: {"error": message})
            with serving(server):
                assert request("GET", f"{server.url}/")[0] == 200
                started = time.monotonic()
            exits.append(time.monotonic() - started)
        assert sorted(exits)[2] < 0.2, exits

    def test_prometheus_content_type(self, live_server):
        host, port = live_server
        for path, headers in (("/metrics?format=prom", {}),
                              ("/metrics", {"Accept": "text/plain"})):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", path, headers=headers)
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type") == \
                    Body.PROMETHEUS
                parse_prometheus(response.read().decode("utf-8"))
            finally:
                conn.close()


#: what a broken server sends back, by kind.
REPLIES = {
    "truncated": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
                 b"0123456789",
    "bad-status-line": b"HTTP/1.1 OK\r\n\r\n",
    "garbage": bytes(range(256)),
}


class _Canned(socketserver.StreamRequestHandler):
    """Reads one request, answers it with the server's canned reply."""

    def handle(self):
        length = 0
        for line in iter(self.rfile.readline, b"\r\n"):
            if not line:
                return
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        self.rfile.read(length)
        self.wfile.write(self.server.reply)


@pytest.fixture(params=sorted(REPLIES))
def broken_url(request):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Canned)
    server.daemon_threads = True
    server.reply = REPLIES[request.param]
    with serving(server):
        host, port = server.server_address
        yield f"http://{host}:{port}"


def _one_line(message):
    assert message and "\n" not in message and "\r" not in message


def test_every_client_keeps_its_contract(broken_url, capsys, blas_env):
    with pytest.raises(TransportError) as err:
        request("GET", f"{broken_url}/x")
    _one_line(str(err.value))

    store = RemoteArtifactStore(broken_url)
    assert store.get(StudyConfig(), "stage") is MISS
    assert store.put(StudyConfig(), "stage", "value") is None
    with pytest.raises(StoreUnreachable) as err:
        store.ping()
    _one_line(str(err.value))

    assert FabricWorker(broken_url).post(
        "/fabric/lease", {"worker": "w"}) == (None, {})
    with pytest.raises(ConnectionError):
        worker_main(broken_url)

    with pytest.raises(ScrapeError) as err:
        scrape(broken_url, "/metrics")
    _one_line(str(err.value))
    for argv, prefix in ((["obs", "export", broken_url, "-o", "-"],
                          "obs export: "),
                         (["fabric", "status", broken_url],
                          "fabric status: ")):
        assert main(argv) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(prefix) and stderr.count("\n") == 1

    summary = run_load(broken_url, requests_per_worker=3,
                       workers=2).to_json()
    assert summary["requests"] == 6 and summary["errors"] == 6
