"""The fabric HTTP server: lease protocol + blob store on one port.

Mirrors the shape of :mod:`repro.ingest.server`: all routing and
payload assembly live in :class:`FabricService.handle`, a pure
``(method, path, params, body) -> (status, payload)`` function that is
unit-testable without a socket; :func:`make_fabric_server` wraps it in
a ``ThreadingHTTPServer``.

Surface:

- ``POST /fabric/lease|heartbeat|complete|fail`` — the lease protocol
  (:mod:`repro.fabric.protocol`), JSON in, JSON out;
- ``GET /fabric/ping`` — liveness (also the remote store's
  reachability probe);
- ``GET /fabric/status`` — the coordinator's queue/lease/ledger view;
- ``GET /metrics[?format=json|prom]`` — the active :mod:`repro.obs`
  registry, Prometheus exposition on request (the CI smoke job scrapes
  ``repro_fabric_*`` through this);
- ``GET /blob/<key>`` / ``PUT /blob/<key>`` — the remote artifact
  store's raw ``.art`` blobs, validated server-side on upload
  (:meth:`~repro.store.artifact.ArtifactStore.write_raw`);
- ``GET /blob/stats`` — the blob store's aggregate statistics.

Boot activates an enabled observability context if none is active, so
``/metrics`` never answers with an empty snapshot.
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.fabric.protocol import ProtocolError
from repro.obs.telemetry import render_prometheus

#: maximum accepted request body (a pickled unit result or one blob).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: content keys are sha256 hex digests.
_KEY_LENGTH = 64


class RawBytes:
    """A non-JSON response body (a raw ``.art`` blob)."""

    def __init__(self, blob):
        self.blob = blob


def _is_key(text):
    return len(text) == _KEY_LENGTH \
        and all(ch in "0123456789abcdef" for ch in text)


class FabricService:
    """Routing + payload assembly for the fabric server."""

    def __init__(self, coordinator, blob_store=None):
        self.coordinator = coordinator
        self.blob_store = blob_store

    # -- routing --------------------------------------------------------------

    def handle(self, method, path, params=None, body=None):
        """Answer one request; returns ``(status, payload)``.

        ``payload`` is a JSON-serializable dict, or a :class:`RawBytes`
        for blob downloads.  Protocol violations surface as their HTTP
        status with a one-line ``{"error": ...}`` body.
        """
        params = params or {}
        try:
            if path.startswith("/blob/"):
                return self._blob(method, path[len("/blob/"):], body)
            if method == "GET":
                return self._get(path, params)
            if method == "POST":
                return self._post(path, body)
            raise ProtocolError(405, f"method {method} not allowed")
        except ProtocolError as exc:
            obs.incr("fabric.errors", key=str(exc.status))
            return exc.status, {"error": exc.message}

    def _get(self, path, params):
        if path == "/fabric/ping":
            return 200, {"ok": True,
                         "campaign_id": self.coordinator.index
                         .campaign_id}
        if path == "/fabric/status":
            return 200, self.coordinator.status()
        if path == "/metrics":
            return self._metrics(params)
        raise ProtocolError(404, f"unknown route {path!r}")

    def _post(self, path, body):
        payload = self._json_body(body)
        if path == "/fabric/lease":
            return 200, self.coordinator.lease(payload.get("worker"))
        if path == "/fabric/heartbeat":
            return 200, self.coordinator.heartbeat(
                self._token(payload))
        if path == "/fabric/complete":
            return 200, self.coordinator.complete(
                self._token(payload), payload.get("result"))
        if path == "/fabric/fail":
            return 200, self.coordinator.fail(
                self._token(payload), payload.get("error", "unknown"))
        raise ProtocolError(404, f"unknown route {path!r}")

    @staticmethod
    def _json_body(body):
        try:
            payload = json.loads((body or b"").decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ProtocolError(400, "request body is not valid JSON") \
                from None
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON "
                                     "object")
        return payload

    @staticmethod
    def _token(payload):
        token = payload.get("lease")
        if not isinstance(token, str) or not token:
            raise ProtocolError(400, "request needs a lease token")
        return token

    # -- metrics --------------------------------------------------------------

    @staticmethod
    def _metrics(params):
        fmt = (params.get("format") or ["json"])[-1]
        if fmt not in ("json", "prom"):
            raise ProtocolError(400, f"unknown metrics format {fmt!r} "
                                     f"(expected json or prom)")
        ctx = obs.current()
        snapshot = ctx.metrics.snapshot() if ctx.enabled else {}
        if fmt == "prom":
            return 200, RawBytes(
                render_prometheus(snapshot).encode("utf-8"))
        return 200, {"enabled": ctx.enabled, "metrics": snapshot}

    # -- the blob store -------------------------------------------------------

    def _blob(self, method, rest, body):
        if self.blob_store is None:
            raise ProtocolError(503, "this coordinator serves no blob "
                                     "store")
        if method == "GET" and rest == "stats":
            return 200, self.blob_store.stats()
        if not _is_key(rest):
            raise ProtocolError(400, f"malformed blob key {rest!r}")
        if method == "GET":
            raw = self.blob_store.read_raw(rest)
            if raw is None:
                obs.incr("fabric.blob_misses")
                return 404, {"error": f"no blob {rest}"}
            obs.incr("fabric.blob_reads")
            return 200, RawBytes(raw)
        if method == "PUT":
            if not self.blob_store.write_raw(rest, body or b""):
                raise ProtocolError(
                    400, "blob rejected: bad magic, checksum "
                         "mismatch, or key/header mismatch")
            obs.incr("fabric.blob_writes")
            return 200, {"ok": True, "key": rest}
        raise ProtocolError(405, f"method {method} not allowed on "
                                 f"/blob/")


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :meth:`FabricService.handle`."""

    #: set by :func:`make_fabric_server`.
    service = None
    protocol_version = "HTTP/1.1"

    def _body(self):
        """The request body; :class:`ProtocolError` on a bad length."""
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            raise ProtocolError(400, f"malformed Content-Length "
                                     f"{header[:32]!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, "request body too large")
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method):
        parsed = urlparse(self.path)
        try:
            body = self._body()
        except ProtocolError as exc:
            obs.incr("fabric.errors", key=str(exc.status))
            status, payload = exc.status, {"error": exc.message}
            # the unread body would be parsed as the next request
            self.close_connection = True
        else:
            status, payload = self.service.handle(
                method, parsed.path,
                parse_qs(parsed.query, keep_blank_values=True), body)
        if isinstance(payload, RawBytes):
            data = payload.blob
            content_type = "application/octet-stream"
        else:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def do_PUT(self):  # noqa: N802 (http.server API)
        self._dispatch("PUT")

    def log_message(self, format, *args):
        """Suppress per-request stderr noise; obs counters cover it."""


def make_fabric_server(coordinator, blob_store=None, host="127.0.0.1",
                       port=0):
    """A ``ThreadingHTTPServer`` for one campaign (port 0: ephemeral).

    Returns ``(server, service)``; the caller owns
    ``server.serve_forever()`` / ``server.shutdown()``.
    """
    obs.ensure_enabled()
    service = FabricService(coordinator, blob_store=blob_store)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler), service
