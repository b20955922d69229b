"""The fabric HTTP server: lease protocol + blob store on one port.

Mirrors the shape of :mod:`repro.ingest.server`: all routing and
payload assembly live in :class:`FabricService.handle`, a pure
``(method, path, params, body, headers) -> (status, payload)`` function
that is unit-testable without a socket; :func:`make_fabric_server` runs
it on the shared :mod:`repro.http` server.

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

Boot leaves the process's observability context alone: ``/metrics``
reports the caller's context, or an empty snapshot when none is active.
"""

import json

from repro import http, obs
from repro.http import HTTPError
from repro.store.artifact import ArtifactStore

#: content keys are sha256 hex digests.
_KEY_LENGTH = 64


def _is_key(text):
    return len(text) == _KEY_LENGTH \
        and all(ch in "0123456789abcdef" for ch in text)


class FabricService:
    """Routing + payload assembly for the fabric server."""

    def __init__(self, coordinator, blob_store=None):
        self.coordinator = coordinator
        self.blob_store = blob_store

    # -- routing --------------------------------------------------------------

    def handle(self, method, path, params=None, body=None, headers=None):
        """Answer one request; returns ``(status, payload)``.

        ``payload`` is a JSON-serializable dict, or a
        :class:`~repro.http.Body` for blob downloads and the Prometheus
        page.  Protocol violations surface as their HTTP status with a
        one-line ``{"error": ...}`` body.
        """
        params = params or {}
        try:
            if path.startswith("/blob/"):
                return self._blob(method, path[len("/blob/"):], body)
            if method == "GET":
                return self._get(path, params, headers)
            if method == "POST":
                return self._post(path, body)
            raise HTTPError(405, f"method {method} not allowed")
        except HTTPError as exc:
            return exc.status, self.error(exc.status, exc.message)

    @staticmethod
    def error(status, message):
        """Count one error response and build its JSON body."""
        obs.incr("fabric.errors", key=str(status))
        return {"error": message}

    def _get(self, path, params, headers):
        if path == "/fabric/ping":
            return 200, {"ok": True,
                         "campaign_id": self.coordinator.index
                         .campaign_id}
        if path == "/fabric/status":
            return 200, self.coordinator.status()
        if path == "/metrics":
            return 200, http.metrics(params,
                                     (headers or {}).get("Accept"))
        raise HTTPError(404, f"unknown route {path!r}")

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
        raise HTTPError(404, f"unknown route {path!r}")

    @staticmethod
    def _json_body(body):
        try:
            payload = json.loads((body or b"").decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise HTTPError(400, "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return payload

    @staticmethod
    def _token(payload):
        token = payload.get("lease")
        if not isinstance(token, str) or not token:
            raise HTTPError(400, "request needs a lease token")
        return token

    # -- the blob store -------------------------------------------------------

    def _blob(self, method, rest, body):
        if self.blob_store is None:
            raise HTTPError(503, "this coordinator serves no blob store")
        if method == "GET" and rest == "stats":
            return 200, self.blob_store.stats()
        if not _is_key(rest):
            raise HTTPError(400, f"malformed blob key {rest!r}")
        if method == "GET":
            raw = self.blob_store.read_raw(rest)
            if raw is None:
                obs.incr("fabric.blob_misses")
                return 404, {"error": f"no blob {rest}"}
            obs.incr("fabric.blob_reads")
            return 200, http.Body(raw)
        if method == "PUT":
            if not self.blob_store.write_raw(rest, body or b""):
                raise HTTPError(
                    400, "blob rejected: bad magic, checksum "
                         "mismatch, or key/header mismatch")
            obs.incr("fabric.blob_writes")
            return 200, {"ok": True, "key": rest}
        raise HTTPError(405, f"method {method} not allowed on /blob/")


def make_fabric_server(coordinator, host="127.0.0.1", port=0):
    """The HTTP server for one campaign (port 0: ephemeral).

    A self-served store spec (``http`` + ``dir``, no ``url``; see
    :mod:`repro.store.backend`) is served from ``dir`` on this server's
    ``/blob/`` routes, and the coordinator's spec resolves to this
    server's URL now that the port is known.  Returns ``(server,
    service)``; the caller runs the server, with ``serve_forever()`` or
    under :func:`repro.http.serving`.
    """
    spec = coordinator.store_spec or {}
    self_served = spec.get("backend") == "http" and not spec.get("url")
    service = FabricService(
        coordinator,
        blob_store=ArtifactStore(spec["dir"]) if self_served else None)
    # handle is looked up per request, so a patched instance takes effect
    server = http.make_server(lambda *request: service.handle(*request),
                              service.error, host, port)
    if self_served:
        coordinator.store_spec = {"backend": "http", "url": server.url}
    return server, service
