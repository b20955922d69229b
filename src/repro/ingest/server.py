"""``repro serve`` — the warm HTTP/JSON query API over ingested state.

A threaded service answering the paper's hot queries from snapshots
cached at warm-up (the :mod:`repro.ingest.snapshots` analyses over the
ingester's dataset) — no pipeline run per request.  Routing and payload
assembly live in :class:`QueryService.handle`, a pure ``(path, params)
-> (status, payload)`` function, so every endpoint is unit-testable
without a socket; :func:`make_server` runs :meth:`QueryService.app` on
the shared :mod:`repro.http` server, whose handler owns the transport
rules (idle timeout, body checks, JSON errors).  The API is read-only:
any method but ``GET`` is a 405.

Every response — success or error — is a versioned envelope::

    {"schema_version": 1, "api_version": "v1", "endpoint": ...,
     "data": {...}}                     # 200
    {"schema_version": 1, "api_version": "v1",
     "error": {"status": 404, "message": ...}}   # 4xx, 5xx

Endpoints:

- ``GET /healthz`` — liveness + ingest progress + per-objective SLO
  state (``ok`` / ``degraded`` / ``failing``);
- ``GET /metrics[?format=json|prom]`` — the active :mod:`repro.obs`
  registry snapshot; ``format=prom`` (or an ``Accept: text/plain``
  header) returns Prometheus exposition text instead of JSON;
- ``GET /v1/slo`` — every SLO objective's verdict over its sliding
  window;
- ``GET /v1/debug/recent[?limit=]`` — the flight recorder's ring of
  recent request/ingest events;
- ``GET /v1/doc[?vendor=]`` — per-vendor DoC (Figure 2);
- ``GET /v1/fingerprints[?id=|limit=]`` — the live fingerprint index;
- ``GET /v1/match-rate`` — the Section 4.1 corpus match rate;
- ``GET /v1/issuers[?vendor=]`` — issuer shares / one Figure 5 column;
- ``GET /v1/verdicts[?sni=]`` — per-SNI certificate validation verdicts.

Request middleware: every request that flows through
:meth:`QueryService.handle_request` (the HTTP path) is folded into the
telemetry plane — a per-endpoint latency histogram, status-class
counters, an in-flight gauge, SLO latency/error samples, and a flight-
recorder event.  Under an injected clock the whole plane is
deterministic; see :mod:`repro.obs.telemetry`.
"""

import time

from repro import http, obs
from repro.core.chains import validate_all
from repro.core.issuers import leaf_issuer_org
from repro.http import HTTPError
from repro.inspector.timeline import PROBE_TIME
from repro.obs.telemetry import ServiceTelemetry
from repro.schema import versioned

#: the query API version every ``/v1/...`` route speaks.
API_VERSION = "v1"


def envelope(endpoint, data):
    """The versioned success envelope of one response."""
    return versioned({"api_version": API_VERSION,
                      "endpoint": endpoint, "data": data})


def _limit(params):
    """The ``limit`` query param as an integer >= 0, or ``None``."""
    limit = http.param(params, "limit")
    if limit is None:
        return None
    try:
        limit = int(limit)
    except ValueError:
        raise HTTPError(400, f"limit must be an integer, "
                             f"got {limit!r}") from None
    if limit < 0:
        raise HTTPError(400, "limit must be >= 0")
    return limit


class QueryService:
    """Warm query state + routing for the HTTP API."""

    def __init__(self, study, ingester, clock=time.perf_counter,
                 telemetry=None):
        self.study = study
        self.ingester = ingester
        self.telemetry = telemetry if telemetry is not None \
            else ServiceTelemetry(clock=clock)
        self._snapshots = None
        self._verdicts = None

    # -- warm state -----------------------------------------------------------

    def warm(self):
        """Finish ingesting (resuming if possible) and cache answers."""
        with obs.span("serve.warm"):
            if not self.ingester.finished:
                self.ingester.run()
            self.refresh()
        return self

    def refresh(self):
        """Recompute the served snapshots over the ingested dataset."""
        self._snapshots = self.ingester.snapshots()
        if self._verdicts is None:
            self._verdicts = self._build_verdicts()

    def _build_verdicts(self):
        survey = validate_all(self.study.certificates,
                              self.study.validator(), at=PROBE_TIME)
        verdicts = {}
        for fqdn in sorted(survey.reports):
            report = survey.reports[fqdn]
            verdicts[fqdn] = {
                "sni": fqdn,
                "status": report.status.value,
                "valid": report.valid,
                "hostname_ok": report.hostname_ok,
                "expired": report.expired,
                "chain_complete": report.chain_complete,
                "anchor_in_store": report.anchor_in_store,
                "presented_length": report.presented_length,
                "path_length": report.path_length,
                "issuer": leaf_issuer_org(report.leaf),
                "validity_days": round(report.leaf.validity_days, 1),
            }
        return verdicts

    @property
    def snapshots(self):
        if self._snapshots is None:
            self.warm()
        return self._snapshots

    @property
    def verdicts(self):
        if self._verdicts is None:
            self.warm()
        return self._verdicts

    # -- routing --------------------------------------------------------------

    def routes(self):
        """``path -> endpoint handler`` (the routable surface)."""
        return {
            "/healthz": self._healthz,
            "/metrics": self._metrics,
            "/v1/slo": self._slo,
            "/v1/debug/recent": self._debug_recent,
            "/v1/doc": self._doc,
            "/v1/fingerprints": self._fingerprints,
            "/v1/match-rate": self._match_rate,
            "/v1/issuers": self._issuers,
            "/v1/verdicts": self._verdicts_route,
        }

    def handle(self, path, params=None, accept=None):
        """Answer one request; returns ``(status, payload)``.

        ``params`` is a ``{name: [values]}`` query mapping (as produced
        by ``urllib.parse.parse_qs``); ``payload`` is a JSON envelope
        dict, or a :class:`~repro.http.Body` for non-JSON bodies (the
        Prometheus page).  ``accept`` is the request's ``Accept``
        header, used only for ``/metrics`` content negotiation.
        """
        params = params or {}
        handler = self.routes().get(path)
        if handler is None:
            return 404, self.error(404, f"unknown route {path!r}")
        try:
            allowed = getattr(handler, "params", ())
            unknown = sorted(set(params) - set(allowed))
            if unknown:
                raise HTTPError(
                    400, f"unknown query parameter(s): "
                         f"{', '.join(unknown)}")
            # /metrics alone negotiates its format on the Accept header.
            data = handler(params, accept) if path == "/metrics" \
                else handler(params)
        except HTTPError as exc:
            return exc.status, self.error(exc.status, exc.message)
        obs.incr("serve.requests", key=path)
        if isinstance(data, http.Body):
            return 200, data
        return 200, envelope(path, data)

    def handle_request(self, path, params=None, accept=None):
        """The instrumented HTTP entry: handle + request middleware.

        Returns ``(status, body_bytes, content_type)``.  Every request
        through here — and only here; bare :meth:`handle` stays a pure
        routing function for unit tests — updates the in-flight gauge,
        the per-endpoint latency histogram, status-class counters, SLO
        samples, and the flight recorder.
        """
        started = self.telemetry.request_started()
        status = 500
        try:
            status, payload = self.handle(path, params, accept=accept)
        finally:
            # Unknown paths share one "unknown" route label so a URL
            # scanner cannot grow the metric namespace unboundedly.
            route = path if path in self.routes() else "unknown"
            self.telemetry.request_finished(route, status, started)
        return (status,) + http.encode(payload)

    def app(self, method, path, params, body, headers):
        """The :func:`repro.http.make_server` app: ``GET`` or a 405."""
        if method != "GET":
            return 405, self.error(405, f"method {method} not allowed")
        status, data, content_type = self.handle_request(
            path, params, accept=headers.get("Accept"))
        return status, http.Body(data, content_type)

    @staticmethod
    def error(status, message):
        """Count one error response; its versioned error envelope."""
        obs.incr("serve.errors", key=str(status))
        return versioned({"api_version": API_VERSION,
                          "error": {"status": status, "message": message}})

    # -- endpoints ------------------------------------------------------------

    def _healthz(self, params):
        status = self.ingester.status()
        self.telemetry.update_ingest(self.ingester)
        slo = self.telemetry.slo.summary()
        status["slo"] = slo
        # Liveness folds in the SLO verdict: a reachable server that is
        # blowing its objectives reports degraded/failing, not ok.
        status["status"] = slo["status"] if status["finished"] \
            else "ingesting"
        return status
    _healthz.params = ()

    def _metrics(self, params, accept=None):
        return http.metrics(params, accept)
    _metrics.params = ("format",)

    def _slo(self, params):
        self.telemetry.update_ingest(self.ingester)
        return self.telemetry.slo.evaluate()
    _slo.params = ()

    def _debug_recent(self, params):
        recorder = self.telemetry.recorder
        limit = _limit(params)
        events = recorder.snapshot()
        if limit is not None:
            events = events[-limit:] if limit else []
        return {"capacity": recorder.capacity,
                "events_seen": recorder.events_seen,
                "events": events}
    _debug_recent.params = ("limit",)

    def _doc(self, params):
        snapshot = self.snapshots["doc"]
        vendor = http.param(params, "vendor")
        if vendor is None:
            return snapshot
        if vendor not in snapshot["doc_vendor"]:
            raise HTTPError(404, f"unknown vendor {vendor!r}")
        return {"vendor": vendor,
                "doc_vendor": snapshot["doc_vendor"][vendor],
                "doc_device": snapshot["doc_device"][vendor]}
    _doc.params = ("vendor",)

    def _fingerprints(self, params):
        snapshot = self.snapshots["fingerprint_index"]
        fp_id = http.param(params, "id")
        if fp_id is not None:
            entry = snapshot["fingerprints"].get(fp_id)
            if entry is None:
                raise HTTPError(404,
                                f"unknown fingerprint id {fp_id!r}")
            return entry
        limit = _limit(params)
        ids = sorted(snapshot["fingerprints"])
        if limit is not None:
            ids = ids[:limit]
        return {"fingerprint_count": snapshot["fingerprint_count"],
                "ids": ids}
    _fingerprints.params = ("id", "limit")

    def _match_rate(self, params):
        return self.snapshots["match_rate"]
    _match_rate.params = ()

    def _issuers(self, params):
        snapshot = self.snapshots["issuer_shares"]
        vendor = http.param(params, "vendor")
        if vendor is None:
            return snapshot
        column = snapshot["matrix"].get(vendor)
        if column is None:
            raise HTTPError(404, f"unknown vendor {vendor!r}")
        total = sum(column.values())
        return {"vendor": vendor,
                "issuers": {org: count / total
                            for org, count in column.items()}}
    _issuers.params = ("vendor",)

    def _verdicts_route(self, params):
        sni = http.param(params, "sni")
        if sni is None:
            counts = {}
            for verdict in self.verdicts.values():
                counts[verdict["status"]] = \
                    counts.get(verdict["status"], 0) + 1
            return {"verdict_count": len(self.verdicts),
                    "status_counts": dict(sorted(counts.items()))}
        verdict = self.verdicts.get(sni)
        if verdict is None:
            raise HTTPError(404, f"unknown sni {sni!r}")
        return verdict
    _verdicts_route.params = ("sni",)


def make_server(service, host="127.0.0.1", port=0):
    """The query API's HTTP server over ``service`` (port 0: ephemeral)."""
    return http.make_server(service.app, service.error, host, port)


def serve_study(study, host="127.0.0.1", port=0, store=None,
                clock=time.perf_counter):
    """Warm a query service over ``study`` and bind an HTTP server.

    Returns ``(server, service)``; the caller runs the server, with
    ``serve_forever()`` or under :func:`repro.http.serving`.

    Boot activates an enabled observability context if none is active,
    so ``/metrics`` always has a live registry behind it — a server
    embedded by library code (no CLI wrapper) must never answer its
    scrape endpoint with an empty snapshot.
    """
    from repro.ingest.ingester import Ingester
    obs.ensure_enabled()
    ingester = Ingester(study, store=store)
    service = QueryService(study, ingester, clock=clock).warm()
    service.telemetry.update_ingest(ingester)
    return make_server(service, host=host, port=port), service
