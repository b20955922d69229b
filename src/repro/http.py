"""``repro.http`` — the one HTTP layer under both servers and every client.

Server half: a service is an *app*, ``app(method, path, params, body,
headers) -> (status, payload)`` with a JSON dict or a :class:`Body` as
payload, plus ``error(status, message)``, which builds its JSON error
body.  :func:`make_server` runs the app behind one request handler that
owns every transport rule: a connection idle for :data:`IDLE_TIMEOUT_S`
is closed (the timeout bounds each socket send, never a whole
response); every request body is read before the app runs, and a
malformed, chunked or oversized one is refused and closes the
connection (unread, it would be parsed as the next request); every
error, ``http.server``'s own included, carries the service's JSON body.

Client half: :func:`request`.  Any HTTP status is an answer; anything
short of a complete one raises a one-line :class:`TransportError`.
"""

import http.client
import json
import threading
from contextlib import contextmanager
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse, urlsplit

from repro import obs
from repro.obs.telemetry import render_prometheus

#: seconds a server connection may sit idle (or stall mid-request).
IDLE_TIMEOUT_S = 30.0

#: the largest request body a server accepts (a unit result, a blob).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: how often a :func:`serving` loop checks for shutdown: leaving the
#: block waits up to this long (the stdlib default is 0.5 s).
SHUTDOWN_POLL_S = 0.05


class HTTPError(Exception):
    """An HTTP error response: status + one-line message."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = int(status)
        self.message = message


class TransportError(Exception):
    """No complete HTTP answer arrived (one-line message)."""


class Body:
    """A non-JSON response body: raw bytes and their content type."""

    #: the content type Prometheus scrapers expect.
    PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self, data, content_type="application/octet-stream"):
        self.data = data
        self.content_type = content_type


def encode(payload):
    """``(body bytes, content type)`` of a JSON dict or a :class:`Body`."""
    if isinstance(payload, Body):
        return payload.data, payload.content_type
    return (json.dumps(payload, sort_keys=True).encode("utf-8"),
            "application/json")


def param(params, name):
    """The single value of query param ``name``, or ``None``.

    Empty and repeated values are malformed (400).
    """
    if name not in params:
        return None
    values = [value for value in params[name] if value]
    if len(values) != 1:
        raise HTTPError(400, f"parameter {name!r} needs exactly one "
                             f"non-empty value")
    return values[0]


def metrics(params, accept=None):
    """The one ``/metrics`` page: the active :mod:`repro.obs` registry.

    JSON by default; exposition text for ``?format=prom``, or for an
    ``Accept`` header that lists ``text/plain`` but not JSON — so
    ``*/*`` (browsers, HTTP libraries) keeps JSON and ``curl -H 'Accept:
    text/plain'`` (a scraper) gets text.  ``format`` beats the header,
    and a repeated, empty or unknown one is a 400.
    """
    if "format" in params:
        fmt = param(params, "format")
    else:
        fmt = "prom" if accept and "text/plain" in accept \
            and "application/json" not in accept else "json"
    if fmt not in ("json", "prom"):
        raise HTTPError(400, f"unknown metrics format {fmt!r} "
                             f"(expected json or prom)")
    ctx = obs.current()
    snapshot = ctx.metrics.snapshot() if ctx.enabled else {}
    if fmt == "prom":
        return Body(render_prometheus(snapshot).encode("utf-8"),
                    Body.PROMETHEUS)
    return {"enabled": ctx.enabled, "metrics": snapshot}


class _Handler(BaseHTTPRequestHandler):
    """The request handler under every server (see the module doc)."""

    protocol_version = "HTTP/1.1"
    #: read by ``StreamRequestHandler.setup`` as the socket timeout.
    timeout = IDLE_TIMEOUT_S
    #: a buffered writer sends with one ``send()`` per slice, each under
    #: the timeout; the unbuffered one's ``sendall()`` bounds the whole
    #: response, which would cut off a slow reader of a large blob.
    wbufsize = 64 * 1024

    def _dispatch(self):
        try:
            body = self._body()
        except HTTPError as exc:
            self.send_error(exc.status, exc.message)
            return
        url = urlparse(self.path)
        self._send(*self.server.app(
            self.command, url.path,
            parse_qs(url.query, keep_blank_values=True), body,
            self.headers))

    do_GET = do_HEAD = do_POST = do_PUT = do_DELETE = _dispatch

    def _body(self):
        """The request body; :class:`HTTPError` when it cannot be read."""
        if "Transfer-Encoding" in self.headers:
            raise HTTPError(411, "chunked request bodies are not "
                                 "supported; send a Content-Length")
        # A repeated header joins to "a,b", which fails the digit test.
        header = ",".join(self.headers.get_all("Content-Length") or ["0"])
        if not (header.isascii() and header.isdigit()):
            raise HTTPError(400, f"malformed Content-Length "
                                 f"{header[:32]!r}")
        # int() refuses thousands of digits; any such length is too big.
        length = int(header) if len(header) < 64 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            raise HTTPError(413, "request body too large")
        return self.rfile.read(length) if length else b""

    def _send(self, status, payload):
        data, content_type = encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)

    def send_error(self, code, message=None, explain=None):
        """Any error, ``http.server``'s own too, as the service's body."""
        if self.request_version == "HTTP/0.9":
            # A request line too broken to name its version still gets
            # a status line and headers.
            self.request_version = self.protocol_version
        self.close_connection = True
        self._send(code, self.server.error(
            code, message or HTTPStatus(code).phrase))

    def log_message(self, format, *args):
        """Suppress per-request stderr noise; obs counters cover it."""


def make_server(app, error, host="127.0.0.1", port=0):
    """A threaded server running ``app`` (port 0: ephemeral).

    ``server.url`` is its base URL.  The caller owns ``serve_forever()``,
    or runs it under :func:`serving`.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.app = app
    server.error = error
    server.url = "http://%s:%d" % server.server_address[:2]
    return server


@contextmanager
def serving(server):
    """Serve on a daemon thread; always shut down and close on exit."""
    thread = threading.Thread(target=server.serve_forever,
                              args=(SHUTDOWN_POLL_S,), daemon=True)
    thread.start()
    try:
        yield
    finally:
        server.shutdown()
        server.server_close()


def request(method, url, body=None, headers=None, timeout=10.0):
    """One exchange on a fresh connection: ``(status, body bytes)``.

    Raises :class:`TransportError` (``"<url>: <reason>"``) when no
    complete answer arrives.
    """
    parts = urlsplit(url)
    if parts.scheme != "http" or not parts.netloc:
        raise TransportError(f"{url}: not an http:// URL")
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    try:
        conn = http.client.HTTPConnection(parts.netloc, timeout=timeout)
        try:
            conn.request(method, target, body=body,
                         headers={"Connection": "close", **(headers or {})})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()
    except (OSError, http.client.HTTPException) as exc:
        # BadStatusLine's text is the raw line, CRLF included, so any
        # non-OS error shows as its escaped repr.
        reason = str(exc) if isinstance(exc, OSError) else repr(exc)
        reason = " ".join(reason.split()) or type(exc).__name__
        raise TransportError(f"{url}: {reason}") from None
