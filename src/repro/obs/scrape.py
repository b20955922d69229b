"""Client-side helpers for ``repro obs``: scrape, render, diff.

The ``repro obs`` CLI group inspects a *running* ``repro serve``
process from the outside, the way an operator (or a Prometheus scraper)
would — over plain HTTP, no shared state:

- :func:`scrape` — one GET against the server (through
  :func:`repro.http.request`), JSON or exposition text, with
  connection/HTTP failures folded into a single :class:`ScrapeError`
  whose message is a one-line diagnosis;
- :func:`render_top` — a text dashboard of one poll (health, SLO
  verdicts, request counters, ingest lag, latency histograms), plus
  request-rate deltas against the previous poll;
- :func:`diff_snapshots` / :func:`render_diff` — compare two exported
  metric snapshots and flag regressions (error counters that grew, lag
  gauges that rose, latency distributions that shifted slow).

Everything here returns data or strings — printing belongs to the CLI.
"""

import json

from repro.http import TransportError, request
from repro.obs.metrics import flatten_snapshot
from repro.obs.telemetry import _le_bound

#: counter/family name fragments whose growth counts as a regression.
ERROR_MARKERS = ("error", "fail", "exhausted", "5xx")

#: gauges whose *increase* between snapshots counts as a regression.
LAG_GAUGES = ("ingest.lag_windows", "ingest.last_checkpoint_age",
              "ingest.records_behind")

#: latency-histogram buckets above this bound (ms) count as "slow".
SLOW_MS = 250.0


class ScrapeError(Exception):
    """A failed scrape, with a one-line human-readable message."""


def scrape(base_url, path, timeout=10, as_text=False):
    """GET ``base_url + path``; JSON payload (or raw text).

    Raises :class:`ScrapeError` on connection failures, HTTP errors,
    and unparseable bodies — one line, no traceback.
    """
    url = base_url.rstrip("/") + path
    try:
        status, body = request("GET", url, timeout=timeout)
    except TransportError as exc:
        raise ScrapeError(str(exc)) from None
    if status != 200:
        raise ScrapeError(f"{url}: HTTP {status}")
    try:
        return body.decode("utf-8") if as_text else json.loads(body)
    except ValueError:
        kind = "UTF-8 text" if as_text else "JSON"
        raise ScrapeError(f"{url}: response is not {kind}") from None


def load_export(path):
    """Load an ``obs export`` JSON file; returns the metrics snapshot.

    Accepts either the raw ``/metrics`` envelope or its ``data`` half,
    so hand-trimmed files keep working.  Raises :class:`ScrapeError`
    on unreadable or unrecognizable files.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ScrapeError(f"{path}: {exc.strerror or exc}") from None
    except ValueError:
        raise ScrapeError(f"{path}: not valid JSON") from None
    if isinstance(payload, dict):
        data = payload.get("data", payload)
        if isinstance(data, dict) and isinstance(
                data.get("metrics"), dict):
            return data["metrics"]
    raise ScrapeError(f"{path}: not an obs export "
                      f"(no metrics snapshot inside)")


def _slow_share(members):
    """Fraction of a le-labeled histogram's observations above
    :data:`SLOW_MS` (``None`` when labels are not le bounds)."""
    bounds = {label: _le_bound(label) for label in members}
    if not members or any(bound is None for bound in bounds.values()):
        return None
    total = sum(members.values())
    if total == 0:
        return 0.0
    # A bucket's observations are <= its bound, so a bucket whose
    # *bound* exceeds SLOW_MS holds requests that may be slower.
    slow = sum(count for label, count in members.items()
               if bounds[label] > SLOW_MS)
    return slow / total


def diff_snapshots(before, after, tolerance=0.05):
    """Compare two metric snapshots; returns a structured report.

    ``before`` / ``after`` are :meth:`MetricsRegistry.snapshot` dicts.
    A *regression* is: an error-marked counter that grew, a lag gauge
    that rose, or a latency histogram whose slow share (observations
    above :data:`SLOW_MS` ms) grew by more than ``tolerance``.
    """
    rows_before = dict(flatten_snapshot(before))
    rows_after = dict(flatten_snapshot(after))
    added = sorted(set(rows_after) - set(rows_before))
    removed = sorted(set(rows_before) - set(rows_after))
    changed = []
    for name in sorted(set(rows_before) & set(rows_after)):
        if rows_before[name] != rows_after[name]:
            changed.append({"name": name, "before": rows_before[name],
                            "after": rows_after[name]})
    regressions = []
    for change in changed:
        name = change["name"]
        grew = isinstance(change["after"], (int, float)) \
            and isinstance(change["before"], (int, float)) \
            and change["after"] > change["before"]
        if not grew:
            continue
        base = name.split("{", 1)[0]
        marked = any(marker in name.lower()
                     for marker in ERROR_MARKERS)
        if marked and base not in LAG_GAUGES:
            regressions.append(dict(change, reason="error counter grew"))
        elif base in LAG_GAUGES:
            regressions.append(dict(change, reason="lag gauge rose"))
    for name in sorted(set(before.get("histograms", {}))
                       & set(after.get("histograms", {}))):
        share_before = _slow_share(before["histograms"][name])
        share_after = _slow_share(after["histograms"][name])
        if share_before is None or share_after is None:
            continue
        if share_after - share_before > tolerance:
            regressions.append({
                "name": name,
                "before": round(share_before, 4),
                "after": round(share_after, 4),
                "reason": f"slow share (>{SLOW_MS:g}ms) grew past "
                          f"{tolerance:g}"})
    return {"added": added, "removed": removed, "changed": changed,
            "regressions": regressions,
            "ok": not regressions}


def render_diff(report, limit=20):
    """A diff report as human-readable lines."""
    lines = [f"metrics diff: {len(report['changed'])} changed, "
             f"{len(report['added'])} added, "
             f"{len(report['removed'])} removed"]
    for change in report["changed"][:limit]:
        lines.append(f"  {change['name']}: {change['before']} -> "
                     f"{change['after']}")
    if len(report["changed"]) > limit:
        lines.append(f"  ... {len(report['changed']) - limit} more")
    if report["regressions"]:
        lines.append(f"regressions ({len(report['regressions'])}):")
        for regression in report["regressions"]:
            lines.append(f"  REGRESSION {regression['name']}: "
                         f"{regression['before']} -> "
                         f"{regression['after']} "
                         f"({regression['reason']})")
    else:
        lines.append("no regressions")
    return "\n".join(lines)


def _requests_total(snapshot):
    families = snapshot.get("families", {})
    middleware = families.get("http.requests")
    if middleware:
        return sum(middleware.values())
    # Fallback: routing-level counters (a scrape that predates any
    # middleware-instrumented traffic).
    return sum(families.get("serve.requests", {}).values()) \
        + sum(families.get("serve.errors", {}).values())


def render_top(healthz, slo, metrics, previous=None, interval=None):
    """One ``repro obs top`` frame as text lines.

    ``healthz`` / ``slo`` are the endpoints' ``data`` payloads;
    ``metrics`` the snapshot; ``previous`` the prior poll's snapshot
    (enables the req/s delta over ``interval`` seconds).
    """
    snapshot = metrics.get("metrics", metrics)
    lines = []
    status = healthz.get("status", "?")
    lines.append(
        f"serve: {status}  seed={healthz.get('seed')}  "
        f"windows {healthz.get('windows_ingested')}/"
        f"{healthz.get('windows_total')}  "
        f"records {healthz.get('records_ingested')}")
    rate = ""
    if previous is not None and interval:
        delta = _requests_total(snapshot) - _requests_total(previous)
        rate = f"  ({delta / interval:.1f} req/s)"
    gauges = snapshot.get("gauges", {})
    lines.append(
        f"requests: {_requests_total(snapshot)} total{rate}  "
        f"in-flight {gauges.get('http.in_flight', 0)}  "
        f"ingest lag {gauges.get('ingest.lag_windows', 0)} windows / "
        f"{gauges.get('ingest.records_behind', 0)} records")
    for objective in slo.get("objectives", ()):
        value = objective.get("value")
        shown = "-" if value is None else f"{value:g}"
        lines.append(
            f"slo {objective['status']:<8s} {objective['name']:<20s} "
            f"{objective['kind']} = {shown} "
            f"(target {objective['comparison']} "
            f"{objective['target']:g}, "
            f"samples {objective['samples']})")
    families = snapshot.get("families", {})
    classes = families.get("http.requests", {})
    if classes:
        by_class = "  ".join(f"{key}={value}" for key, value
                             in sorted(classes.items()))
        lines.append(f"status classes: {by_class}")
    by_route = families.get("http.requests_by_route", {})
    for route, count in sorted(by_route.items(),
                               key=lambda kv: (-kv[1], kv[0]))[:6]:
        lines.append(f"  {route:<20s} {count}")
    return "\n".join(lines)
