"""A stdlib load generator for the ``repro serve`` query API.

Drives a warm server with a deterministic round-robin mix of the hot
endpoints from ``workers`` threads (:func:`repro.http.request`
clients), recording per-request wall latencies.  The summary —
sustained queries/sec plus p50/p99 latency — is what
``benchmarks/bench_serve.py`` folds into ``BENCH_serve.json`` for the
bench gate.

No randomness: the request mix is a fixed rotation, so two runs against
the same server issue the identical request sequence.
"""

import json
import threading
import time

from repro.http import TransportError, request

#: the hot-path request mix, rotated round-robin by every worker.
DEFAULT_MIX = (
    "/healthz",
    "/v1/doc",
    "/v1/fingerprints?limit=25",
    "/v1/match-rate",
    "/v1/issuers",
    "/v1/verdicts",
)


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class LoadResult:
    """Latency + throughput summary of one load run."""

    def __init__(self, latencies_ms, errors, duration_s):
        self.latencies_ms = sorted(latencies_ms)
        self.errors = errors
        self.duration_s = duration_s

    @property
    def requests(self):
        return len(self.latencies_ms)

    @property
    def qps(self):
        if self.duration_s <= 0:
            return 0.0
        return self.requests / self.duration_s

    def to_json(self):
        return {
            "requests": self.requests,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 4),
            "qps": round(self.qps, 2),
            "p50_ms": round(percentile(self.latencies_ms, 0.50), 3),
            "p99_ms": round(percentile(self.latencies_ms, 0.99), 3),
            "max_ms": round(self.latencies_ms[-1], 3)
            if self.latencies_ms else 0.0,
        }


def _worker(base_url, mix, offset, requests, latencies, errors, lock):
    local_latencies = []
    local_errors = 0
    for i in range(requests):
        url = base_url + mix[(offset + i) % len(mix)]
        begin = time.perf_counter()
        try:
            status, body = request("GET", url, timeout=10)
            payload = json.loads(body)
            if status != 200 or not isinstance(payload, dict) \
                    or "data" not in payload:
                local_errors += 1
        except (TransportError, ValueError):
            local_errors += 1
        local_latencies.append(
            (time.perf_counter() - begin) * 1000.0)
    with lock:
        latencies.extend(local_latencies)
        errors.append(local_errors)


def run_load(base_url, requests_per_worker=50, workers=4,
             mix=DEFAULT_MIX):
    """Hammer ``base_url`` and return a :class:`LoadResult`.

    ``base_url`` is e.g. ``http://127.0.0.1:8437`` (no trailing slash).
    Workers start at staggered offsets into the mix so concurrent
    requests exercise different endpoints.
    """
    latencies, errors = [], []
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_worker,
            args=(base_url, tuple(mix), index, requests_per_worker,
                  latencies, errors, lock),
            daemon=True)
        for index in range(workers)
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - begin
    return LoadResult(latencies, sum(errors), duration)
