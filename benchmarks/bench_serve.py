"""Streaming-ingest + query-service benchmark for ``repro.ingest``.

Times two things over a warmed study and writes ``BENCH_serve.json``:

1. **ingest throughput** — a fresh :class:`~repro.ingest.Ingester`
   folding the full capture window by window into its growing
   dataset, best-of-``--repeat``; the headline ``records_per_sec`` is
   what the bench gate floors;
2. **query latency** — the stdlib load generator hammering a warm
   ``repro serve`` instance with the hot-endpoint mix from concurrent
   workers; p50/p99 per-request wall latency and sustained q/s.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        [--seed 2023] [--repeat 3] [-o BENCH_serve.json]
"""

import argparse
import json
import pathlib
import sys
import time

from repro.config import StudyConfig
from repro.http import serving
from repro.ingest import Ingester, QueryService, make_server, run_load
from repro.study import Study


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed ingest repetitions; best-of wins "
                             "(default %(default)s)")
    parser.add_argument("--requests", type=int, default=120,
                        help="load-generator requests per worker "
                             "(default %(default)s)")
    parser.add_argument("--workers", type=int, default=4,
                        help="concurrent load-generator workers "
                             "(default %(default)s)")
    parser.add_argument("-o", "--output", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    study = Study(config=StudyConfig(seed=args.seed))
    print("warming study artifacts (world, capture, probes)...")
    study.dataset, study.certificates, study.corpus  # noqa: B018

    print(f"timing full-stream ingest, best of {args.repeat}...")
    best_seconds = float("inf")
    ingester = None
    for _ in range(args.repeat):
        candidate = Ingester(study)
        started = time.perf_counter()
        candidate.run(resume=False)
        elapsed = time.perf_counter() - started
        if elapsed < best_seconds:
            best_seconds, ingester = elapsed, candidate
    records = ingester.records_ingested
    records_per_sec = records / best_seconds
    print(f"  ingested {records} records / "
          f"{ingester.stream.window_count} windows in "
          f"{best_seconds:.3f}s ({records_per_sec:,.0f} records/s)")

    service = QueryService(study, ingester).warm()
    server = make_server(service)
    print(f"load-testing {server.url} with "
          f"{args.workers} workers x {args.requests} requests...")
    with serving(server):
        load = run_load(server.url, requests_per_worker=args.requests,
                        workers=args.workers)
    summary = load.to_json()
    print(f"  {summary['requests']} requests, {summary['errors']} "
          f"errors: {summary['qps']:,.0f} q/s, "
          f"p50 {summary['p50_ms']} ms, p99 {summary['p99_ms']} ms")

    ok = summary["errors"] == 0
    payload = {
        "seed": args.seed,
        "repeat": args.repeat,
        "records": records,
        "windows": ingester.stream.window_count,
        "ingest_seconds": round(best_seconds, 4),
        "records_per_sec": round(records_per_sec, 1),
        "query_requests": summary["requests"],
        "query_errors": summary["errors"],
        "query_qps": summary["qps"],
        "query_p50_ms": summary["p50_ms"],
        "query_p99_ms": summary["p99_ms"],
        "ok": ok,
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    if not ok:
        print(f"FAIL: {summary['errors']} load-generator errors",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
