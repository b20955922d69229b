"""Workload ``serve-open``: a ``repro serve`` process under open-loop load.

The server child boots the seed's study exactly as ``serve_study`` does
with no cache directory, records the in-process
``QueryService.handle_request`` answer to every request it can be sent,
and serves.  A separate generator child then drives it open-loop over
the ladder :data:`LADDER` (requests per second), at most two senders,
one fresh connection per request.  Each step sends the same number of
requests, sized so the steps together last ``--seconds``.

The seeded request mix is half the hot full-snapshot routes of
``repro.ingest.loadgen.DEFAULT_MIX`` and half keyed lookups spread over
every vendor, fingerprint id and SNI the server holds.

Run directly only as a child of ``run.py``::

    python3 perfbench/serve_open.py server --seed S --trace 0 ...
    python3 perfbench/serve_open.py loadgen --port P --seed S ...
"""

import argparse
import http.client
import os
import random
import subprocess
import sys
import threading
import time
from urllib.parse import parse_qs, urlencode, urlparse

import catalog
import common
import openloop
from checks import Tally, body_digest, check_response
from spans import SpanLog, adds_up, attribute

#: offered load per step (requests per second).  The knee moves with
#: the load on the host: on two cores it sat near 1,800 req/s in quiet
#: periods and fell to 400-800 req/s in busy ones, so the ladder spans
#: both.  The end-to-end figures come from NOMINAL, below the knee in
#: every period seen.
LADDER = (200, 500, 1000, 1500, 2200)
NOMINAL = 200

SENDERS = 2

#: requests in each ladder step above the nominal rate.
STEP_REQUESTS = 1000

#: unmeasured load at the nominal rate before the ladder starts.
WARMUP_S = 1.0

#: the keyed lookup behind each keyed route: (path, query parameter).
KEYED = {
    "doc-vendor": ("/v1/doc", "vendor"),
    "issuers-vendor": ("/v1/issuers", "vendor"),
    "fingerprints-id": ("/v1/fingerprints", "id"),
    "verdicts-sni": ("/v1/verdicts", "sni"),
}


def route_of(path, params):
    """The route label of a request (``catalog.ROUTES``)."""
    name = path.rsplit("/", 1)[-1]
    for label, (keyed_path, param) in KEYED.items():
        if path == keyed_path and param in params:
            return label
    return name


def hot_urls():
    from repro.ingest.loadgen import DEFAULT_MIX
    return list(DEFAULT_MIX)


def keyed_urls(service):
    """Every keyed lookup URL the server can answer, by route."""
    snapshots = service.snapshots
    keys = {
        "doc-vendor": sorted(snapshots["doc"]["doc_vendor"]),
        "issuers-vendor": sorted(snapshots["issuer_shares"]["matrix"]),
        "fingerprints-id": sorted(
            snapshots["fingerprint_index"]["fingerprints"]),
        "verdicts-sni": sorted(service.verdicts),
    }
    return {route: [f"{KEYED[route][0]}?{urlencode({KEYED[route][1]: k})}"
                    for k in values]
            for route, values in keys.items()}


# -- server child -------------------------------------------------------------


def server(args):
    from repro import obs
    from repro.config import StudyConfig
    from repro.ingest import Ingester, QueryService, serve_study
    from repro.ingest import server as ingest_server
    from repro.study import Study

    log = ctx = None
    handled = []
    recording = threading.Event()
    if args.trace:
        log = SpanLog()
        ctx = obs.Observability()
        obs.activate(ctx)
        for prop in ("world", "dataset", "corpus", "network",
                     "certificates"):
            log.wrap_build(Study, prop, f"Study.{prop}")
        Ingester.run = log.wrap("Ingester.run", Ingester.run)
        QueryService.warm = log.wrap("QueryService.warm", QueryService.warm)
        ingest_server.validate_all = log.wrap("validate_all",
                                              ingest_server.validate_all)
        plain_handle = QueryService.handle_request

        def handle_request(service, path, params=None, accept=None):
            began = time.monotonic()
            answer = plain_handle(service, path, params, accept=accept)
            if recording.is_set():
                handled.append((route_of(path, params or {}), began,
                                time.monotonic() - began))
            return answer
        QueryService.handle_request = handle_request

    started = time.perf_counter()
    study = Study(StudyConfig(seed=args.seed))
    httpd, service = serve_study(study)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    setup_s = time.monotonic() - args.t_spawn
    booted = time.perf_counter()

    answers = {}
    keyed = keyed_urls(service)
    urls = hot_urls() + [url for route_urls in keyed.values()
                         for url in route_urls]
    for url in urls:
        parsed = urlparse(url)
        status, body, _ = service.handle_request(
            parsed.path, parse_qs(parsed.query, keep_blank_values=True))
        if status == 200:
            answers[url] = body_digest(body)
    common.write_json(args.answers, {"answers": answers, "keyed": keyed,
                                     "hot": hot_urls()})
    recording.set()
    cpu0 = common.cpu_seconds()
    common.write_json(args.ready, {"port": httpd.server_address[1]})
    sys.stdin.read()  # the parent closes stdin when the load is over
    cpu_s = common.cpu_seconds() - cpu0
    httpd.shutdown()
    httpd.server_close()
    out = {"setup_s": setup_s, "boot_s": booted - started,
           "cpu_s": cpu_s, "peak_rss_mb": common.peak_rss_mb()}
    if ctx is not None:
        obs.deactivate()
        log.fold(ctx.tracer)
        selves, unattributed, residual = attribute(
            log.spans, catalog.layer_of, (started, booted))
        verdicts = service.verdicts.values()
        out.update(
            layers=selves, unattributed_s=unattributed, residual_s=residual,
            handled=handled,
            counts=dict(
                common.study_counts(study),
                **{"x509.chains": len(verdicts),
                   "x509.chains_ok": sum(1 for v in verdicts if v["valid"]),
                   "ingest.records": service.ingester.records_ingested,
                   "ingest.windows": service.ingester.stream.window_count}))
    common.write_json(args.out, out)


# -- generator child ----------------------------------------------------------


def request_mix(seed, count, hot, keyed):
    """``count`` seeded ``(route, url)`` pairs: half hot, half keyed."""
    rng = random.Random(f"serve-open:{seed}:{count}")
    kinds = [True] * (count // 2) + [False] * (count - count // 2)
    rng.shuffle(kinds)
    routes = sorted(keyed)
    mix = []
    for is_hot in kinds:
        if is_hot:
            url = rng.choice(hot)
            parsed = urlparse(url)
            mix.append((route_of(parsed.path, parse_qs(parsed.query)), url))
        else:
            route = rng.choice(routes)
            mix.append((route, rng.choice(keyed[route])))
    return mix


def http_get(port, url, timeout=10.0):
    """One GET on a fresh connection; ``(status or None, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", url, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return None, b""
    finally:
        conn.close()


def steps_for(seconds):
    """Requests per ladder step, so that the ladder lasts ``seconds``.

    Each step above the nominal rate sends :data:`STEP_REQUESTS`, enough
    for a p99 with ten samples beyond it; the nominal step gets the rest
    of the time.
    """
    others = sum(STEP_REQUESTS / rate for rate in LADDER if rate != NOMINAL)
    nominal = max(STEP_REQUESTS, int((seconds - others) * NOMINAL))
    return {rate: nominal if rate == NOMINAL else STEP_REQUESTS
            for rate in LADDER}


def loadgen(args):
    plan = common.read_json(args.answers)
    expected = plan["answers"]
    tally = Tally()
    tally_lock = threading.Lock()

    def offer(rate, count, salt):
        mix = request_mix(args.seed + salt, count, plan["hot"],
                          plan["keyed"])

        def send(index):
            route, url = mix[index]
            status, body = http_get(args.port, url)
            digest = body_digest(body) if status else None
            with tally_lock:
                return check_response(tally, route, url, status, digest,
                                      expected)
        loop = openloop.OpenLoop([i / rate for i in range(count)], send)
        began = time.monotonic()
        records = loop.run(SENDERS)
        time.sleep(0.2)
        return records, (began, time.monotonic())

    # Unmeasured warm-up: the first requests after boot meet cold
    # caches in both processes.
    offer(NOMINAL, int(WARMUP_S * NOMINAL), 0)
    counts = steps_for(args.seconds)
    steps = []
    for rate in LADDER:
        records, window = offer(rate, counts[rate], rate)
        step = openloop.summarize(records, rate)
        step["window"] = window
        steps.append(step)
    common.write_json(args.out, {"steps": steps,
                                 "checks": tally.to_json()})


# -- parent -------------------------------------------------------------------


def _one_server(work_dir, name, seed, seconds, trace, deadline):
    """Boot a server child, load it, stop it; returns both results."""
    answers = os.path.join(work_dir, f"{name}-answers.json")
    ready = os.path.join(work_dir, f"{name}-ready.json")
    out = os.path.join(work_dir, f"{name}-server.json")
    load_out = os.path.join(work_dir, f"{name}-load.json")
    args = [os.path.join(common.HERE, "serve_open.py"), "server",
            "--seed", str(seed), "--trace", str(int(trace)),
            "--answers", answers, "--ready", ready, "--out", out,
            "--t-spawn", repr(time.monotonic())]
    process = common.spawn(args, work_dir, f"{name}-server.log",
                           stdin=subprocess.PIPE)
    try:
        while not os.path.exists(ready):
            if process.poll() is not None:
                raise common.BenchError(
                    f"{name} server exited {process.returncode}\n"
                    + common.log_tail(work_dir, f"{name}-server.log"))
            if time.monotonic() > deadline:
                raise common.BenchError(f"{name} server did not boot")
            time.sleep(0.05)
        port = common.read_json(ready)["port"]
        common.run_child(
            [os.path.join(common.HERE, "serve_open.py"), "loadgen",
             "--port", str(port), "--seed", str(seed),
             "--seconds", str(seconds), "--answers", answers,
             "--out", load_out],
            work_dir, f"{name}-load.log", deadline)
        process.stdin.close()
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise common.BenchError(
                f"{name} server exited {code}\n"
                + common.log_tail(work_dir, f"{name}-server.log"))
    except subprocess.TimeoutExpired:
        raise common.BenchError(f"{name} server did not stop")
    finally:
        common.stop(process)
    return common.read_json(out), common.read_json(load_out)


def _ladder_notes(steps):
    """Every step's figures; a step the generator fell behind on shows
    only its counts and lateness, since its latencies mean nothing."""
    keys = ("rate", "sent", "failed", "late_p99_ms", "valid")
    figures = ("p50_ms", "p99_ms", "achieved_rps", "backlog_growing")
    return [{key: step[key]
             for key in keys + (figures if step["valid"] else ())}
            for step in steps]


def run(seed, seconds, trace, work_dir, deadline):
    tally = Tally()
    served, load = _one_server(work_dir, "plain", seed, seconds, False,
                               deadline)
    tally.absorb(load["checks"])
    nominal = next(s for s in load["steps"] if s["rate"] == NOMINAL)
    e2e = {
        "setup_s": served["setup_s"],
        "wait_s": nominal["p50_ms"] / 1000.0,
        "cpu_s": served["cpu_s"],
        "peak_rss_mb": served["peak_rss_mb"],
    }
    notes = {
        "setup_s": served["setup_s"],
        "query_p50_ms": nominal["p50_ms"],
        "query_p99_ms": nominal["p99_ms"],
        "query_samples": nominal["sent"],
        "nominal_step_valid": nominal["valid"],
        "max_qps": openloop.max_qps(load["steps"]),
        "peak_rss_mb": served["peak_rss_mb"],
        "ladder": _ladder_notes(load["steps"]),
    }
    if not trace:
        return e2e, tally, True, notes
    traced, traced_load = _one_server(work_dir, "traced", seed, seconds,
                                      True, deadline)
    after, after_load = _one_server(work_dir, "after", seed, seconds,
                                    False, deadline)
    tally.absorb(traced_load["checks"])
    tally.absorb(after_load["checks"])
    layers = catalog.zero_layers()
    layers.update(traced["layers"])
    layers.update(traced["counts"])
    by_route = {}
    for route, _began, seconds_taken in traced["handled"]:
        by_route.setdefault(route, []).append(seconds_taken * 1e6)
    for route, values in by_route.items():
        layers[f"ingest.handle_us.{route}"] = common.median(values)
    traced_nominal = next(s for s in traced_load["steps"]
                          if s["rate"] == NOMINAL)
    lo, hi = traced_nominal["window"]
    in_window = [taken for _route, began, taken in traced["handled"]
                 if lo <= began <= hi]
    layers["http.overhead_ms"] = traced_nominal["p50_ms"] - \
        1000.0 * common.median(in_window)
    layers["http.sent"] = sum(s["sent"] for s in traced_load["steps"])
    layers["http.failed"] = sum(s["failed"] for s in traced_load["steps"])
    layers["loadgen.late_p99_ms"] = traced_nominal["late_p99_ms"]
    layers["unattributed_s"] = traced["unattributed_s"]
    layers["obs.trace_overhead_pct"] = common.overhead_pct(
        traced["boot_s"], served["boot_s"], after["boot_s"])
    notes.update(traced_wall_s=traced["boot_s"],
                 attribution_residual_s=traced["residual_s"],
                 traced_ladder=_ladder_notes(traced_load["steps"]))
    ok = adds_up(traced["residual_s"], traced["boot_s"])
    return layers, tally, ok, notes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("server", "loadgen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t-spawn", type=float)
    parser.add_argument("--answers", required=True)
    parser.add_argument("--ready")
    parser.add_argument("--out", required=True)
    parser.add_argument("--port", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.role == "server":
        server(args)
    else:
        loadgen(args)


if __name__ == "__main__":
    sys.exit(main())
