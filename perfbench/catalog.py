"""Workload and metric names, their units, and span-to-layer mapping.

``BENCHMARK.json`` at the checkout root declares the same names; the
self-tests hold the two in step.  Every workload emits every declared
metric: a layer a workload never runs reports 0 there.
"""

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = ("report-cold", "serve-open", "sweep-cluster")

#: untraced runs: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wait_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: the analysis nodes that run under their own ``analysis.*`` span
#: (``survey`` runs under ``validate.chain``: that is ``x509.validate_s``).
CLIENT_NODES = (
    "matching", "degree_distribution", "doc_vendor", "doc_device",
    "heterogeneity", "vulnerability", "jaccard", "server_proxy",
    "semantics", "versions", "fallback", "ocsp", "grease",
    "lowest_vulnerable_index", "clean_vendors", "preferred_components",
    "ml_attribution",
)
SERVER_NODES = (
    "probe_stats", "issuers", "validation_failures", "private_issuers",
    "expired", "ct", "netflix", "ct_private_figure", "slds", "geo", "lab",
)
NODE_SPANS = tuple([f"analysis.client.{n}" for n in CLIENT_NODES]
                   + [f"analysis.server.{n}" for n in SERVER_NODES])

#: serve-open request kinds: the hot full-snapshot routes of
#: ``repro.ingest.loadgen.DEFAULT_MIX``, then the keyed lookups.
HOT_ROUTES = ("healthz", "doc", "fingerprints", "match-rate", "issuers",
              "verdicts")
KEYED_ROUTES = ("doc-vendor", "issuers-vendor", "fingerprints-id",
                "verdicts-sni")
ROUTES = HOT_ROUTES + KEYED_ROUTES


def _per_layer():
    layers = {
        "inspector.world_s": "s",
        "inspector.dataset_s": "s",
        "inspector.records": "count",
        "libraries.corpus_s": "s",
        "probing.network_s": "s",
        "probing.endpoints": "count",
        "probing.probe_s": "s",
        "probing.probes": "count",
        "probing.attempts": "count",
        "probing.retries": "count",
        "probing.unreachable": "count",
        "x509.validate_s": "s",
        "x509.chains": "count",
        "x509.chains_ok": "count",
    }
    layers.update({f"{span}_s": "s" for span in NODE_SPANS})
    layers.update({
        "report.render_s": "s",
        "ml.train_s": "s",
        "ml.eval_s": "s",
        "ml.features_s": "s",
        "store.writes": "count",
        "store.hits": "count",
        "store.misses": "count",
        "store.errors": "count",
        "store.hit_ratio": "fraction",
        "store.put_s": "s",
        "store.get_s": "s",
        "sweep.unit_s": "s",
        "fabric.overhead_s": "s",
        "fabric.leases": "count",
        "fabric.steals": "count",
        "fabric.lease_expired": "count",
        "fabric.failures": "count",
        "fabric.blob_writes": "count",
        "fabric.blob_reads": "count",
        "fabric.blob_misses": "count",
        "ingest.run_s": "s",
        "ingest.records": "count",
        "ingest.windows": "count",
    })
    layers.update({f"ingest.handle_us.{route}": "us" for route in ROUTES})
    layers.update({
        "http.overhead_ms": "ms",
        "http.sent": "count",
        "http.failed": "count",
        "loadgen.late_p99_ms": "ms",
        "obs.trace_overhead_pct": "%",
        "unattributed_s": "s",
    })
    return layers


#: traced runs: name -> unit.
PER_LAYER = _per_layer()

#: span name (harness or program) -> the self-time metric it feeds.
SPAN_LAYER = {
    "Study.world": "inspector.world_s",
    "Study.dataset": "inspector.dataset_s",
    "Study.corpus": "libraries.corpus_s",
    "Study.network": "probing.network_s",
    "Study.certificates": "probing.probe_s",
    "validate.chain": "x509.validate_s",
    "validate_all": "x509.validate_s",
    "render_report": "report.render_s",
    "ml.train": "ml.train_s",
    "ml.eval": "ml.eval_s",
    "ml.features": "ml.features_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "Ingester.run": "ingest.run_s",
}
SPAN_LAYER.update({span: f"{span}_s" for span in NODE_SPANS})


def layer_of(span_name):
    return SPAN_LAYER.get(span_name)


def zero_layers():
    """Every per-layer metric at 0 (a workload fills in what it ran)."""
    return {name: 0 for name in PER_LAYER}


def result(metrics, units, attempted, failed, extra_ok=True):
    """The JSON result object, printed as the last stdout line."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise ValueError(f"metrics not measured: {missing}")
    return {
        "correct": bool(failed == 0 and extra_ok),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
