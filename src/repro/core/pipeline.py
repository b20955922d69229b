"""One-call orchestration of the full study.

``run_full_study`` executes every analysis and returns a nested dict of
results — the programmatic equivalent of regenerating all tables and
figures.  Examples and the integration tests drive this.

Since the ``repro.store`` refactor the hand-ordered call sequence is a
*declarative registry*: :data:`CLIENT_ANALYSES` and
:data:`SERVER_ANALYSES` list one :class:`~repro.store.scheduler.AnalysisSpec`
per analysis (name, inputs, function), declared in dependency order,
and an :class:`~repro.store.scheduler.AnalysisScheduler` executes the
registry in that order (the output dict keeps it, and every node is a
pure function of its declared inputs).

When the study carries an :class:`~repro.store.artifact.ArtifactStore`
(``study.attach_store(...)``, or the CLI's ``--cache-dir``), every node
consults the store before computing, so a warm re-run touches neither
the world generator nor the prober and finishes near-instantly.

Every analysis still runs inside its own ``repro.obs`` span
(``analysis.client.<name>`` / ``analysis.server.<name>``), so a traced
run (``repro report --trace trace.jsonl``) shows exactly where the
pipeline's time goes.  With observability disabled (the default) the
spans are no-ops.
"""

from repro import obs
from repro.core import (
    chains,
    ct_validity,
    customization,
    geo,
    issuers,
    labcompare,
    matching,
    params,
    preferences,
    security,
    semantics,
    sharing,
    slds,
)
from repro.inspector.timeline import PROBE_TIME
from repro.store.scheduler import AnalysisScheduler, AnalysisSpec


def _ml_attribution(resources):
    """Learned-attribution eval payload (ROADMAP item 4).

    Deferred import: ``repro.ml`` pulls in numpy, which ``import
    repro`` (and every stdlib-only pipeline node) must not.  Training
    is memoized per config inside ``repro.ml``, so the node, the
    figure exporter, and the CLI share one run per process.
    """
    from repro.ml import evaluate_components
    return evaluate_components(resources["dataset"],
                               resources["corpus"],
                               resources["world"],
                               resources["config"])

#: Section 4 + Appendix B (client-side) analyses, in paper order.
CLIENT_ANALYSES = (
    AnalysisSpec(
        "matching", inputs=("dataset", "corpus"),
        fn=lambda r: matching.match_report(r["dataset"], r["corpus"])),
    AnalysisSpec(
        "degree_distribution", inputs=("dataset",),
        fn=lambda r: customization.degree_distribution(r["dataset"])),
    AnalysisSpec(
        "doc_vendor", inputs=("dataset",),
        fn=lambda r: customization.doc_vendor_all(r["dataset"])),
    AnalysisSpec(
        "doc_device", inputs=("dataset",),
        fn=lambda r: customization.doc_device_all(r["dataset"])),
    AnalysisSpec(
        "heterogeneity", inputs=("dataset",),
        fn=lambda r: customization.top_vendor_heterogeneity(
            r["dataset"])),
    AnalysisSpec(
        "vulnerability", inputs=("dataset",),
        fn=lambda r: security.vulnerability_report(r["dataset"])),
    AnalysisSpec(
        "jaccard", inputs=("dataset",), provides=("jaccard_pairs",),
        fn=lambda r: sharing.vendor_similarity_pairs(r["dataset"])),
    AnalysisSpec(
        "server_proxy", inputs=("dataset", "corpus"),
        provides=("server_tie_fraction", "server_ties"),
        fn=lambda r: sharing.server_specific_fingerprints(r["dataset"],
                                                          r["corpus"])),
    AnalysisSpec(
        "semantics", inputs=("dataset", "corpus"),
        provides=("semantic_summary",),
        fn=lambda r: semantics.semantic_summary(
            semantics.semantic_fingerprinting(r["dataset"],
                                              r["corpus"]))),
    AnalysisSpec(
        "versions", inputs=("dataset",),
        fn=lambda r: params.version_proposals(r["dataset"])),
    AnalysisSpec(
        "fallback", inputs=("dataset",),
        fn=lambda r: params.fallback_scsv_usage(r["dataset"])),
    AnalysisSpec(
        "ocsp", inputs=("dataset",),
        fn=lambda r: params.ocsp_usage(r["dataset"])),
    AnalysisSpec(
        "grease", inputs=("dataset",),
        fn=lambda r: params.grease_usage(r["dataset"])),
    AnalysisSpec(
        "lowest_vulnerable_index", inputs=("dataset",),
        fn=lambda r: preferences.lowest_vulnerable_index(r["dataset"])),
    AnalysisSpec(
        "clean_vendors", inputs=("dataset",),
        fn=lambda r: preferences.vendors_without_vulnerable(
            r["dataset"])),
    AnalysisSpec(
        "preferred_components", inputs=("dataset",),
        fn=lambda r: preferences.preferred_components(r["dataset"])),
    AnalysisSpec(
        "ml_attribution",
        inputs=("dataset", "corpus", "world", "config"),
        fn=_ml_attribution),
)

#: Section 5 + Appendix C (server-side) analyses.  ``survey`` is itself
#: a node: validation runs once and everything downstream depends on it.
SERVER_ANALYSES = (
    AnalysisSpec(
        "probe_stats", inputs=("certificates",),
        fn=lambda r: (r["certificates"].stats.to_json()
                      if r["certificates"].stats is not None else None)),
    AnalysisSpec(
        "issuers", inputs=("dataset", "certificates", "ecosystem"),
        fn=lambda r: issuers.issuer_report(r["dataset"],
                                           r["certificates"],
                                           r["ecosystem"])),
    AnalysisSpec(
        "survey", inputs=("certificates", "validator"),
        span="validate.chain",
        fn=lambda r: chains.validate_all(r["certificates"],
                                         r["validator"], at=PROBE_TIME),
        tally=lambda span, survey: span.incr("chains",
                                             len(survey.reports))),
    AnalysisSpec(
        "validation_failures",
        inputs=("survey", "dataset", "ecosystem"),
        fn=lambda r: chains.validation_failure_rows(
            r["survey"], r["dataset"], r["ecosystem"])),
    AnalysisSpec(
        "private_issuers", inputs=("survey", "dataset", "ecosystem"),
        provides=("private_issuer_rows",),
        fn=lambda r: chains.private_issuer_rows(
            r["survey"], r["dataset"], r["ecosystem"])),
    AnalysisSpec(
        "expired", inputs=("certificates", "dataset"),
        fn=lambda r: chains.expired_rows(r["certificates"],
                                         r["dataset"])),
    AnalysisSpec(
        "ct",
        inputs=("dataset", "certificates", "survey", "ecosystem",
                "ct_logs"),
        fn=lambda r: ct_validity.ct_report(
            r["dataset"], r["certificates"], r["survey"],
            r["ecosystem"], r["ct_logs"])),
    AnalysisSpec(
        "netflix", inputs=("certificates", "ct_logs"),
        fn=lambda r: ct_validity.netflix_rows(r["certificates"],
                                              r["ct_logs"])),
    AnalysisSpec(
        "ct_private_figure", inputs=("survey", "ecosystem", "ct_logs"),
        fn=lambda r: ct_validity.private_chain_ct_figure(
            r["survey"], r["ecosystem"], r["ct_logs"])),
    AnalysisSpec(
        "slds", inputs=("dataset", "certificates"),
        provides=("slds", "sld_stats"),
        fn=lambda r: (lambda rows: (rows, slds.sld_statistics(rows)))(
            slds.sld_rows(r["dataset"], r["certificates"]))),
    AnalysisSpec(
        "geo", inputs=("certificates",),
        fn=lambda r: geo.geo_comparison(r["certificates"])),
    AnalysisSpec(
        "lab", inputs=("dataset", "certificates", "network"),
        fn=lambda r: labcompare.lab_comparison(
            r["dataset"], r["certificates"], r["network"])),
)


def _scheduler(specs, side, study, store, node_observer=None):
    if store is None:
        store = getattr(study, "store", None)
    return AnalysisScheduler(specs, side=side, store=store,
                             config=study.config,
                             node_observer=node_observer)


def run_client_side(study, store=None, node_observer=None):
    """Section 4 + Appendix B analyses.

    ``store`` defaults to the study's attached artifact store (if any).
    ``node_observer`` (see :class:`AnalysisScheduler`) lets the
    conformance harness watch every node's packed result.
    """
    with obs.span("analysis.client") as side_span:
        scheduler = _scheduler(CLIENT_ANALYSES, "client", study, store,
                               node_observer)
        results = scheduler.run({
            "dataset": lambda: study.dataset,
            "corpus": lambda: study.corpus,
            "world": lambda: study.world,
            "config": lambda: study.config,
        })
        side_span.incr("analyses", len(results))
    return results


def run_server_side(study, store=None, node_observer=None):
    """Section 5 + Appendix C analyses."""
    with obs.span("analysis.server") as side_span:
        scheduler = _scheduler(SERVER_ANALYSES, "server", study, store,
                               node_observer)
        results = scheduler.run({
            "dataset": lambda: study.dataset,
            "certificates": lambda: study.certificates,
            "ecosystem": lambda: study.ecosystem,
            "network": lambda: study.network,
            "ct_logs": lambda: study.network.ct_logs,
            "validator": lambda: study.validator(),
        })
        side_span.incr("analyses", len(results))
    return results


def run_full_study(study, jobs=None, store=None, node_observer=None):
    """Everything, in paper order.

    ``jobs`` is accepted and ignored: perfbench's report-cold workload
    still passes ``jobs=1``.
    """
    with obs.span("analysis.full_study"):
        return {
            "client": run_client_side(study, store=store,
                                      node_observer=node_observer),
            "server": run_server_side(study, store=store,
                                      node_observer=node_observer),
        }


def analysis_stage_names():
    """Every scheduler stage name, in registry (paper) order.

    The conformance harness orders baseline nodes and equivalence
    reports by this sequence, so "first divergent node" always means
    first in paper order, not first alphabetically.
    """
    return tuple([f"analysis.client.{spec.name}"
                  for spec in CLIENT_ANALYSES]
                 + [f"analysis.server.{spec.name}"
                    for spec in SERVER_ANALYSES])
