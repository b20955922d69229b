"""One-call orchestration of the full study.

``run_full_study`` executes every analysis and returns a nested dict of
results — the programmatic equivalent of regenerating all tables and
figures.  Examples and the integration tests drive this.

Each side is a registry (:data:`CLIENT_ANALYSES`,
:data:`SERVER_ANALYSES`) of :class:`AnalysisNode` entries in paper
order, and one loop runs a registry in that order.  A node's function
takes ``(study, results)``: the study's lazily built artifacts and the
results of the nodes before it.  Every node is a pure function of those,
so the output — its values and its key order — is fixed by the registry
alone.

Each node's value goes through :meth:`~repro.study.Study.get_or_compute`
under the stage name ``analysis.<side>.<name>``: with an artifact store
attached (``study.attach_store(...)``, or the CLI's ``--cache-dir``) a
cached node is read back without computing, and a fully cached run
builds no world, network, capture or certificates.

A computed node runs inside its own ``repro.obs`` span
(``analysis.client.<name>`` / ``analysis.server.<name>``; ``survey``
runs under ``validate.chain``), and the first node that reads a study
artifact builds it inside that span, so a traced run (``repro report
--trace trace.jsonl``) shows where the pipeline's time goes.  With
observability disabled (the default) the spans are no-ops.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class AnalysisNode:
    """One analysis: ``fn(study, results)`` returns its packed value.

    With one ``provides`` key (by default the node's name) the packed
    value is the result itself; with several it is a tuple aligned with
    ``provides``.  ``span`` replaces the ``analysis.<side>.<name>`` span
    name, and ``tally(span, packed)`` adds span counters.
    """

    name: str
    fn: object
    provides: tuple = ()
    span: str = None
    tally: object = None

    def __post_init__(self):
        object.__setattr__(self, "provides",
                           tuple(self.provides) or (self.name,))


def _ml_attribution(study, _results):
    """Learned-attribution eval payload.

    Deferred import: ``repro.ml`` pulls in numpy, which ``import
    repro`` (and every stdlib-only pipeline node) must not.  Training
    is memoized per config inside ``repro.ml``, so the node, the
    figure exporter, and the CLI share one run per process.
    """
    from repro.ml import evaluate_study
    return evaluate_study(study)


# Node functions below take ``(s, r)``: the study and the results of the
# nodes before them.

#: Section 4 + Appendix B (client-side) analyses, in paper order.
CLIENT_ANALYSES = (
    AnalysisNode(
        "matching",
        lambda s, r: matching.match_report(s.dataset, s.corpus)),
    AnalysisNode(
        "degree_distribution",
        lambda s, r: customization.degree_distribution(s.dataset)),
    AnalysisNode(
        "doc_vendor",
        lambda s, r: customization.doc_vendor_all(s.dataset)),
    AnalysisNode(
        "doc_device",
        lambda s, r: customization.doc_device_all(s.dataset)),
    AnalysisNode(
        "heterogeneity",
        lambda s, r: customization.top_vendor_heterogeneity(s.dataset)),
    AnalysisNode(
        "vulnerability",
        lambda s, r: security.vulnerability_report(s.dataset)),
    AnalysisNode(
        "jaccard",
        lambda s, r: sharing.vendor_similarity_pairs(s.dataset),
        provides=("jaccard_pairs",)),
    AnalysisNode(
        "server_proxy",
        lambda s, r: sharing.server_specific_fingerprints(s.dataset,
                                                          s.corpus),
        provides=("server_tie_fraction", "server_ties")),
    AnalysisNode(
        "semantics",
        lambda s, r: semantics.semantic_summary(
            semantics.semantic_fingerprinting(s.dataset, s.corpus)),
        provides=("semantic_summary",)),
    AnalysisNode(
        "versions", lambda s, r: params.version_proposals(s.dataset)),
    AnalysisNode(
        "fallback", lambda s, r: params.fallback_scsv_usage(s.dataset)),
    AnalysisNode(
        "ocsp", lambda s, r: params.ocsp_usage(s.dataset)),
    AnalysisNode(
        "grease", lambda s, r: params.grease_usage(s.dataset)),
    AnalysisNode(
        "lowest_vulnerable_index",
        lambda s, r: preferences.lowest_vulnerable_index(s.dataset)),
    AnalysisNode(
        "clean_vendors",
        lambda s, r: preferences.vendors_without_vulnerable(s.dataset)),
    AnalysisNode(
        "preferred_components",
        lambda s, r: preferences.preferred_components(s.dataset)),
    AnalysisNode("ml_attribution", _ml_attribution),
)

#: Section 5 + Appendix C (server-side) analyses.  ``survey`` is itself
#: a node: validation runs once and every later node reads its result.
SERVER_ANALYSES = (
    AnalysisNode(
        "probe_stats",
        lambda s, r: (s.certificates.stats.to_json()
                      if s.certificates.stats is not None else None)),
    AnalysisNode(
        "issuers",
        lambda s, r: issuers.issuer_report(s.dataset, s.certificates,
                                           s.ecosystem)),
    AnalysisNode(
        "survey",
        lambda s, r: chains.validate_all(s.certificates, s.validator(),
                                         at=PROBE_TIME),
        span="validate.chain",
        tally=lambda span, survey: span.incr("chains",
                                             len(survey.reports))),
    AnalysisNode(
        "validation_failures",
        lambda s, r: chains.validation_failure_rows(
            r["survey"], s.dataset, s.ecosystem)),
    AnalysisNode(
        "private_issuers",
        lambda s, r: chains.private_issuer_rows(
            r["survey"], s.dataset, s.ecosystem),
        provides=("private_issuer_rows",)),
    AnalysisNode(
        "expired",
        lambda s, r: chains.expired_rows(s.certificates, s.dataset)),
    AnalysisNode(
        "ct",
        lambda s, r: ct_validity.ct_report(
            s.dataset, s.certificates, r["survey"], s.ecosystem,
            s.network.ct_logs)),
    AnalysisNode(
        "netflix",
        lambda s, r: ct_validity.netflix_rows(s.certificates,
                                              s.network.ct_logs)),
    AnalysisNode(
        "ct_private_figure",
        lambda s, r: ct_validity.private_chain_ct_figure(
            r["survey"], s.ecosystem, s.network.ct_logs)),
    AnalysisNode(
        "slds",
        lambda s, r: (lambda rows: (rows, slds.sld_statistics(rows)))(
            slds.sld_rows(s.dataset, s.certificates)),
        provides=("slds", "sld_stats")),
    AnalysisNode(
        "geo", lambda s, r: geo.geo_comparison(s.certificates)),
    AnalysisNode(
        "lab",
        lambda s, r: labcompare.lab_comparison(
            s.dataset, s.certificates, s.network)),
)


def _run_side(side, nodes, study, node_observer):
    """Run one registry in order; returns ``{result key: value}``."""
    results = {}
    with obs.span(f"analysis.{side}") as side_span:
        for node in nodes:
            stage = f"analysis.{side}.{node.name}"

            def compute():
                with obs.span(node.span or stage) as span:
                    packed = node.fn(study, results)
                    if node.tally is not None:
                        node.tally(span, packed)
                return packed

            packed = study.get_or_compute(stage, compute)
            if node_observer is not None:
                node_observer(stage, packed)
            if len(node.provides) == 1:
                results[node.provides[0]] = packed
            else:
                results.update(zip(node.provides, packed))
        side_span.incr("analyses", len(results))
    return results


def run_client_side(study, node_observer=None):
    """Section 4 + Appendix B analyses (``node_observer``: see
    :func:`run_full_study`)."""
    return _run_side("client", CLIENT_ANALYSES, study, node_observer)


def run_server_side(study, node_observer=None):
    """Section 5 + Appendix C analyses (``node_observer``: see
    :func:`run_full_study`)."""
    return _run_side("server", SERVER_ANALYSES, study, node_observer)


def run_full_study(study, jobs=None, node_observer=None):
    """Everything, in paper order.

    ``node_observer(stage, packed)``, when given, hears every node's
    packed value exactly once, computed or read from the store; the
    conformance harness collects its per-node digests this way.
    ``jobs`` is accepted and ignored: perfbench's report-cold workload
    still passes ``jobs=1``.
    """
    with obs.span("analysis.full_study"):
        return {
            "client": run_client_side(study, node_observer=node_observer),
            "server": run_server_side(study, node_observer=node_observer),
        }


def analysis_stage_names():
    """Every analysis stage name, in registry (paper) order.

    The conformance harness orders baseline nodes and equivalence
    reports by this sequence, so "first divergent node" always means
    first in paper order, not first alphabetically.
    """
    return tuple([f"analysis.client.{node.name}"
                  for node in CLIENT_ANALYSES]
                 + [f"analysis.server.{node.name}"
                    for node in SERVER_ANALYSES])
