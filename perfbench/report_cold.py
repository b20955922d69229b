"""Workload ``report-cold``: one ``repro report`` in a fresh process.

The child process does what ``repro report --seed S`` does with no
artifact store and one thread: ``Study(config)``, ``run_full_study``,
``render_report``.  A fresh process per run keeps the per-seed
``lru_cache``s and the ML memo empty.  After the timed region the child
snapshots every baseline node and checks it (see :mod:`checks`).

Run directly only as a child of ``run.py``::

    python3 perfbench/report_cold.py child --seed S --trace 0 \\
        --t-spawn T --work DIR --out result.json
"""

import os
import sys
import time

import catalog
import common
from checks import Tally, compare_digests
from spans import SpanLog, adds_up, attribute

BASELINE = os.path.join(common.ROOT, "conformance", "baseline.json")

#: light children that only import the report path, for setup_s.
SETUP_SAMPLES = 3


def _snapshots(study, observed, text, artifacts):
    """Canonical trees of every analysis node and the report text.

    With ``artifacts`` also the capture, certificate and figure
    artifacts, i.e. every node the golden baseline holds (this mirrors
    ``run_and_snapshot``).
    """
    from repro.core.figures import figure_payloads
    from repro.core.pipeline import analysis_stage_names
    from repro.verify.canonical import canonicalize
    snapshots = {stage: canonicalize(observed.pop(stage))
                 for stage in analysis_stage_names() if stage in observed}
    snapshots.update((stage, canonicalize(packed))
                     for stage, packed in sorted(observed.items()))
    if artifacts:
        snapshots["artifact.capture"] = canonicalize(
            [record.to_json() for record in study.dataset.records])
        snapshots["artifact.certificates"] = canonicalize(
            study.certificates.to_json_rows(ct_logs=study.network.ct_logs))
    snapshots["artifact.report"] = canonicalize(text)
    if artifacts:
        for name, payload in figure_payloads(study).items():
            snapshots[f"artifact.figures.{name}"] = canonicalize(payload)
    return snapshots


def _check(study, results, observed, text, tally):
    """Golden baseline (at its seed), ledger of earlier runs, invariants.

    Returns the node digests.  Away from the baseline's seed they cover
    the analysis nodes and the report, which is what the ledger and the
    traced-vs-untraced comparison need.
    """
    from repro.verify.baseline import (VOLATILE_NODES, check_baseline,
                                       load_baseline)
    from repro.verify.canonical import digest
    from repro.verify.invariants import invariant_summary
    recorded = load_baseline(BASELINE)["artifact_digest"] \
        == study.config.artifact_digest()
    snapshots = _snapshots(study, observed, text, artifacts=recorded)
    digests = {name: digest(tree) for name, tree in snapshots.items()
               if name not in VOLATILE_NODES}
    if recorded:
        report = check_baseline(study, BASELINE, snapshots=snapshots)
        for _ in range(report.nodes_checked - len(report.divergences)):
            tally.check(True, "baseline")
        for divergence in report.divergences:
            tally.check(False, f"baseline: {divergence.render()}")
    ledger = os.path.join(common.STATE_ROOT, "report-cold",
                          f"seed-{study.seed}.json")
    if os.path.exists(ledger):
        compare_digests(tally, common.read_json(ledger), digests,
                        "earlier run, same seed")
    else:
        os.makedirs(os.path.dirname(ledger), exist_ok=True)
        common.write_json(ledger, digests)
    for verdict in invariant_summary(study, results)["checks"]:
        tally.check(verdict["ok"], f"invariant {verdict['name']}: "
                                   f"{verdict['observed']!r}")
    return digests


def _counts(study, results):
    reports = results["server"]["survey"].reports.values()
    return dict(common.study_counts(study),
                **{"x509.chains": len(reports),
                   "x509.chains_ok": sum(1 for report in reports
                                         if report.valid)})


def child(args):
    from repro import obs
    from repro.config import StudyConfig
    from repro.core import pipeline
    from repro.core.report import render_report
    from repro.study import Study
    if args.setup_only:
        common.write_json(args.out, {
            "setup_s": time.monotonic() - args.t_spawn})
        return
    log = ctx = None
    render = render_report
    if args.trace:
        log = SpanLog()
        ctx = obs.Observability()
        obs.activate(ctx)
        for prop in ("world", "dataset", "corpus", "network",
                     "certificates"):
            log.wrap_build(Study, prop, f"Study.{prop}")
        for name in ("run_client_side", "run_server_side"):
            setattr(pipeline, name,
                    log.wrap(name, getattr(pipeline, name)))
        render = log.wrap("render_report", render_report)
    setup_s = time.monotonic() - args.t_spawn
    observed = {}
    cpu0 = common.cpu_seconds()
    started = time.perf_counter()
    study = Study(StudyConfig(seed=args.seed))
    results = pipeline.run_full_study(study, jobs=1,
                                      node_observer=observed.__setitem__)
    text = render(results, seed=args.seed)
    ended = time.perf_counter()
    out = {
        "setup_s": setup_s,
        "wait_s": ended - started,
        "cpu_s": common.cpu_seconds() - cpu0,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    if ctx is not None:
        obs.deactivate()
        log.fold(ctx.tracer)
        selves, unattributed, residual = attribute(
            log.spans, catalog.layer_of, (started, ended))
        out.update(layers=selves, unattributed_s=unattributed,
                   residual_s=residual)
    tally = Tally()
    out["counts"] = _counts(study, results)
    out["digests"] = _check(study, results, observed, text, tally)
    out["checks"] = tally.to_json()
    common.write_json(args.out, out)


def _run_child(work_dir, name, seed, trace, deadline, setup_only=False):
    return common.run_workload_child("report_cold.py", work_dir, name, seed,
                                     trace, deadline, setup_only)


def run(seed, seconds, trace, work_dir, deadline):
    """Returns ``(end_to_end or per_layer metrics, tally, ok, notes)``.

    One report takes longer than any sensible ``seconds``; the run
    measures whole reports, one per fresh process.
    """
    tally = Tally()
    setups = [_run_child(work_dir, f"setup{i}", seed, False, deadline,
                         setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    plain = _run_child(work_dir, "report", seed, False, deadline)
    tally.absorb(plain["checks"])
    setups.append(plain["setup_s"])
    e2e = {
        "setup_s": common.median(setups),
        "wait_s": plain["wait_s"],
        "cpu_s": plain["cpu_s"],
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    notes = {"report_s": plain["wait_s"], "setup_s": e2e["setup_s"],
             "peak_rss_mb": plain["peak_rss_mb"]}
    if not trace:
        return e2e, tally, True, notes
    traced = _run_child(work_dir, "traced", seed, True, deadline)
    after = _run_child(work_dir, "after", seed, False, deadline)
    tally.absorb(traced["checks"])
    tally.absorb(after["checks"])
    compare_digests(tally, plain["digests"], traced["digests"],
                    "traced vs untraced")
    layers = catalog.zero_layers()
    layers.update(traced["layers"])
    layers.update(traced["counts"])
    layers["unattributed_s"] = traced["unattributed_s"]
    layers["obs.trace_overhead_pct"] = common.overhead_pct(
        traced["wait_s"], plain["wait_s"], after["wait_s"])
    notes.update(traced_wall_s=traced["wait_s"],
                 attribution_residual_s=traced["residual_s"])
    ok = adds_up(traced["residual_s"], traced["wait_s"])
    return layers, tally, ok, notes


def main(argv=None):
    child(common.child_args(argv))


if __name__ == "__main__":
    sys.exit(main())
