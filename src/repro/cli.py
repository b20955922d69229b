"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate``  build the world and save the anonymized ClientHello
  capture as JSONL (the artifact the paper open-sources);
- ``probe``     probe every SNI from the three vantage points and save a
  per-server certificate summary;
- ``report``    run the full analysis pipeline and write the markdown
  study report;
- ``audit``     client- and server-side audit of one vendor;
- ``whatif``    run the recommendation experiments (ACME adoption, AIA
  chasing, revocation exposure);
- ``figures``   export plot-ready JSON data for every figure;
- ``cache``     inspect (``stats``) or empty (``clear``) the artifact
  store;
- ``serve``     stream-ingest the capture into a growing dataset and
  answer the paper's hot queries over a stdlib HTTP/JSON API
  (``/healthz`` with per-objective SLO state, ``/metrics`` in JSON
  or Prometheus exposition text via ``?format=prom``, ``/v1/slo``,
  ``/v1/debug/recent`` — the flight recorder, ``/v1/doc``,
  ``/v1/fingerprints``, ``/v1/match-rate``, ``/v1/issuers``,
  ``/v1/verdicts``); with a cache directory the ingester resumes from
  its last compacted checkpoint; ``--smoke`` runs the built-in load
  mix against the warm server and exits (the CI smoke job);
- ``obs``       inspect a *running* server over HTTP: ``top`` (live
  polling view of health, SLO verdicts, and key metrics), ``export``
  (scrape ``/metrics`` once, write the JSON snapshot or Prometheus
  text), ``diff`` (compare two exported snapshots and flag
  regressions — error counters that grew, lag gauges that rose,
  latency histograms that shifted slow);
- ``match``     the ``repro.match`` indexes: ``build-index`` (construct
  the corpus + vendor similarity indexes, write the stats JSON),
  ``query`` (the exact corpus match and exact near-match libraries for
  one fingerprint id), ``stats`` (corpus and vendor index shapes);
- ``ml``        learned fingerprint attribution (``repro.ml``):
  ``train`` the seeded pure-numpy naive-Bayes + logistic-regression
  bundle on the generator's ground-truth labels, ``eval`` it into a
  canonical digest-checkable report (optionally against an external
  labeled capture via ``--input``), ``predict`` the exact-match-
  unmatched 97.45% with per-fingerprint confidences;
- ``verify``    differential conformance: ``record``/``check`` golden
  baselines, run the execution-mode equivalence ``matrix`` (serial,
  cold and warm cache, permuted trust stores, and the fabric cluster
  backend), evaluate the paper ``invariants``,
  digest-check the deterministic ``ml`` eval report against its
  committed baseline;
- ``sweep``     resumable multi-config campaigns: ``run`` a seed grid
  (plus trust-store ablations) inline, or with
  ``--workers N`` across a one-host fabric cluster of N worker
  processes (optionally over a remote blob store with
  ``--store-backend http``), ``resume`` a killed campaign (completed
  configs are skipped via the campaign ledger, at any worker count),
  ``report`` the aggregate variance bands around every paper anchor;
- ``fabric``    the distributed campaign fabric: ``serve`` a campaign's
  units as expiring HTTP leases (plus the content-addressed blob store
  and Prometheus ``/metrics``), ``worker`` to claim/run/upload units
  against a coordinator from any machine, ``status`` for the live
  queue/lease/ledger view;
- ``trace-summary``  render a ``--trace`` JSONL file (top spans by
  self-time, metric table, manifest line).

Every study command is *config-first*: the shared flags ``--seed`` and
``--trust-stores`` build one :class:`~repro.config.StudyConfig` (via
:func:`config_from_args`), so no command silently drops a study knob.

Caching: pass ``--cache-dir DIR`` (or set ``REPRO_CACHE_DIR``) to reuse
expensive artifacts — the capture, the certificate dataset, every
analysis result — across invocations via the content-addressed
:class:`~repro.store.artifact.ArtifactStore`; ``repro report`` after
``repro probe`` then reuses the probe artifact, and an unchanged re-run
is near-instant.  ``--no-cache`` bypasses the store even when the
environment variable is set.

Observability (``repro.obs``) is active for every command: add
``--trace trace.jsonl`` to stream span/metric/manifest events to JSONL,
``--metrics`` to print the metric table, and find a provenance
``<artifact>.manifest.json`` (seed, config digest, version, stage
timings, metric snapshot, cache traffic) next to every file a command
writes.
"""

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.config import MAJOR_STORES
from repro.obs.manifest import RunManifest, manifest_path_for
from repro.study import DEFAULT_SEED, StudyConfig, get_study
from repro.verify.baseline import DEFAULT_BASELINE, DEFAULT_ML_BASELINE

#: cache directory used when --cache-dir is absent ($REPRO_CACHE_DIR
#: overrides; caching stays off when neither is set).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: default paths for the `repro ml` model and eval-report artifacts.
DEFAULT_ML_MODEL = "ml_model.json"
DEFAULT_ML_REPORT = "ml_eval.json"


def _add_config(parser):
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="world seed (default %(default)s)")
    parser.add_argument("--trust-stores", metavar="NAMES",
                        default=",".join(MAJOR_STORES),
                        help="comma-separated major stores the validator "
                             "unions (default %(default)s)")


def _add_cache(parser):
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="artifact store directory (default "
                             f"${ENV_CACHE_DIR}; caching is off when "
                             "neither is set)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the artifact store entirely")


def _add_obs(parser):
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write tracing spans, metric snapshot, and "
                             "run manifest as JSONL events to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metric table after the command")


def config_from_args(args):
    """The full :class:`StudyConfig` a study command's flags describe."""
    stores = tuple(name.strip()
                   for name in args.trust_stores.split(",")
                   if name.strip())
    return StudyConfig(seed=args.seed, trust_stores=stores)


def store_from_args(args):
    """The artifact store the flags select, or ``None`` (caching off)."""
    from repro.store import ArtifactStore
    if getattr(args, "no_cache", False):
        return None
    root = getattr(args, "cache_dir", None) or \
        os.environ.get(ENV_CACHE_DIR)
    return ArtifactStore(root) if root else None


def _study_from_args(args):
    """Build config + store + memoized study; records both on ``args``.

    Raises ``ValueError`` on an invalid flag combination; study commands
    catch it and exit 2.
    """
    config = config_from_args(args)
    args.config = config
    args.store = store_from_args(args)
    return get_study(config).attach_store(args.store)


def _study_or_status(args):
    try:
        return _study_from_args(args), 0
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return None, 2


def cmd_generate(args):
    from repro.inspector.io import save_records
    study, status = _study_or_status(args)
    if study is None:
        return status
    dataset = study.dataset
    with obs.span("cli.write_output"):
        save_records(dataset.records, args.output)
    args.artifacts.append(args.output)
    print(f"wrote {len(dataset.records)} ClientHello records from "
          f"{dataset.device_count} devices ({dataset.vendor_count} "
          f"vendors, {dataset.user_count} users) to {args.output}")
    return 0


def cmd_probe(args):
    study, status = _study_or_status(args)
    if study is None:
        return status
    certificates = study.certificates
    rows = certificates.to_json_rows(ct_logs=study.network.ct_logs)
    with obs.span("cli.write_output"):
        with open(args.output, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
    args.artifacts.append(args.output)
    reachable = sum(1 for row in rows if row["reachable"])
    print(f"probed {len(rows)} SNIs ({reachable} reachable); "
          f"wrote {args.output}")
    if args.stats and certificates.stats is not None:
        print(certificates.stats.summary())
    return 0


def cmd_report(args):
    from repro.core.pipeline import run_full_study
    from repro.core.report import render_report
    study, status = _study_or_status(args)
    if study is None:
        return status
    results = run_full_study(study)
    with obs.span("cli.render_report"):
        text = render_report(results, seed=args.seed)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        args.artifacts.append(args.output)
        print(f"wrote study report to {args.output}")
    return 0


def cmd_audit(args):
    from repro.core.customization import doc_vendor
    from repro.core.issuers import issuer_report
    from repro.core.matching import validate_case_study
    from repro.core.tables import percent
    study, status = _study_or_status(args)
    if study is None:
        return status
    dataset = study.dataset
    vendor = args.vendor
    if vendor not in dataset.vendor_names():
        print(f"unknown vendor {vendor!r}; known vendors:",
              ", ".join(dataset.vendor_names()), file=sys.stderr)
        return 2
    print(f"== {vendor} ==")
    print(f"devices: {len(dataset.devices_of_vendor(vendor))}")
    print(f"fingerprints: {len(dataset.vendor_fingerprints(vendor))} "
          f"(DoC_vendor {percent(doc_vendor(dataset, vendor))})")
    with obs.span("analysis.audit.matching"):
        matches = validate_case_study(dataset, study.corpus, vendor)
    print(f"library matches: {matches or '(none)'}")
    with obs.span("analysis.audit.issuers"):
        report = issuer_report(dataset, study.certificates,
                               study.ecosystem)
    ratios = sorted(report.vendor_issuer_ratios(vendor).items(),
                    key=lambda kv: -kv[1])
    print("server certificate issuers seen by its devices:")
    for org, share in ratios[:8]:
        kind = "public" if org in set(report.public_orgs) else "PRIVATE"
        print(f"  {org:35s} {kind:8s} {percent(share)}")
    return 0


def cmd_whatif(args):
    from repro.core import whatif
    from repro.core.tables import percent
    study, status = _study_or_status(args)
    if study is None:
        return status
    if args.experiment in ("acme", "all"):
        with obs.span("analysis.whatif.acme"):
            result = whatif.acme_adoption(study)
        before, after = result["before"], result["after"]
        print(f"[acme] {result['private_leaf_count']} vendor-signed "
              f"leafs: validity max "
              f"{before['validity_min_med_max'][2]:.0f}d → "
              f"{after['validity_min_med_max'][2]:.0f}d; CT "
              f"{percent(before['ct_share'])} → "
              f"{percent(after['ct_share'])}")
    if args.experiment in ("aia", "all"):
        with obs.span("analysis.whatif.aia"):
            result = whatif.aia_chasing(study)
        print(f"[aia] verdicts fixed by intermediate fetching: "
              f"{len(result['fixed_by_aia'])}")
    if args.experiment in ("revocation", "all"):
        with obs.span("analysis.whatif.revocation"):
            result = whatif.revocation_exposure(study)
        print(f"[revocation] devices with no revocation path: "
              f"{result['devices_exposed_no_revocation_path']} "
              f"(protected: "
              f"{result['devices_protected_by_revocation']})")
    return 0


def cmd_figures(args):
    from repro.core.figures import export_all
    study, status = _study_or_status(args)
    if study is None:
        return status
    with obs.span("cli.write_output"):
        written = export_all(study, args.output)
    args.artifacts.append(args.output)
    print(f"wrote {len(written)} figure data files under {args.output}")
    return 0


def _cache_store(args):
    from repro.store import ArtifactStore
    root = args.cache_dir or os.environ.get(ENV_CACHE_DIR)
    if not root:
        print(f"cache: no cache directory (pass --cache-dir or set "
              f"${ENV_CACHE_DIR})", file=sys.stderr)
        return None
    return ArtifactStore(root)


def cmd_cache_stats(args):
    store = _cache_store(args)
    if store is None:
        return 2
    stats = store.stats()
    print(f"cache {stats['dir']} (current version "
          f"{stats['version']}): {stats['entries']} entries, "
          f"{stats['bytes'] / 1e6:.1f} MB")
    for stage, count in stats["by_stage"].items():
        print(f"  {stage:40s} {count}")
    for version, count in stats["by_version"].items():
        marker = "" if version == stats["version"] else "  (stale)"
        print(f"  version {version}: {count} entries{marker}")
    return 0


def cmd_cache_clear(args):
    store = _cache_store(args)
    if store is None:
        return 2
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def _write_verify_report(args, payload):
    """Write a machine-readable verify report when --report was given."""
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        args.artifacts.append(args.report)
        print(f"wrote verify report to {args.report}")


def cmd_serve(args):
    from repro.http import serving
    from repro.ingest import run_load, serve_study
    study, status = _study_or_status(args)
    if study is None:
        return status
    server, service = serve_study(study, host=args.host, port=args.port,
                                  store=args.store)
    print(f"serving study (seed {args.seed}) on {server.url} "
          f"— {service.ingester.records_ingested} records in "
          f"{service.ingester.stream.window_count} windows"
          f"{' (resumed from checkpoint)' if service.ingester.resumed else ''}")
    if args.smoke:
        with serving(server):
            result = run_load(server.url,
                              requests_per_worker=args.smoke_requests,
                              workers=2)
        summary = result.to_json()
        print(f"smoke: {summary['requests']} requests, "
              f"{summary['errors']} errors, {summary['qps']} q/s, "
              f"p99 {summary['p99_ms']} ms")
        return 0 if summary["errors"] == 0 else 1
    return _serve_until_interrupted(server)


def _serve_until_interrupted(server):
    """Serve in the foreground until Ctrl-C; always close the socket."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


def _match_index_stats(study):
    """Shapes of the corpus and vendor indexes of ``study``."""
    from repro.core.sharing import vendor_index
    from repro.match import CorpusIndex
    return {"corpus": CorpusIndex(study.corpus).stats(),
            "vendors": vendor_index(study.dataset).stats()}


def cmd_match_build_index(args):
    from repro.ingest import fingerprint_id
    study, status = _study_or_status(args)
    if study is None:
        return status
    with obs.span("match.build_index"):
        payload = _match_index_stats(study)
        payload["fingerprint_ids"] = {
            fingerprint_id(fp): [int(fp[0]), list(fp[1]), list(fp[2])]
            for fp in sorted(study.dataset.fingerprints())}
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    args.artifacts.append(args.output)
    corpus_stats = payload["corpus"]
    print(f"built match index: "
          f"{corpus_stats['entries']} corpus entries → "
          f"{corpus_stats['distinct_keys']} distinct keys "
          f"(dedup {corpus_stats['dedup_ratio']}x), "
          f"{payload['vendors']['items']} vendor sets; "
          f"wrote {args.output}")
    return 0


def cmd_match_query(args):
    from repro.ingest import fingerprint_id
    from repro.match import CorpusIndex
    study, status = _study_or_status(args)
    if study is None:
        return status
    by_id = {fingerprint_id(fp): fp
             for fp in study.dataset.fingerprints()}
    fp = by_id.get(args.fingerprint)
    if fp is None:
        print(f"match query: unknown fingerprint id "
              f"{args.fingerprint!r} (see `repro match build-index` "
              f"output for the id map)", file=sys.stderr)
        return 2
    with obs.span("match.query"):
        exact = study.corpus.match(*fp)
        hits = CorpusIndex(study.corpus).near_matches(
            fp, threshold=args.threshold, limit=args.limit)
    version, suites, extensions = fp
    print(f"fingerprint {args.fingerprint}: TLS {int(version):#06x}, "
          f"{len(suites)} suites, {len(extensions)} extensions")
    print(f"exact corpus match: "
          f"{exact.full_name if exact is not None else '(none)'}")
    if hits:
        print(f"near matches (Jaccard >= {args.threshold}):")
        for similarity, library in hits:
            print(f"  {similarity:.3f}  {library.full_name}")
    else:
        print(f"near matches (Jaccard >= {args.threshold}): (none)")
    return 0


def cmd_match_stats(args):
    study, status = _study_or_status(args)
    if study is None:
        return status
    with obs.span("match.stats"):
        payload = _match_index_stats(study)
    corpus_stats = payload["corpus"]
    print(f"corpus: {corpus_stats['entries']} entries, "
          f"{corpus_stats['distinct_keys']} distinct keys "
          f"(dedup {corpus_stats['dedup_ratio']}x)")
    vendor_stats = payload["vendors"]
    print(f"vendors: {vendor_stats['items']} sets, "
          f"{vendor_stats['distinct_vectors']} distinct vectors, "
          f"{vendor_stats['feature_space']}-bit feature space, "
          f"candidate pairs {vendor_stats['candidate_pairs']} / "
          f"{vendor_stats['total_pairs']}")
    return 0


def cmd_verify_record(args):
    from repro.verify import (invariant_summary, record_baseline,
                              render_invariants, run_and_snapshot)
    study, status = _study_or_status(args)
    if study is None:
        return status
    results, snapshots = run_and_snapshot(study)
    summary = invariant_summary(study, results)
    args.invariants = summary
    print(render_invariants(summary))
    if not summary["ok"]:
        print("verify record: refusing to record a baseline that "
              "violates paper invariants", file=sys.stderr)
        return 1
    with obs.span("cli.write_output"):
        path = record_baseline(study, args.baseline,
                               snapshots=snapshots)
    print(f"recorded golden baseline ({len(snapshots)} nodes) to "
          f"{path}")
    return 0


def cmd_verify_check(args):
    from repro.verify import (check_baseline, invariant_summary,
                              render_invariants, run_and_snapshot)
    study, status = _study_or_status(args)
    if study is None:
        return status
    results, snapshots = run_and_snapshot(study)
    summary = invariant_summary(study, results)
    args.invariants = summary
    try:
        report = check_baseline(study, args.baseline,
                                snapshots=snapshots)
    except ValueError as exc:
        print(f"verify check: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    print(render_invariants(summary))
    payload = report.to_json()
    payload["invariants"] = summary
    _write_verify_report(args, payload)
    return 0 if report.ok and summary["ok"] else 1


def cmd_verify_matrix(args):
    from repro.verify import EquivalenceMatrix
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    args.config = config
    report = EquivalenceMatrix(base_config=config).run()
    print(report.render())
    _write_verify_report(args, report.to_json())
    return 0 if report.ok else 1


def cmd_verify_invariants(args):
    from repro.core.pipeline import run_full_study
    from repro.verify import invariant_summary, render_invariants
    study, status = _study_or_status(args)
    if study is None:
        return status
    results = run_full_study(study)
    summary = invariant_summary(study, results)
    args.invariants = summary
    print(render_invariants(summary))
    return 0 if summary["ok"] else 1


def cmd_verify_ml(args):
    from repro.ml import (check_ml_baseline, eval_digest,
                          evaluate_study, record_ml_baseline)
    study, status = _study_or_status(args)
    if study is None:
        return status
    payload = evaluate_study(study)
    if args.record:
        with obs.span("cli.write_output"):
            path = record_ml_baseline(payload, args.baseline)
        args.artifacts.append(path)
        print(f"recorded ml eval baseline (digest "
              f"{eval_digest(payload)[:16]}..., macro-F1 "
              f"{payload['macro']['f1']:.4f}) to {path}")
        return 0
    try:
        report = check_ml_baseline(payload, args.baseline)
    except FileNotFoundError:
        print(f"verify ml: baseline not found: {args.baseline} "
              f"(record one with `repro verify ml --record`)",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"verify ml: {exc}", file=sys.stderr)
        return 2
    if report["ok"]:
        print(f"ml eval digest matches baseline "
              f"({report['actual_digest'][:16]}..., macro-F1 "
              f"{payload['macro']['f1']:.4f})")
    else:
        print("ml eval digest DIVERGES from baseline:")
        print(f"  expected {report['expected_digest']}")
        print(f"  actual   {report['actual_digest']}")
        if "note" in report:
            print(f"  note: {report['note']}")
        if "first_divergence" in report:
            where, detail = report["first_divergence"]
            print(f"  first divergence at {where}: {detail}")
    _write_verify_report(args, report)
    return 0 if report["ok"] else 1


def _ml_params_from_args(args):
    """An :class:`repro.ml.MLParams` from the train flags (lazy import)."""
    from repro.ml import MLParams
    overrides = {name: value for name, value in (
        ("target", getattr(args, "target", None)),
        ("width", getattr(args, "width", None)),
        ("iters", getattr(args, "iters", None)),
        ("test_fraction", getattr(args, "test_fraction", None)),
    ) if value is not None}
    return MLParams(**overrides)


def _ml_threshold_or_status(args, command):
    """Validated --threshold (``None`` defers to the model's default)."""
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not 0.0 <= threshold <= 1.0:
        print(f"{command}: --threshold must be within [0.0, 1.0], "
              f"got {threshold}", file=sys.stderr)
        return None, 2
    return threshold, 0


def _ml_model_or_status(args, command):
    """The model file --model names, or an exit-2 one-line error."""
    from repro.ml import AttributionModel
    try:
        return AttributionModel.load(args.model), 0
    except FileNotFoundError:
        print(f"{command}: model file not found: {args.model} "
              f"(run `repro ml train` first)", file=sys.stderr)
        return None, 2
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None, 2


def cmd_ml_train(args):
    from repro.ml import train_study
    try:
        params = _ml_params_from_args(args)
    except ValueError as exc:
        print(f"ml train: {exc}", file=sys.stderr)
        return 2
    study, status = _study_or_status(args)
    if study is None:
        return status
    try:
        model = train_study(study, params=params)
    except ValueError as exc:
        print(f"ml train: {exc}", file=sys.stderr)
        return 2
    with obs.span("cli.write_output"):
        model.save(args.output)
    args.artifacts.append(args.output)
    print(f"trained {params.target} attribution on "
          f"{model.counts['train']} fingerprints "
          f"({len(model.classes)} classes, {params.iters} fixed "
          f"iterations); wrote {args.output}")
    return 0


def _ml_eval_capture(args, model, threshold):
    """Eval on an external labeled capture; ``(payload, status)``."""
    from repro.ml import evaluate_capture
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle
                    if line.strip()]
    except FileNotFoundError:
        print(f"ml eval: input file not found: {args.input}",
              file=sys.stderr)
        return None, 2
    except OSError as exc:
        print(f"ml eval: cannot read {args.input}: {exc.strerror}",
              file=sys.stderr)
        return None, 2
    except UnicodeDecodeError as exc:
        print(f"ml eval: {args.input} is not UTF-8 text ({exc.reason} "
              f"at byte {exc.start})", file=sys.stderr)
        return None, 2
    except json.JSONDecodeError as exc:
        print(f"ml eval: {args.input} is not JSONL ({exc})",
              file=sys.stderr)
        return None, 2
    except RecursionError:
        print(f"ml eval: {args.input} nests JSON too deeply",
              file=sys.stderr)
        return None, 2
    try:
        return evaluate_capture(model, rows, threshold=threshold), 0
    except ValueError as exc:
        print(f"ml eval: {exc}", file=sys.stderr)
        return None, 2


def cmd_ml_eval(args):
    from repro.ml import (canonical_report_text, evaluate_model,
                          render_eval)
    threshold, status = _ml_threshold_or_status(args, "ml eval")
    if status:
        return status
    model, status = _ml_model_or_status(args, "ml eval")
    if model is None:
        return status
    if args.input:
        payload, status = _ml_eval_capture(args, model, threshold)
        if payload is None:
            return status
        print(f"capture eval: {payload['records']} records, "
              f"{payload['fingerprints']} fingerprints; accuracy "
              f"{payload['accuracy']:.4f} on {payload['known']} "
              f"known-class fingerprints, {payload['attributed']} "
              f"attributed at confidence >= {payload['threshold']}")
    else:
        study, status = _study_or_status(args)
        if study is None:
            return status
        payload = evaluate_model(model, study.dataset, study.corpus,
                                 study.world, study.config,
                                 threshold=threshold)
        print(render_eval(payload))
    with obs.span("cli.write_output"):
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_report_text(payload))
    args.artifacts.append(args.report)
    print(f"wrote canonical eval report to {args.report}")
    return 0


def cmd_ml_predict(args):
    from repro.ml import labeled_examples
    threshold, status = _ml_threshold_or_status(args, "ml predict")
    if status:
        return status
    model, status = _ml_model_or_status(args, "ml predict")
    if model is None:
        return status
    study, status = _study_or_status(args)
    if study is None:
        return status
    _, unmatched = labeled_examples(study.dataset, study.corpus,
                                    study.world,
                                    target=model.params.target)
    rows = model.predict_rows(list(unmatched), threshold=threshold)
    if args.output:
        with obs.span("cli.write_output"):
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump({"rows": rows}, handle, indent=1,
                          sort_keys=True)
                handle.write("\n")
        args.artifacts.append(args.output)
        print(f"wrote {len(rows)} prediction rows to {args.output}")
    for row in rows[:args.limit]:
        mark = "*" if row["attributed"] else " "
        print(f"{mark} {row['fingerprint']}  {row['label']:<16s} "
              f"confidence={row['confidence']:.4f} "
              f"(nb: {row['nb_label']})")
    attributed = sum(1 for row in rows if row["attributed"])
    print(f"attributed {attributed}/{len(rows)} unmatched "
          f"fingerprints ({model.params.target} target)")
    return 0


def _sweep_cache_root(args):
    """The shared artifact-store root sweep workers warm, or ``None``."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or \
        os.environ.get(ENV_CACHE_DIR)


def _sweep_store_spec(args):
    """The store-backend spec the sweep/fabric flags describe.

    Raises ``ValueError`` on an impossible combination (the callers
    print it and exit 2).
    """
    from repro.store import http_spec, local_spec
    cache_root = _sweep_cache_root(args)
    backend = getattr(args, "store_backend", "local")
    url = getattr(args, "store_url", None)
    if backend == "http":
        if not url and not cache_root:
            raise ValueError(
                "--store-backend http needs --store-url (an external "
                "blob server) or --cache-dir (self-served by the "
                "coordinator)")
        return http_spec(url=url, cache_dir=None if url else cache_root)
    if url:
        raise ValueError("--store-url requires --store-backend http")
    return local_spec(cache_root)


def _finish_sweep(args, result):
    """Aggregate a campaign, print + write the report; returns exit code."""
    from repro.sweep import SweepAggregator
    report = SweepAggregator.from_index(result.index).report()
    print(f"sweep: ran {len(result.ran)}, skipped "
          f"{len(result.skipped)} (already completed), failed "
          f"{len(result.failed)}")
    print(report.render())
    report_path = os.path.join(args.out, "sweep_report.json")
    with obs.span("cli.write_output"):
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    args.artifacts.append(report_path)
    print(f"wrote sweep report to {report_path}")
    return 0 if (result.ok and report.ok) else 1


def cmd_sweep_run(args):
    from repro.sweep import SweepRunner, expand_grid, parse_grid
    try:
        config = config_from_args(args)
        units = expand_grid(config, seeds=args.seeds,
                            grid=parse_grid(args.grid),
                            time_scale=args.time_scale,
                            stage=args.stage)
        store = _sweep_store_spec(args)
    except ValueError as exc:
        print(f"sweep run: {exc}", file=sys.stderr)
        return 2
    args.config = config
    runner = SweepRunner(
        units=units,
        index_path=os.path.join(args.out, "campaign.json"),
        workers=args.workers,
        cache_dir=_sweep_cache_root(args), store=store,
        worker_jobs=args.worker_jobs)
    print(f"sweep: {len(units)} units "
          f"({', '.join(unit.name for unit in units[:8])}"
          f"{', ...' if len(units) > 8 else ''}) across "
          f"{args.workers} worker(s)")
    try:
        result = runner.run()
    except ValueError as exc:
        print(f"sweep run: {exc}", file=sys.stderr)
        return 2
    return _finish_sweep(args, result)


def _load_campaign(args):
    """The campaign ledger under ``--out`` (also sets ``args.config``)."""
    from repro.store.campaign import CampaignIndex
    from repro.sweep import campaign_units
    index = CampaignIndex.load(os.path.join(args.out, "campaign.json"))
    units = campaign_units(index)
    if units:
        args.config = units[0].study_config()
    return index


def cmd_sweep_resume(args):
    from repro.store import RemoteArtifactStore, StoreUnreachable
    from repro.sweep import SweepRunner
    try:
        index = _load_campaign(args)
    except ValueError as exc:
        print(f"sweep resume: {exc}", file=sys.stderr)
        return 2
    spec = index.store_spec
    if spec and spec.get("backend") == "http" and spec.get("url"):
        # Fail fast with one line instead of a ConnectionError
        # traceback from the first unit that dials a dead store.
        try:
            RemoteArtifactStore(spec["url"]).ping()
        except StoreUnreachable as exc:
            print(f"sweep resume: {exc}", file=sys.stderr)
            return 2
    runner = SweepRunner(
        index_path=os.path.join(args.out, "campaign.json"),
        workers=args.workers, worker_jobs=args.worker_jobs)
    try:
        result = runner.run(resume=True)
    except ValueError as exc:
        print(f"sweep resume: {exc}", file=sys.stderr)
        return 2
    return _finish_sweep(args, result)


def cmd_sweep_report(args):
    from repro.sweep import SweepAggregator
    try:
        index = _load_campaign(args)
    except ValueError as exc:
        print(f"sweep report: {exc}", file=sys.stderr)
        return 2
    report = SweepAggregator.from_index(index).report()
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        args.artifacts.append(args.json)
        print(f"wrote sweep report to {args.json}")
    return 0 if report.ok else 1


def cmd_fabric_serve(args):
    from repro.fabric import (DEFAULT_LEASE_SECONDS,
                              DEFAULT_MAX_ATTEMPTS, FabricCoordinator,
                              make_fabric_server)
    from repro.http import serving
    from repro.store import CampaignIndex
    from repro.sweep import expand_grid, parse_grid
    index_path = os.path.join(args.out, "campaign.json")
    if os.path.exists(index_path):
        # A ledger that cannot be read is refused, never replaced: its
        # completed units would be lost.
        try:
            index = _load_campaign(args)
        except ValueError as exc:
            print(f"fabric serve: {exc}", file=sys.stderr)
            return 2
        spec = index.store_spec
        print(f"fabric serve: resuming campaign "
              f"{index.campaign_id[:12]} ({len(index.completed)}/"
              f"{len(index.units)} units complete)")
    else:
        try:
            config = config_from_args(args)
            units = expand_grid(config, seeds=args.seeds,
                                grid=parse_grid(args.grid),
                                time_scale=args.time_scale,
                                stage=args.stage)
            spec = _sweep_store_spec(args)
        except ValueError as exc:
            print(f"fabric serve: {exc}", file=sys.stderr)
            return 2
        args.config = config
        os.makedirs(args.out, exist_ok=True)
        index = CampaignIndex.create(
            index_path, [unit.to_json() for unit in units],
            units[0].stage, cache_dir=_sweep_cache_root(args),
            store=spec)
        print(f"fabric serve: created campaign "
              f"{index.campaign_id[:12]} ({len(units)} units)")
    coordinator = FabricCoordinator(
        index, store_spec=spec,
        lease_seconds=args.lease_seconds or DEFAULT_LEASE_SECONDS,
        max_attempts=args.max_attempts or DEFAULT_MAX_ATTEMPTS)
    server, _ = make_fabric_server(coordinator, host=args.host,
                                   port=args.port)
    print(f"fabric coordinator on {server.url} — point workers at it "
          f"with `repro fabric worker {server.url}`")
    if args.until_done:
        with serving(server):
            while not coordinator.done():
                time.sleep(0.25)
        completed = len(index.completed)
        print(f"fabric serve: campaign finished — {completed}/"
              f"{len(index.units)} units completed")
        return 0 if completed == len(index.units) else 1
    return _serve_until_interrupted(server)


def cmd_fabric_worker(args):
    from repro.fabric import worker_main
    if not args.worker_id:
        args.worker_id = f"{os.uname().nodename}-{os.getpid()}"
    try:
        summary = worker_main(args.url, worker_id=args.worker_id,
                              jobs=args.jobs, max_units=args.max_units,
                              poll_seconds=args.poll_seconds)
    except ConnectionError as exc:
        print(f"fabric worker: {exc}", file=sys.stderr)
        return 2
    print(f"fabric worker {summary['worker']}: "
          f"ran {len(summary['ran'])}, "
          f"stolen {len(summary['stolen'])}, "
          f"failed {len(summary['failed'])}")
    return 0 if not summary["failed"] else 1


def cmd_fabric_status(args):
    from repro.obs.scrape import ScrapeError, scrape
    try:
        status = scrape(args.url, "/fabric/status")
    except ScrapeError as exc:
        print(f"fabric status: {exc}", file=sys.stderr)
        return 2
    done = " — done" if status.get("done") else ""
    print(f"campaign {status['campaign_id'][:12]} "
          f"(stage {status['stage']}): {status['completed']}/"
          f"{status['units']} completed, {status['pending']} pending, "
          f"{len(status['leased'])} leased, "
          f"{status['failed']} failed{done}")
    for lease in status["leased"]:
        print(f"  leased  {lease['unit'][:12]}  -> {lease['worker']} "
              f"(expires in {lease['expires_in']}s)")
    for key in status["exhausted"]:
        print(f"  exhausted  {key[:12]} (attempt budget spent)")
    return 0


def cmd_trace_summary(args):
    from repro.obs.summary import summarize_file
    try:
        print(summarize_file(args.trace_file, top=args.top))
    except (OSError, ValueError) as exc:
        print(f"trace-summary: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_obs_top(args):
    from repro.obs.scrape import ScrapeError, render_top, scrape
    previous = None
    frame = 0
    try:
        while True:
            frame += 1
            healthz = scrape(args.url, "/healthz")["data"]
            slo = scrape(args.url, "/v1/slo")["data"]
            metrics = scrape(args.url, "/metrics")["data"]
            print(render_top(
                healthz, slo, metrics, previous=previous,
                interval=args.interval if previous is not None
                else None))
            previous = metrics.get("metrics", metrics)
            if args.count and frame >= args.count:
                break
            print("")
            time.sleep(args.interval)
    except ScrapeError as exc:
        print(f"obs top: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


def cmd_obs_export(args):
    from repro.obs.scrape import ScrapeError, scrape
    try:
        if args.format == "prom":
            text = scrape(args.url, "/metrics?format=prom",
                          as_text=True)
        else:
            payload = scrape(args.url, "/metrics")
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    except ScrapeError as exc:
        print(f"obs export: {exc}", file=sys.stderr)
        return 2
    if args.output == "-":
        print(text, end="")
        return 0
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.format} metrics snapshot to {args.output}")
    return 0


def cmd_obs_diff(args):
    from repro.obs.scrape import (ScrapeError, diff_snapshots,
                                  load_export, render_diff)
    try:
        before = load_export(args.before)
        after = load_export(args.after)
    except ScrapeError as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 2
    report = diff_snapshots(before, after, tolerance=args.tolerance)
    print(render_diff(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote diff report to {args.json}")
    return 0 if report["ok"] else 1


def _add_sweep_workers(parser):
    """Execution flags shared by ``sweep run`` and ``resume``."""
    parser.add_argument("--workers", type=int, default=1,
                        help="units in flight: 1 runs inline, N > 1 a "
                             "one-host fabric cluster (default "
                             "%(default)s; output digests are identical "
                             "for any value)")
    parser.add_argument("--worker-jobs", type=int, default=1,
                        dest="worker_jobs",
                        help="claim threads per cluster worker process "
                             "(default %(default)s)")


def _add_study_command(sub, name, help_text, func):
    parser = sub.add_parser(name, help=help_text)
    _add_config(parser)
    _add_cache(parser)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Behind the Scenes' (IMC 2023)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = _add_study_command(
        sub, "generate",
        "generate the world, save the capture as JSONL", cmd_generate)
    p_generate.add_argument("-o", "--output", default="capture.jsonl")
    _add_obs(p_generate)

    p_probe = _add_study_command(
        sub, "probe", "probe all SNIs, save per-server cert summary",
        cmd_probe)
    p_probe.add_argument("-o", "--output", default="certificates.jsonl")
    p_probe.add_argument("--stats", action="store_true",
                         help="print probe engine telemetry (outcomes, "
                              "per-vantage reachability, wall time)")
    _add_obs(p_probe)

    p_report = _add_study_command(
        sub, "report", "run the full pipeline, write the markdown report",
        cmd_report)
    p_report.add_argument("-o", "--output", default="study_report.md",
                          help="output path, or '-' for stdout")
    _add_obs(p_report)

    p_audit = _add_study_command(sub, "audit", "audit one vendor",
                                 cmd_audit)
    p_audit.add_argument("vendor")
    _add_obs(p_audit)

    p_figures = _add_study_command(
        sub, "figures", "export plot-ready JSON data for every figure",
        cmd_figures)
    p_figures.add_argument("-o", "--output", default="figure_data")
    _add_obs(p_figures)

    p_whatif = _add_study_command(
        sub, "whatif", "run the recommendation experiments", cmd_whatif)
    p_whatif.add_argument("experiment",
                          choices=("acme", "aia", "revocation", "all"))
    _add_obs(p_whatif)

    p_serve = _add_study_command(
        sub, "serve",
        "stream-ingest the capture, serve the query API over HTTP",
        cmd_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default %(default)s)")
    p_serve.add_argument("--port", type=int, default=8437,
                         help="bind port; 0 picks an ephemeral port "
                              "(default %(default)s)")
    p_serve.add_argument("--smoke", action="store_true",
                         help="run the built-in load mix against the "
                              "warm server, print the summary, exit")
    p_serve.add_argument("--smoke-requests", type=int, default=50,
                         dest="smoke_requests",
                         help="requests per smoke worker "
                              "(default %(default)s)")
    _add_obs(p_serve)

    p_match = sub.add_parser(
        "match",
        help="the repro.match indexes: build them, query near "
             "matches, inspect index stats")
    match_sub = p_match.add_subparsers(dest="match_command",
                                       required=True)

    def _add_match_command(name, help_text, func):
        sub_parser = match_sub.add_parser(name, help=help_text)
        _add_config(sub_parser)
        _add_cache(sub_parser)
        _add_obs(sub_parser)
        sub_parser.set_defaults(func=func)
        return sub_parser

    p_mbuild = _add_match_command(
        "build-index",
        "construct the corpus + vendor similarity indexes, write the "
        "stats and fingerprint-id map as JSON", cmd_match_build_index)
    p_mbuild.add_argument("-o", "--output", default="match_index.json")
    p_mquery = _add_match_command(
        "query",
        "exact near-match libraries for one fingerprint id",
        cmd_match_query)
    p_mquery.add_argument("fingerprint",
                          help="fingerprint id (16-hex handle from "
                               "build-index or /v1/fingerprints)")
    p_mquery.add_argument("--threshold", type=float, default=0.7,
                          help="minimum feature-set Jaccard "
                               "(default %(default)s)")
    p_mquery.add_argument("--limit", type=int, default=10,
                          help="max results (default %(default)s)")
    _add_match_command(
        "stats",
        "corpus and vendor index statistics",
        cmd_match_stats)

    p_ml = sub.add_parser(
        "ml",
        help="learned fingerprint attribution: train/eval/predict "
             "seeded pure-numpy classifiers over the labeled "
             "synthetic world")
    ml_sub = p_ml.add_subparsers(dest="ml_command", required=True)
    p_mltrain = ml_sub.add_parser(
        "train", help="train the naive-Bayes + logistic-regression "
                      "bundle, write the JSON model file")
    _add_config(p_mltrain)
    _add_cache(p_mltrain)
    p_mltrain.add_argument("--target", choices=("family", "vendor"),
                           default=None,
                           help="prediction target (default family)")
    p_mltrain.add_argument("--width", type=int, default=None,
                           help="hashed feature-space width "
                                "(default 1024)")
    p_mltrain.add_argument("--iters", type=int, default=None,
                           help="fixed gradient-descent iteration "
                                "count (default 2000)")
    p_mltrain.add_argument("--test-fraction", type=float, default=None,
                           dest="test_fraction",
                           help="held-out fraction per class "
                                "(default 0.3)")
    p_mltrain.add_argument("-o", "--output", default=DEFAULT_ML_MODEL,
                           help="model file (default %(default)s)")
    _add_obs(p_mltrain)
    p_mltrain.set_defaults(func=cmd_ml_train)
    p_mleval = ml_sub.add_parser(
        "eval", help="evaluate a trained model, write the canonical "
                     "eval report (digest-checkable by `repro verify "
                     "ml`)")
    _add_config(p_mleval)
    _add_cache(p_mleval)
    p_mleval.add_argument("--model", default=DEFAULT_ML_MODEL,
                          help="trained model file "
                               "(default %(default)s)")
    p_mleval.add_argument("--threshold", type=float, default=None,
                          help="attribution confidence floor in "
                               "[0, 1] (default: the model's)")
    p_mleval.add_argument("--input", metavar="PATH", default=None,
                          help="evaluate on an external labeled "
                               "capture (JSONL rows with vendor "
                               "labels) instead of the study world")
    p_mleval.add_argument("--report", metavar="PATH",
                          default=DEFAULT_ML_REPORT,
                          help="canonical eval report path "
                               "(default %(default)s)")
    _add_obs(p_mleval)
    p_mleval.set_defaults(func=cmd_ml_eval)
    p_mlpredict = ml_sub.add_parser(
        "predict", help="attribute the exact-match-unmatched "
                        "fingerprints with a trained model")
    _add_config(p_mlpredict)
    _add_cache(p_mlpredict)
    p_mlpredict.add_argument("--model", default=DEFAULT_ML_MODEL,
                             help="trained model file "
                                  "(default %(default)s)")
    p_mlpredict.add_argument("--threshold", type=float, default=None,
                             help="attribution confidence floor in "
                                  "[0, 1] (default: the model's)")
    p_mlpredict.add_argument("--limit", type=int, default=20,
                             help="prediction rows to print "
                                  "(default %(default)s)")
    p_mlpredict.add_argument("-o", "--output", default=None,
                             help="also write every prediction row "
                                  "as JSON to PATH")
    _add_obs(p_mlpredict)
    p_mlpredict.set_defaults(func=cmd_ml_predict)

    p_verify = sub.add_parser(
        "verify",
        help="differential conformance: golden baselines, equivalence "
             "matrix, paper invariants")
    verify_sub = p_verify.add_subparsers(dest="verify_command",
                                         required=True)
    p_vrecord = verify_sub.add_parser(
        "record", help="record the golden baseline for this config")
    _add_config(p_vrecord)
    _add_cache(p_vrecord)
    p_vrecord.add_argument("--baseline", metavar="PATH",
                           default=DEFAULT_BASELINE,
                           help="baseline file (default %(default)s)")
    _add_obs(p_vrecord)
    p_vrecord.set_defaults(func=cmd_verify_record)
    p_vcheck = verify_sub.add_parser(
        "check",
        help="re-run the pipeline, compare against the golden baseline")
    _add_config(p_vcheck)
    _add_cache(p_vcheck)
    p_vcheck.add_argument("--baseline", metavar="PATH",
                          default=DEFAULT_BASELINE,
                          help="baseline file (default %(default)s)")
    p_vcheck.add_argument("--report", metavar="PATH", default=None,
                          help="also write the structured diff report "
                               "as JSON to PATH")
    _add_obs(p_vcheck)
    p_vcheck.set_defaults(func=cmd_verify_check)
    p_vmatrix = verify_sub.add_parser(
        "matrix",
        help="prove execution modes equivalent (serial, cold/warm "
             "cache, store permutations, cluster)")
    _add_config(p_vmatrix)
    p_vmatrix.add_argument("--report", metavar="PATH", default=None,
                           help="also write per-mode node digests and "
                                "mismatches as JSON to PATH")
    _add_obs(p_vmatrix)
    p_vmatrix.set_defaults(func=cmd_verify_matrix)
    p_vinv = verify_sub.add_parser(
        "invariants",
        help="evaluate the paper-invariant checks and print verdicts")
    _add_config(p_vinv)
    _add_cache(p_vinv)
    _add_obs(p_vinv)
    p_vinv.set_defaults(func=cmd_verify_invariants)
    p_vml = verify_sub.add_parser(
        "ml",
        help="re-train the attribution model and digest-check its "
             "canonical eval report against the committed baseline")
    _add_config(p_vml)
    _add_cache(p_vml)
    p_vml.add_argument("--baseline", metavar="PATH",
                       default=DEFAULT_ML_BASELINE,
                       help="ml baseline file (default %(default)s)")
    p_vml.add_argument("--record", action="store_true",
                       help="record the baseline instead of checking")
    p_vml.add_argument("--report", metavar="PATH", default=None,
                       help="also write the digest-check report as "
                            "JSON to PATH")
    _add_obs(p_vml)
    p_vml.set_defaults(func=cmd_verify_ml)

    p_sweep = sub.add_parser(
        "sweep",
        help="process-parallel multi-config campaigns: seed grids, "
             "trust-store ablations, variance bands")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command",
                                       required=True)
    p_srun = sweep_sub.add_parser(
        "run", help="run (or re-run, skipping completed configs) a "
                    "sweep campaign")
    _add_config(p_srun)
    _add_cache(p_srun)
    p_srun.add_argument("--seeds", type=int, default=4,
                        help="number of consecutive seeds starting at "
                             "--seed (default %(default)s)")
    p_srun.add_argument("--grid", metavar="AXES", default="seeds",
                        help="comma-separated grid axes from "
                             "seeds,stores,ml (default %(default)s)")
    p_srun.add_argument("--stage", choices=("full", "probe", "ml"),
                        default="full",
                        help="run the full pipeline or stop after "
                             "probing (default %(default)s)")
    p_srun.add_argument("--time-scale", type=float, default=0.0,
                        dest="time_scale",
                        help="real seconds slept per simulated network "
                             "second while probing (default "
                             "%(default)s; never changes output bytes)")
    p_srun.add_argument("--out", metavar="DIR", default="sweep_out",
                        help="campaign directory: ledger + report "
                             "(default %(default)s)")
    _add_sweep_workers(p_srun)
    p_srun.add_argument("--store-backend", choices=("local", "http"),
                        default="local", dest="store_backend",
                        help="artifact store backend the workers use "
                             "(default %(default)s; http dials "
                             "--store-url or is self-served by the "
                             "cluster coordinator from --cache-dir)")
    p_srun.add_argument("--store-url", metavar="URL", default=None,
                        dest="store_url",
                        help="base URL of an external http blob store")
    _add_obs(p_srun)
    p_srun.set_defaults(func=cmd_sweep_run)
    p_sresume = sweep_sub.add_parser(
        "resume", help="resume a killed campaign: re-run only "
                       "incomplete configs")
    p_sresume.add_argument("--out", metavar="DIR", default="sweep_out")
    _add_sweep_workers(p_sresume)
    _add_obs(p_sresume)
    p_sresume.set_defaults(func=cmd_sweep_resume, seed=DEFAULT_SEED)
    p_sreport = sweep_sub.add_parser(
        "report", help="aggregate a campaign ledger into variance "
                       "bands (no re-running)")
    p_sreport.add_argument("--out", metavar="DIR", default="sweep_out")
    p_sreport.add_argument("--json", metavar="PATH", default=None,
                           help="also write the aggregate report as "
                                "JSON to PATH")
    _add_obs(p_sreport)
    p_sreport.set_defaults(func=cmd_sweep_report, seed=DEFAULT_SEED)

    p_fabric = sub.add_parser(
        "fabric",
        help="distributed campaign fabric: serve a campaign's units "
             "as leases, run a worker, inspect a coordinator")
    fabric_sub = p_fabric.add_subparsers(dest="fabric_command",
                                         required=True)
    p_fserve = fabric_sub.add_parser(
        "serve",
        help="serve a campaign over HTTP (leases + blob store + "
             "/metrics); creates the campaign from the grid flags "
             "when --out has no ledger yet")
    _add_config(p_fserve)
    _add_cache(p_fserve)
    p_fserve.add_argument("--seeds", type=int, default=4,
                          help="number of consecutive seeds starting "
                               "at --seed (default %(default)s)")
    p_fserve.add_argument("--grid", metavar="AXES", default="seeds",
                          help="comma-separated grid axes from "
                               "seeds,stores,ml "
                               "(default %(default)s)")
    p_fserve.add_argument("--stage", choices=("full", "probe", "ml"),
                          default="full",
                          help="run the full pipeline or stop after "
                               "probing (default %(default)s)")
    p_fserve.add_argument("--time-scale", type=float, default=0.0,
                          dest="time_scale",
                          help="real seconds slept per simulated "
                               "network second while probing "
                               "(default %(default)s)")
    p_fserve.add_argument("--out", metavar="DIR", default="sweep_out",
                          help="campaign directory "
                               "(default %(default)s)")
    p_fserve.add_argument("--host", default="127.0.0.1",
                          help="bind address (default %(default)s)")
    p_fserve.add_argument("--port", type=int, default=8600,
                          help="bind port; 0 picks an ephemeral port "
                               "(default %(default)s)")
    p_fserve.add_argument("--store-backend", choices=("local", "http"),
                          default="local", dest="store_backend",
                          help="artifact store backend leases carry "
                               "(default %(default)s; http without "
                               "--store-url is self-served from "
                               "--cache-dir)")
    p_fserve.add_argument("--store-url", metavar="URL", default=None,
                          dest="store_url",
                          help="base URL of an external http blob "
                               "store")
    p_fserve.add_argument("--lease-seconds", type=float, default=None,
                          dest="lease_seconds",
                          help="lease/heartbeat interval "
                               "(default: fabric default)")
    p_fserve.add_argument("--max-attempts", type=int, default=None,
                          dest="max_attempts",
                          help="lease grants per unit before it is "
                               "declared failed "
                               "(default: fabric default)")
    p_fserve.add_argument("--until-done", action="store_true",
                          dest="until_done",
                          help="exit when every unit is completed or "
                               "exhausted (instead of serving forever)")
    _add_obs(p_fserve)
    p_fserve.set_defaults(func=cmd_fabric_serve)
    p_fworker = fabric_sub.add_parser(
        "worker", help="claim, run, and upload units from a fabric "
                       "coordinator until its campaign is done")
    p_fworker.add_argument("url", help="coordinator base URL")
    p_fworker.add_argument("--worker-id", default=None,
                           dest="worker_id",
                           help="lease identity "
                                "(default: host-pid)")
    p_fworker.add_argument("--jobs", type=int, default=2,
                           help="concurrent claim threads "
                                "(default %(default)s)")
    p_fworker.add_argument("--max-units", type=int, default=None,
                           dest="max_units",
                           help="stop after completing this many "
                                "units (default: run until done)")
    p_fworker.add_argument("--poll-seconds", type=float, default=0.25,
                           dest="poll_seconds",
                           help="sleep between lease attempts while "
                                "the queue is drained "
                                "(default %(default)s)")
    _add_obs(p_fworker)
    p_fworker.set_defaults(func=cmd_fabric_worker, seed=DEFAULT_SEED)
    p_fstatus = fabric_sub.add_parser(
        "status", help="one-shot queue/lease/ledger view of a running "
                       "coordinator")
    p_fstatus.add_argument("url", nargs="?",
                           default="http://127.0.0.1:8600",
                           help="coordinator base URL "
                                "(default %(default)s)")
    _add_obs(p_fstatus)
    p_fstatus.set_defaults(func=cmd_fabric_status, seed=DEFAULT_SEED)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the artifact store")
    cache_sub = p_cache.add_subparsers(dest="cache_command",
                                       required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="entry counts, bytes, per-stage breakdown")
    p_stats.add_argument("--cache-dir", metavar="DIR", default=None)
    p_stats.set_defaults(func=cmd_cache_stats)
    p_clear = cache_sub.add_parser(
        "clear", help="delete every cached artifact (all versions)")
    p_clear.add_argument("--cache-dir", metavar="DIR", default=None)
    p_clear.set_defaults(func=cmd_cache_clear)

    p_trace = sub.add_parser(
        "trace-summary",
        help="render a --trace JSONL file (top spans, metrics, manifest)")
    p_trace.add_argument("trace_file")
    p_trace.add_argument("--top", type=int, default=15,
                         help="span names to show (default %(default)s)")
    p_trace.set_defaults(func=cmd_trace_summary)

    p_obs = sub.add_parser(
        "obs", help="inspect a running repro serve over HTTP: live "
                    "top view, snapshot export, snapshot diff")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    default_url = "http://127.0.0.1:8437"
    p_otop = obs_sub.add_parser(
        "top", help="poll a server's health, SLO verdicts, and key "
                    "metrics (ctrl-C to stop)")
    p_otop.add_argument("url", nargs="?", default=default_url,
                        help="server base URL (default %(default)s)")
    p_otop.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls "
                             "(default %(default)s)")
    p_otop.add_argument("--count", type=int, default=0,
                        help="frames to render; 0 polls until "
                             "interrupted (default %(default)s)")
    p_otop.set_defaults(func=cmd_obs_top)
    p_oexport = obs_sub.add_parser(
        "export", help="scrape /metrics once, write the snapshot")
    p_oexport.add_argument("url", nargs="?", default=default_url,
                           help="server base URL (default %(default)s)")
    p_oexport.add_argument("-o", "--output",
                           default="metrics_snapshot.json",
                           help="output path, or '-' for stdout "
                                "(default %(default)s)")
    p_oexport.add_argument("--format", choices=("json", "prom"),
                           default="json",
                           help="JSON snapshot or Prometheus "
                                "exposition text (default %(default)s)")
    p_oexport.set_defaults(func=cmd_obs_export)
    p_odiff = obs_sub.add_parser(
        "diff", help="compare two exported JSON snapshots and flag "
                     "regressions (exit 1 when any)")
    p_odiff.add_argument("before", help="earlier obs export file")
    p_odiff.add_argument("after", help="later obs export file")
    p_odiff.add_argument("--tolerance", type=float, default=0.05,
                         help="allowed growth of a latency "
                              "histogram's slow share "
                              "(default %(default)s)")
    p_odiff.add_argument("--json", metavar="PATH", default=None,
                         help="also write the structured diff report "
                              "as JSON to PATH")
    p_odiff.set_defaults(func=cmd_obs_diff)
    return parser


def _run_observed(args):
    """Run one study command inside a live observability context."""
    from repro.obs.summary import metric_table
    sink = obs.JsonlSink(args.trace) if args.trace else None
    ctx = obs.Observability(sink=sink)
    args.artifacts = []
    started_at = time.time()
    previous = obs.activate(ctx)
    try:
        with ctx.span(f"cli.{args.command}"):
            code = args.func(args)
    finally:
        obs.deactivate(previous)
    manifest = RunManifest.from_run(
        command=args.command,
        config=getattr(args, "config", None)
        or StudyConfig(seed=args.seed),
        obs_ctx=ctx, outputs=args.artifacts,
        started_at=started_at, finished_at=time.time(),
        store=getattr(args, "store", None),
        invariants=getattr(args, "invariants", None))
    ctx.sink.emit({"type": "manifest", "manifest": manifest.to_json()})
    ctx.close()
    for artifact in args.artifacts:
        manifest.write(manifest_path_for(artifact))
    if args.trace:
        print(f"wrote trace to {args.trace} "
              f"({sink.events_written} events)")
    if args.metrics:
        print("metrics:")
        print("\n".join(metric_table(ctx.metrics.snapshot())))
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("trace-summary", "cache", "obs"):
        return args.func(args)
    return _run_observed(args)


if __name__ == "__main__":
    raise SystemExit(main())
