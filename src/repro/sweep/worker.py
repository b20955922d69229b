"""The sweep worker: one unit, one JSON result.

``run_unit`` is the function every campaign executes per unit — inline
in the campaign process, or in a fabric worker process that leased the
unit.  It is deliberately top-level and JSON-in/JSON-out:

- the *input* is ``{"unit": spec, "store": store-backend spec}``
  (:meth:`repro.sweep.grid.SweepUnit.to_json` plus the campaign's
  resolved store spec), so the process boundary never pickles live
  object graphs in;
- the *output* is a plain dict of digests, scalars, invariant verdicts,
  per-stage timings, and cache provenance, so the boundary never pickles
  analysis objects out.

Each worker builds its own :class:`~repro.study.Study` (never the
memoized ``get_study`` — a unit that probes through its own engine
must not pollute a shared memo), attaches the campaign's shared
artifact store when one is configured — local directory or remote
HTTP backend,
resolved from the payload's store-backend spec by
:func:`repro.store.backend.store_from_spec`
(warming it for every later unit and re-run), and runs under its own
:class:`repro.obs.Observability` context so per-config stage timings
travel back in the result payload instead of vanishing inside the
subprocess.

Determinism contract: a unit's ``config_digest`` (the combined digest
over its non-volatile analysis nodes) is byte-identical whether the unit
runs in a fabric worker, inline in the campaign process, or via a plain
``repro report`` — the same guarantee the equivalence matrix enforces,
extended across the process boundary.
"""

import hashlib
import json
import time

from repro import obs
from repro.store.backend import store_from_spec
from repro.study import Study
from repro.sweep.grid import SweepUnit
from repro.verify.baseline import VOLATILE_NODES
from repro.verify.canonical import digest


def _probe_via_engine(study, unit):
    """Probe under the unit's latency time scale unless the store has it.

    The modelled round-trip sleeps change only wall-clock, so the
    dataset is byte-identical to the study's own probing and shares its
    ``certificates`` store entry.
    """
    from repro.probing.engine import LatencyModel, ProbeEngine
    return study.probe_with(
        lambda network: ProbeEngine(
            network, latency=LatencyModel(seed=study.config.seed),
            time_scale=unit.time_scale))


def _combined_digest(node_digests):
    """One digest over every non-volatile node digest (sorted)."""
    payload = {name: value for name, value in node_digests.items()
               if name not in VOLATILE_NODES}
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _scalars(results):
    """The key analysis scalars the aggregator collects per seed."""
    client = results["client"]
    server = results["server"]
    doc_vendor = list(client["doc_vendor"].values())
    doc_device = list(client["doc_device"].values())
    days = [point.validity_days for point in server["ct"].points]

    def mean(values):
        return round(sum(values) / len(values), 9) if values else None

    return {
        "match_rate": round(client["matching"].matched_fraction, 9),
        "doc_vendor_mean": mean(doc_vendor),
        "doc_device_mean": mean(doc_device),
        "validity_min_days": round(min(days), 6),
        "validity_max_days": round(max(days), 6),
    }


def _issuer_shares(results):
    issuers = results["server"]["issuers"]
    return {org: round(issuers.issuer_share(org), 9)
            for org in issuers.issuer_orgs}


def run_unit(payload):
    """Execute one sweep unit; returns its JSON result payload."""
    from repro.core.pipeline import run_full_study
    from repro.verify.invariants import invariant_summary
    unit = SweepUnit.from_json(payload["unit"])
    config = unit.study_config()
    started = time.perf_counter()
    ctx = obs.Observability()
    previous = obs.activate(ctx)
    try:
        study = Study(config)
        store = store_from_spec(payload.get("store"))
        if store is not None:
            study.attach_store(store)
        if unit.time_scale > 0.0:
            _probe_via_engine(study, unit)
        with ctx.span(f"sweep.unit.{unit.name}"):
            if unit.stage == "probe":
                certificates = study.certificates
                node_digests = {
                    "probe.certificates": certificates.fingerprint()}
                scalars = {
                    "probed_snis": float(len(certificates)),
                    "reachable_snis": float(
                        len(certificates.reachable_fqdns())),
                }
                issuer_shares = {}
                invariants = {}
            elif unit.stage == "ml":
                from repro.ml import evaluate_study
                eval_payload = evaluate_study(study)
                node_digests = {
                    "ml.eval_report": digest(eval_payload)}
                scalars = {
                    "ml_macro_f1": eval_payload["macro"]["f1"],
                    "ml_heldout_accuracy": eval_payload["accuracy"],
                    "ml_attribution_coverage":
                        eval_payload["coverage"]
                        ["attribution_coverage"],
                }
                issuer_shares = {}
                invariants = {}
            else:
                node_digests = {}
                results = run_full_study(
                    study,
                    node_observer=lambda stage, packed:
                        node_digests.__setitem__(stage, digest(packed)))
                scalars = _scalars(results)
                issuer_shares = _issuer_shares(results)
                invariants = invariant_summary(study, results)
        timings = ctx.tracer.stage_timings()
    finally:
        obs.deactivate(previous)
    return {
        "name": unit.name,
        "key": unit.key(),
        "seed": unit.seed,
        "stage": unit.stage,
        "unit": unit.to_json(),
        "ok": True,
        "artifact_digest": config.artifact_digest(),
        "config_digest": _combined_digest(node_digests),
        "node_digests": node_digests,
        "scalars": scalars,
        "issuer_shares": issuer_shares,
        "invariants": invariants,
        "wall_seconds": round(time.perf_counter() - started, 6),
        "stage_timings": timings,
        "cache": store.provenance() if store is not None else {},
    }
