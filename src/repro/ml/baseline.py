"""Committed conformance baseline for the ML eval report.

Exactly the pipeline-baseline idea (:mod:`repro.verify.baseline`)
applied to the attribution stage: because training is a pure function
of ``(world, config, MLParams)``, the canonical digest of the eval
payload is a *conformance artifact* — ``repro verify ml`` re-trains
and asserts the digest against ``conformance/ml_baseline.json``; any
drift (a feature-extraction change, an iteration-count bump, a numpy
behaviour change) shows up as a first-divergence path, not a silent
metrics shift.
"""

import json

from repro.ml.pipeline import eval_digest
from repro.schema import versioned
from repro.verify.baseline import DEFAULT_ML_BASELINE
from repro.verify.canonical import canonicalize, first_divergence


def record_ml_baseline(payload, path=DEFAULT_ML_BASELINE):
    """Write the committed baseline for one eval payload."""
    document = versioned({
        "artifact_digest": payload["artifact_digest"],
        "digest": eval_digest(payload),
        "payload": canonicalize(payload),
    })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_ml_baseline(path=DEFAULT_ML_BASELINE):
    """The committed baseline document (``FileNotFoundError`` if absent)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "digest" not in document:
        raise ValueError(f"{path} is not an ml baseline file")
    return document


def check_ml_baseline(payload, path=DEFAULT_ML_BASELINE):
    """Compare a fresh eval payload against the committed baseline.

    Returns a JSON-safe report: ``ok``, both digests, and (on
    mismatch) the first divergent path between the two payloads.
    """
    document = load_ml_baseline(path)
    fresh_digest = eval_digest(payload)
    report = {
        "ok": document["digest"] == fresh_digest,
        "baseline": path,
        "expected_digest": document["digest"],
        "actual_digest": fresh_digest,
        "expected_artifact_digest": document["artifact_digest"],
        "actual_artifact_digest": payload["artifact_digest"],
    }
    if document["artifact_digest"] != payload["artifact_digest"]:
        report["note"] = ("baseline was recorded for a different "
                          "study config; re-record with "
                          "`repro verify ml --record` or pass the "
                          "matching --seed")
    if not report["ok"]:
        divergence = first_divergence(document["payload"],
                                      canonicalize(payload))
        if divergence is not None:
            report["first_divergence"] = list(divergence)
    return report
