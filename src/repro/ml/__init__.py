"""Learned fingerprint attribution for the unmatched 97.45%.

The paper's central negative result is that only ~2.55% of device
ClientHello fingerprints exactly match a known TLS library (Section
4.1).  Because this reproduction *generates* its world, it knows the
ground truth the original authors could not observe: every stack
records which library it was derived from and every record its vendor.
``repro.ml`` exploits that to run the study the paper could not —
train a supervised model on labeled fingerprints and measure how far
past exact matching attribution can reach (echoing the
classifier-over-handshake-features approach of *Active TLS Stack
Fingerprinting* and the labeled-traffic methodology of *IoT
Inspector*).

Everything is deterministic end-to-end — seeded SHA-256 feature
hashing, zero-init fixed-iteration full-batch training, rounded
parameters and metrics — so eval reports are canonical-JSON artifacts
whose digest ``repro verify ml`` checks against a committed baseline,
exactly like the pipeline's golden baseline.  numpy is the only
dependency (already a CI dependency for tests); sklearn is
deliberately not used.

Import surface note: ``repro.ml`` imports numpy at module load, so the
pipeline registry, CLI, and figures all import it *lazily* — ``import
repro`` stays stdlib-only.
"""

from repro.ml.baseline import (DEFAULT_ML_BASELINE, check_ml_baseline,
                               load_ml_baseline, record_ml_baseline)
from repro.ml.data import (LabeledExample, TARGETS, labeled_examples,
                           stratified_split)
from repro.ml.features import (DEFAULT_WIDTH, FeatureExtractor,
                               feature_seed, fingerprint_tokens)
from repro.ml.models import LogisticOVR, MultinomialNB
from repro.ml.pipeline import (AttributionModel, DEFAULT_ITERS,
                               DEFAULT_TEST_FRACTION,
                               DEFAULT_THRESHOLD, MLParams,
                               canonical_report_text, eval_digest,
                               evaluate_capture, evaluate_model,
                               evaluate_study, render_eval,
                               train_attribution, train_study)

__all__ = [
    "AttributionModel", "DEFAULT_ITERS", "DEFAULT_ML_BASELINE",
    "DEFAULT_TEST_FRACTION", "DEFAULT_THRESHOLD", "DEFAULT_WIDTH",
    "FeatureExtractor", "LabeledExample", "LogisticOVR", "MLParams",
    "MultinomialNB", "TARGETS", "canonical_report_text",
    "check_ml_baseline", "eval_digest", "evaluate_capture",
    "evaluate_model", "evaluate_study", "feature_seed",
    "fingerprint_tokens", "labeled_examples", "load_ml_baseline",
    "record_ml_baseline", "render_eval", "stratified_split",
    "train_attribution", "train_study",
]
