"""Train/eval orchestration for learned fingerprint attribution.

The flow is deliberately a pure function of ``(dataset, corpus, world,
config, MLParams)``:

1. :func:`repro.ml.data.labeled_examples` extracts the ground-truth
   labels the generator knows;
2. :func:`repro.ml.data.stratified_split` carves a deterministic
   held-out set (seeded by the config digest);
3. the :class:`~repro.ml.features.FeatureExtractor` hashes both sides
   into numpy matrices;
4. :class:`~repro.ml.models.MultinomialNB` (baseline) and
   :class:`~repro.ml.models.LogisticOVR` (headline) train on the train
   matrix;
5. :func:`evaluate_model` scores the held-out set (per-class
   precision/recall/F1, confusion table) and sweeps the trained model
   over every exact-match-*unmatched* fingerprint to produce the
   headline **attribution coverage** — the share of the paper's 97.45%
   the model attributes above a confidence threshold.

Every float in the eval payload is rounded to 9 decimals before the
canonical digest, so ``repro verify ml`` can assert the digest against
``conformance/ml_baseline.json`` the same way the pipeline baseline
works.  :func:`evaluate_study` memoizes per training-config digest — the
analysis node, the figure exporter, and the CLI share one training run
per process.
"""

import json
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.ingest.snapshots import fingerprint_id
from repro.ml.data import (TARGETS, labeled_examples, stratified_split)
from repro.ml.features import (DEFAULT_WIDTH, FeatureExtractor,
                               feature_seed, training_config)
from repro.ml.models import LogisticOVR, MultinomialNB
from repro.schema import versioned
from repro.verify.canonical import canonicalize
from repro.verify.canonical import digest as canonical_digest

#: default confidence floor for counting a prediction as *attributed*.
DEFAULT_THRESHOLD = 0.6

#: default gradient-descent iteration count (fixed, part of the
#: determinism contract).
DEFAULT_ITERS = 2000

#: default held-out fraction per class.
DEFAULT_TEST_FRACTION = 0.3


@dataclass(frozen=True)
class MLParams:
    """Every knob that selects an attribution training run."""

    target: str = "family"
    width: int = DEFAULT_WIDTH
    iters: int = DEFAULT_ITERS
    learning_rate: float = 30.0
    l2: float = 1e-5
    alpha: float = 1.0
    test_fraction: float = DEFAULT_TEST_FRACTION
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown attribution target "
                             f"{self.target!r}; expected one of "
                             f"{TARGETS}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be within [0.0, 1.0], "
                             f"got {self.threshold}")

    def to_json(self):
        return {
            "target": self.target, "width": self.width,
            "iters": self.iters,
            "learning_rate": self.learning_rate, "l2": self.l2,
            "alpha": self.alpha,
            "test_fraction": self.test_fraction,
            "threshold": self.threshold,
        }

    @classmethod
    def from_json(cls, payload):
        return cls(**{key: payload[key]
                      for key in cls.__dataclass_fields__
                      if key in payload})


class AttributionModel:
    """A trained extractor + NB + LR bundle with exact JSON round-trip."""

    def __init__(self, params, extractor, classes, nb, lr,
                 artifact_digest, counts):
        self.params = params
        self.extractor = extractor
        self.classes = tuple(classes)
        self.nb = nb
        self.lr = lr
        self.artifact_digest = artifact_digest
        self.counts = dict(counts)

    def predict_rows(self, fps, threshold=None):
        """Per-fingerprint prediction rows, sorted by confidence desc."""
        if threshold is None:
            threshold = self.params.threshold
        if not fps:
            return []
        X = self.extractor.matrix(fps)
        lr_proba = self.lr.proba(X)
        nb_pred = self.nb.predict(X)
        rows = []
        for i, fp in enumerate(fps):
            best = int(np.argmax(lr_proba[i]))
            confidence = round(float(lr_proba[i][best]), 9)
            rows.append({
                "fingerprint": fingerprint_id(fp),
                "label": self.classes[best],
                "confidence": confidence,
                "attributed": confidence >= threshold,
                "nb_label": self.classes[int(nb_pred[i])],
            })
        rows.sort(key=lambda row: (-row["confidence"],
                                   row["fingerprint"]))
        return rows

    def to_json(self):
        return versioned({
            "kind": "ml_model",
            "target": self.params.target,
            "artifact_digest": self.artifact_digest,
            "params": self.params.to_json(),
            "feature": self.extractor.to_json(),
            "classes": list(self.classes),
            "counts": dict(self.counts),
            "nb": self.nb.to_json(),
            "lr": self.lr.to_json(),
        })

    @classmethod
    def from_json(cls, payload):
        if payload.get("kind") != "ml_model":
            raise ValueError("not an attribution model payload "
                             f"(kind={payload.get('kind')!r})")
        return cls(
            params=MLParams.from_json(payload["params"]),
            extractor=FeatureExtractor.from_json(payload["feature"]),
            classes=tuple(payload["classes"]),
            nb=MultinomialNB.from_json(payload["nb"]),
            lr=LogisticOVR.from_json(payload["lr"]),
            artifact_digest=payload["artifact_digest"],
            counts=dict(payload["counts"]))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not a JSON model file "
                                 f"({exc})") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{path} is not an attribution model file")
        return cls.from_json(payload)


def train_attribution(dataset, corpus, world, config, params=None):
    """Train the NB + LR bundle; returns the :class:`AttributionModel`."""
    params = params or MLParams()
    seed = feature_seed(config)
    with obs.span("ml.train") as span:
        examples, _ = labeled_examples(dataset, corpus, world,
                                       target=params.target)
        train, test = stratified_split(
            examples, test_fraction=params.test_fraction, seed=seed)
        classes = tuple(sorted({example.label
                                for example in examples}))
        index = {label: i for i, label in enumerate(classes)}
        extractor = FeatureExtractor(width=params.width, seed=seed)
        with obs.span("ml.features"):
            X = extractor.matrix([ex.fingerprint for ex in train])
        y = np.array([index[ex.label] for ex in train],
                     dtype=np.int64)
        nb = MultinomialNB(alpha=params.alpha).fit(X, y, len(classes))
        lr = LogisticOVR(iters=params.iters,
                         learning_rate=params.learning_rate,
                         l2=params.l2).fit(X, y, len(classes))
        span.incr("examples", len(examples))
        span.incr("classes", len(classes))
        span.incr("iters", params.iters)
    return AttributionModel(
        params=params, extractor=extractor, classes=classes, nb=nb,
        lr=lr, artifact_digest=training_config(config).artifact_digest(),
        counts={"labeled": len(examples), "train": len(train),
                "test": len(test)})


def _per_class_metrics(y_true, y_pred, classes):
    """(per_class dict, macro dict, confusion dict) over test labels."""
    per_class = {}
    confusion = {}
    macro = {"precision": [], "recall": [], "f1": []}
    for i, label in enumerate(classes):
        tp = int(np.sum((y_true == i) & (y_pred == i)))
        fp = int(np.sum((y_true != i) & (y_pred == i)))
        fn = int(np.sum((y_true == i) & (y_pred != i)))
        support = int(np.sum(y_true == i))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[label] = {
            "precision": round(precision, 9),
            "recall": round(recall, 9),
            "f1": round(f1, 9),
            "support": support,
        }
        if support:
            macro["precision"].append(precision)
            macro["recall"].append(recall)
            macro["f1"].append(f1)
    for i, label in enumerate(classes):
        row = {}
        for j, predicted in enumerate(classes):
            count = int(np.sum((y_true == i) & (y_pred == j)))
            if count:
                row[predicted] = count
        if row:
            confusion[label] = row
    macro = {name: round(sum(values) / len(values), 9)
             if values else 0.0
             for name, values in macro.items()}
    return per_class, macro, confusion


def evaluate_model(model, dataset, corpus, world, config,
                   threshold=None):
    """The canonical eval payload for a trained model on one study."""
    params = model.params
    if threshold is None:
        threshold = params.threshold
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be within [0.0, 1.0], "
                         f"got {threshold}")
    seed = feature_seed(config)
    with obs.span("ml.eval") as span:
        examples, unmatched = labeled_examples(
            dataset, corpus, world, target=params.target)
        _, test = stratified_split(
            examples, test_fraction=params.test_fraction, seed=seed)
        index = {label: i for i, label in enumerate(model.classes)}
        test = [ex for ex in test if ex.label in index]
        X_test = model.extractor.matrix(
            [ex.fingerprint for ex in test])
        y_true = np.array([index[ex.label] for ex in test],
                          dtype=np.int64)
        lr_proba = model.lr.proba(X_test)
        y_pred = np.argmax(lr_proba, axis=1)
        nb_pred = model.nb.predict(X_test)
        per_class, macro, confusion = _per_class_metrics(
            y_true, y_pred, model.classes)
        _, nb_macro, _ = _per_class_metrics(y_true, nb_pred,
                                            model.classes)
        accuracy = (float(np.mean(y_pred == y_true))
                    if len(test) else 0.0)
        nb_accuracy = (float(np.mean(nb_pred == y_true))
                       if len(test) else 0.0)

        total_fps = dataset.fingerprint_count
        matched = total_fps - len(unmatched)
        exact_match_rate = matched / total_fps if total_fps else 0.0

        # headline: sweep the unmatched 97.45% and count confident calls
        X_un = model.extractor.matrix(list(unmatched))
        un_proba = model.lr.proba(X_un) if len(unmatched) else \
            np.zeros((0, len(model.classes)))
        un_conf = (un_proba.max(axis=1) if len(unmatched)
                   else np.zeros(0))
        attributed = int(np.sum(un_conf >= threshold))
        coverage = (attributed / len(unmatched) if unmatched else 0.0)

        # accuracy of confident calls on held-out unmatched examples
        unmatched_set = set(unmatched)
        held_idx = [i for i, ex in enumerate(test)
                    if ex.fingerprint in unmatched_set]
        held_conf_ok = [i for i in held_idx
                        if float(lr_proba[i].max()) >= threshold]
        heldout_unmatched_accuracy = (
            float(np.mean(y_pred[held_conf_ok]
                          == y_true[held_conf_ok]))
            if held_conf_ok else 0.0)
        span.incr("test_examples", len(test))
        span.incr("unmatched", len(unmatched))
        span.incr("attributed", attributed)
    return versioned({
        "kind": "ml_eval",
        "target": params.target,
        "artifact_digest": training_config(config).artifact_digest(),
        "model_artifact_digest": model.artifact_digest,
        "feature_seed": f"{seed:016x}",
        "params": params.to_json(),
        "classes": list(model.classes),
        "examples": {
            "fingerprints": total_fps,
            "labeled": len(examples),
            "train": model.counts.get("train"),
            "test": len(test),
            "matched": matched,
            "unmatched": len(unmatched),
        },
        "exact_match_rate": round(exact_match_rate, 9),
        "accuracy": round(accuracy, 9),
        "macro": macro,
        "baseline_nb": {
            "accuracy": round(nb_accuracy, 9),
            "macro_f1": nb_macro["f1"],
        },
        "per_class": per_class,
        "confusion": confusion,
        "coverage": {
            "threshold": round(float(threshold), 9),
            "attributed": attributed,
            "unmatched": len(unmatched),
            "attribution_coverage": round(coverage, 9),
            "heldout_unmatched_accuracy": round(
                heldout_unmatched_accuracy, 9),
            "coverage_gain": round(
                coverage / exact_match_rate, 9)
            if exact_match_rate else 0.0,
        },
    })


def evaluate_capture(model, rows, threshold=None):
    """Evaluate a vendor-target model on an external labeled capture.

    ``rows`` are anonymized-capture JSONL dicts (the
    :meth:`ClientHelloRecord.to_json` shape).  Only the ``"vendor"``
    target is supported — a capture carries vendor labels, not library
    provenance — and every row must be labeled; an unlabeled or
    malformed row raises ``ValueError`` naming its index.
    """
    if model.params.target != "vendor":
        raise ValueError("--input captures carry vendor labels only; "
                         f"this model predicts "
                         f"{model.params.target!r} (retrain with "
                         f"--target vendor)")
    if threshold is None:
        threshold = model.params.threshold
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be within [0.0, 1.0], "
                         f"got {threshold}")
    votes = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"input row {i} is not a JSON object")
        vendor = row.get("vendor")
        if not vendor:
            raise ValueError(f"input row {i} has no vendor label")
        if not isinstance(vendor, str):
            raise ValueError(f"input row {i} has a vendor label that is "
                             f"not a string")
        try:
            suites, extensions = row["ciphersuites"], row["extensions"]
            if not (isinstance(suites, list)
                    and isinstance(extensions, list)):
                raise TypeError("ciphersuites and extensions must be "
                                "lists")
            fp = (int(row["tls_version"]),
                  tuple(int(code) for code in suites),
                  tuple(int(code) for code in extensions))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"input row {i} is not a capture row "
                             f"({type(exc).__name__}: {exc})") from None
        tally = votes.setdefault(fp, {})
        tally[vendor] = tally.get(vendor, 0) + 1
    fps = sorted(votes)
    index = {label: i for i, label in enumerate(model.classes)}
    labels = []
    for fp in fps:
        tally = votes[fp]
        best = max(tally.values())
        labels.append(min(label for label, weight in tally.items()
                          if weight == best))
    with obs.span("ml.eval_capture") as span:
        X = model.extractor.matrix(fps)
        proba = model.lr.proba(X) if fps else \
            np.zeros((0, len(model.classes)))
        pred = (np.argmax(proba, axis=1) if fps
                else np.zeros(0, dtype=np.int64))
        conf = proba.max(axis=1) if fps else np.zeros(0)
        known = [i for i, label in enumerate(labels) if label in index]
        correct = sum(1 for i in known
                      if int(pred[i]) == index[labels[i]])
        attributed = int(np.sum(conf >= threshold))
        span.incr("rows", len(rows))
        span.incr("fingerprints", len(fps))
    return versioned({
        "kind": "ml_eval_capture",
        "target": model.params.target,
        "model_artifact_digest": model.artifact_digest,
        "records": len(rows),
        "fingerprints": len(fps),
        "known": len(known),
        "accuracy": round(correct / len(known), 9) if known else 0.0,
        "attributed": attributed,
        "attributed_fraction": round(attributed / len(fps), 9)
        if fps else 0.0,
        "threshold": round(float(threshold), 9),
    })


#: per-process memo: one training run per training-config digest.
_EVAL_MEMO = {}


def train_study(study, params=None):
    """Convenience wrapper: train on a :class:`~repro.study.Study`."""
    return train_attribution(study.dataset, study.corpus, study.world,
                             study.config, params=params)


def evaluate_study(study):
    """Train + eval on a study, memoized per training-config digest.

    The ``ml_attribution`` analysis node, the figure exporter, the CLI
    and sweep units share one training run per process.
    """
    key = training_config(study.config).artifact_digest()
    payload = _EVAL_MEMO.get(key)
    if payload is None:
        dataset, corpus, world = study.dataset, study.corpus, study.world
        model = train_attribution(dataset, corpus, world, study.config)
        payload = evaluate_model(model, dataset, corpus, world,
                                 study.config)
        _EVAL_MEMO[key] = payload
    return payload


def eval_digest(payload):
    """The canonical digest ``repro verify ml`` asserts."""
    return canonical_digest(payload)


def canonical_report_text(payload):
    """The canonical JSON text written to eval report files.

    ``canonicalize`` first (stable key order, volatile keys dropped),
    then a pretty-printed sorted dump — byte-identical across runs for
    identical payloads.
    """
    return json.dumps(canonicalize(payload), indent=2,
                      sort_keys=True) + "\n"


def render_eval(payload):
    """Human-readable eval summary for the CLI."""
    lines = [
        f"learned attribution ({payload['target']}): "
        f"{payload['examples']['labeled']} labeled fingerprints, "
        f"{len(payload['classes'])} classes",
        f"  held-out accuracy {payload['accuracy']:.4f} "
        f"(nb baseline {payload['baseline_nb']['accuracy']:.4f}), "
        f"macro-F1 {payload['macro']['f1']:.4f}",
    ]
    for label in payload["classes"]:
        stats = payload["per_class"][label]
        lines.append(
            f"  {label:<16s} p={stats['precision']:.3f} "
            f"r={stats['recall']:.3f} f1={stats['f1']:.3f} "
            f"support={stats['support']}")
    cov = payload["coverage"]
    lines.append(
        f"  coverage: {cov['attributed']}/{cov['unmatched']} unmatched "
        f"attributed at confidence >= {cov['threshold']} "
        f"({cov['attribution_coverage']:.4f}, "
        f"{cov['coverage_gain']:.1f}x the exact-match rate "
        f"{payload['exact_match_rate']:.4f})")
    lines.append(f"  eval digest: {eval_digest(payload)}")
    return "\n".join(lines)
