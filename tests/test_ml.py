"""Learned fingerprint attribution: repro.ml + its CLI and gates."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.config import StudyConfig
from repro.ml import (DEFAULT_WIDTH, AttributionModel, FeatureExtractor,
                      LogisticOVR, MLParams, MultinomialNB,
                      canonical_report_text, eval_digest,
                      evaluate_capture, evaluate_model, evaluate_study,
                      feature_seed, fingerprint_tokens,
                      labeled_examples, stratified_split,
                      train_attribution)
from repro.sweep.aggregate import SCALAR_BANDS
from repro.sweep.grid import expand_grid, parse_grid

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- features


class TestFeatures:
    FP = (0x0303, (0x1301, 0x1302, 0x002F), (0, 5, 10, 13))

    def test_tokens_deterministic(self):
        assert fingerprint_tokens(self.FP) == \
            fingerprint_tokens(self.FP)
        assert any(token.startswith("v:")
                   for token in fingerprint_tokens(self.FP))

    def test_index_stable_per_seed(self):
        a = FeatureExtractor(width=256, seed=7)
        b = FeatureExtractor(width=256, seed=7)
        tokens = fingerprint_tokens(self.FP)
        assert [a.index(t) for t in tokens] == \
            [b.index(t) for t in tokens]

    def test_seed_changes_layout(self):
        a = FeatureExtractor(width=DEFAULT_WIDTH, seed=1)
        b = FeatureExtractor(width=DEFAULT_WIDTH, seed=2)
        tokens = fingerprint_tokens(self.FP)
        assert [a.index(t) for t in tokens] != \
            [b.index(t) for t in tokens]

    def test_vector_shape_and_mass(self):
        extractor = FeatureExtractor(width=128, seed=3)
        vec = extractor.vector(self.FP)
        assert vec.shape == (128,)
        assert vec.sum() == len(fingerprint_tokens(self.FP))

    def test_json_round_trip(self):
        extractor = FeatureExtractor(width=64, seed=9)
        clone = FeatureExtractor.from_json(extractor.to_json())
        got = clone.matrix([self.FP])
        assert np.array_equal(got, extractor.matrix([self.FP]))

    def test_feature_seed_derives_from_config(self, study):
        # Pinned: the seed fixes every hashed feature column and the
        # train/test split behind the committed ML eval digest.
        assert feature_seed(study.config) == 13328646712927825433
        assert feature_seed(StudyConfig(seed=7)) == 13456240399801719323

    def test_probe_side_knobs_do_not_move_the_model(self, study):
        # Training reads only seed-determined inputs, so a config that
        # differs in trust stores (the verify matrix's stores mode) must
        # give the same eval payload, byte for byte.
        from dataclasses import replace
        knobs = replace(study.config,
                        trust_stores=study.config.trust_stores[:1])
        assert feature_seed(knobs) == feature_seed(study.config)
        inputs = (study.dataset, study.corpus, study.world, knobs)
        fresh = evaluate_model(train_attribution(*inputs), *inputs)
        assert eval_digest(fresh) == eval_digest(evaluate_study(study))


# -------------------------------------------------------------------- data


class TestLabels:
    def test_family_labels_cover_corpus_families(self, study):
        examples, unmatched = labeled_examples(
            study.dataset, study.corpus, study.world, target="family")
        assert examples and unmatched
        families = {entry.library for entry in study.corpus}
        assert {example.label for example in examples} <= families
        assert sum(1 for e in examples if e.matched) < len(examples)

    def test_split_deterministic_and_stratified(self, study):
        examples, _ = labeled_examples(
            study.dataset, study.corpus, study.world, target="family")
        train_a, test_a = stratified_split(examples, seed=11)
        train_b, test_b = stratified_split(examples, seed=11)
        assert train_a == train_b and test_a == test_b
        assert len(train_a) + len(test_a) == len(examples)
        # every class that can afford a held-out member keeps one in
        # train, and a different seed reshuffles the membership
        train_labels = {e.label for e in train_a}
        assert {e.label for e in examples} == train_labels
        _, test_c = stratified_split(examples, seed=12)
        assert {e.fingerprint for e in test_a} != \
            {e.fingerprint for e in test_c}


# ------------------------------------------------------------------ models


def _toy_xy():
    rng = np.random.default_rng(5)
    X = np.zeros((40, 16))
    y = np.arange(40) % 2
    for i in range(40):
        X[i, (0, 1) if y[i] == 0 else (8, 9)] = 1.0
        X[i, int(rng.integers(2, 8))] += 1.0
    return X, y


class TestModels:
    def test_nb_separable_and_round_trip(self):
        X, y = _toy_xy()
        nb = MultinomialNB().fit(X, y, 2)
        assert np.array_equal(nb.predict(X), y)
        clone = MultinomialNB.from_json(nb.to_json())
        assert np.array_equal(clone.predict(X), y)

    def test_lr_separable_and_round_trip(self):
        X, y = _toy_xy()
        lr = LogisticOVR(iters=200).fit(X, y, 2)
        assert np.array_equal(lr.predict(X), y)
        clone = LogisticOVR.from_json(lr.to_json())
        assert np.array_equal(clone.predict(X), y)
        proba = lr.proba(X)
        assert proba.shape == (40, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_fit_bit_reproducible(self):
        X, y = _toy_xy()
        a = LogisticOVR(iters=100).fit(X, y, 2)
        b = LogisticOVR(iters=100).fit(X, y, 2)
        assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------------------- pipeline


class TestEvalPipeline:
    def test_headline_quality_and_digest_stability(self, study):
        payload = evaluate_study(study)
        # the PR's acceptance bar: held-out macro-F1 must beat the
        # ~2.55% exact-match coverage by >= 10x
        assert payload["macro"]["f1"] >= 0.255
        assert payload["coverage"]["coverage_gain"] >= 10.0
        assert payload["accuracy"] >= payload["baseline_nb"]["accuracy"] \
            - 0.05
        text = canonical_report_text(payload)
        assert text.endswith("\n")
        assert canonical_report_text(json.loads(text)) == text
        assert len(eval_digest(payload)) == 64

    def test_committed_ml_baseline_matches(self, study):
        from repro.ml import check_ml_baseline
        report = check_ml_baseline(evaluate_study(study),
                                   REPO_ROOT / "conformance" /
                                   "ml_baseline.json")
        assert report["ok"], report


# ------------------------------------------------------------------- sweep


class TestSweepAxis:
    def test_parse_grid_accepts_ml(self):
        assert parse_grid("ml") == ("seeds", "ml")

    def test_expand_grid_adds_ml_units(self, study):
        units = expand_grid(study.config, seeds=2, grid="seeds,ml")
        ml_units = [unit for unit in units if unit.stage == "ml"]
        assert [unit.name for unit in ml_units] == \
            ["seed2023-ml", "seed2024-ml"]
        assert len(units) == 4

    def test_bands_cover_ml_scalars(self):
        for name in ("ml_macro_f1", "ml_heldout_accuracy",
                     "ml_attribution_coverage"):
            low, high = SCALAR_BANDS[name]
            assert 0.0 <= low < high <= 1.0


# --------------------------------------------------------------------- cli


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, study):
    path = tmp_path_factory.mktemp("ml") / "model.json"
    assert main(["ml", "train", "-o", str(path)]) == 0
    return path


class TestCLI:
    def test_eval_reports_byte_identical(self, model_path, tmp_path,
                                         study, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["ml", "eval", "--model", str(model_path),
                     "--report", str(first)]) == 0
        assert main(["ml", "eval", "--model", str(model_path),
                     "--report", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "macro-F1" in capsys.readouterr().out

    def test_predict_lists_unmatched(self, model_path, study, capsys):
        assert main(["ml", "predict", "--model", str(model_path),
                     "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "confidence=" in out and "unmatched" in out

    def test_eval_missing_model_exits_2(self, tmp_path, study, capsys):
        missing = tmp_path / "nope.json"
        assert main(["ml", "eval", "--model", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "repro ml train" in err
        assert len(err.strip().splitlines()) == 1

    def test_eval_bad_threshold_exits_2(self, model_path, study,
                                        capsys):
        assert main(["ml", "eval", "--model", str(model_path),
                     "--threshold", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "[0.0, 1.0]" in err
        assert len(err.strip().splitlines()) == 1

    def test_predict_missing_model_exits_2(self, tmp_path, study,
                                           capsys):
        assert main(["ml", "predict", "--model",
                     str(tmp_path / "gone.json")]) == 2
        assert "model file not found" in capsys.readouterr().err

    def test_eval_input_on_family_model_exits_2(self, model_path,
                                                tmp_path, study,
                                                capsys):
        capture = tmp_path / "capture.jsonl"
        capture.write_text('{"vendor": "Acme"}\n', encoding="utf-8")
        assert main(["ml", "eval", "--model", str(model_path),
                     "--input", str(capture)]) == 2
        assert "vendor labels" in capsys.readouterr().err

    def test_eval_missing_input_exits_2(self, model_path, tmp_path,
                                        study, capsys):
        assert main(["ml", "eval", "--model", str(model_path),
                     "--input", str(tmp_path / "none.jsonl")]) == 2
        assert "input file not found" in capsys.readouterr().err

    def test_verify_ml_missing_baseline_exits_2(self, tmp_path, study,
                                                capsys):
        assert main(["verify", "ml", "--baseline",
                     str(tmp_path / "none.json")]) == 2
        err = capsys.readouterr().err
        assert "baseline not found" in err and "--record" in err


# ------------------------------------------------------- capture eval path


@pytest.fixture(scope="module")
def vendor_model(tmp_path_factory):
    """A tiny hand-built vendor-target model (no full training run)."""
    params = MLParams(target="vendor", width=64, iters=50)
    extractor = FeatureExtractor(width=64, seed=17)
    fps = [(0x0303, (1, 2), (0, 5)), (0x0301, (9, 10), (13, 16))]
    X = extractor.matrix(fps)
    y = np.array([0, 1])
    model = AttributionModel(
        params=params, extractor=extractor, classes=("Acme", "Bolt"),
        nb=MultinomialNB().fit(X, y, 2),
        lr=LogisticOVR(iters=50).fit(X, y, 2),
        artifact_digest="0" * 64, counts={"examples": 2})
    path = tmp_path_factory.mktemp("vendor") / "vendor_model.json"
    model.save(path)
    return model, path


class TestCaptureEval:
    ROW = {"vendor": "Acme", "tls_version": 0x0303,
           "ciphersuites": [1, 2], "extensions": [0, 5]}

    def test_labeled_capture_scores(self, vendor_model):
        model, _ = vendor_model
        payload = evaluate_capture(model, [self.ROW, self.ROW])
        assert payload["records"] == 2
        assert payload["fingerprints"] == 1
        assert payload["accuracy"] == 1.0

    def test_unlabeled_row_raises(self, vendor_model):
        model, _ = vendor_model
        with pytest.raises(ValueError, match="row 1 has no vendor"):
            evaluate_capture(model, [self.ROW, {"tls_version": 771}])

    def test_malformed_row_raises(self, vendor_model):
        model, _ = vendor_model
        with pytest.raises(ValueError, match="row 0 is not a capture"):
            evaluate_capture(model, [{"vendor": "Acme",
                                      "tls_version": "x"}])

    @pytest.mark.parametrize("content, message", [
        (b"[1, 2]\n", "row 0 is not a JSON object"),
        (json.dumps(dict(ROW, vendor=["Acme"])).encode() + b"\n",
         "row 0 has a vendor label that is not a string"),
        (json.dumps(dict(ROW, tls_version=1e999)).encode() + b"\n",
         "row 0 is not a capture row"),
        (json.dumps(dict(ROW, ciphersuites="12")).encode() + b"\n",
         "must be lists"),
        (b'{"vendor": "Acme\xff"}\n', "is not UTF-8 text"),
        (b"[" * 100_000 + b"\n", "nests JSON too deeply"),
        (None, "cannot read"),
    ])
    def test_cli_malformed_input_exits_2(self, vendor_model, tmp_path,
                                         capsys, content, message):
        _, path = vendor_model
        capture = tmp_path / "capture.jsonl"
        if content is None:
            capture.mkdir()  # a directory where a file should be
        else:
            capture.write_bytes(content)
        assert main(["ml", "eval", "--model", str(path),
                     "--input", str(capture)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_cli_unlabeled_row_exits_2(self, vendor_model, tmp_path,
                                       study, capsys):
        _, path = vendor_model
        capture = tmp_path / "capture.jsonl"
        capture.write_text(json.dumps(self.ROW) + "\n" + "{}\n",
                           encoding="utf-8")
        assert main(["ml", "eval", "--model", str(path),
                     "--input", str(capture)]) == 2
        err = capsys.readouterr().err
        assert "row 1 has no vendor label" in err
        assert len(err.strip().splitlines()) == 1


# -------------------------------------------------------------- bench gate


def _bench_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", REPO_ROOT / "tools" / "bench_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchGate:
    def test_ml_is_gated(self):
        gate = _bench_gate()
        assert "ml" in gate.BENCHES
        assert "ml" in gate.DEFAULT_GATE
        assert gate.BENCHES["ml"]["metric"] == "coverage_gain"

    def test_unknown_override_exits_2(self, capsys):
        gate = _bench_gate()
        with pytest.raises(SystemExit) as excinfo:
            gate.main(["--override", "frobnicate=0.5",
                       "--bench", "probe"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "ml" in err and "probe" in err
        assert len(err.strip().splitlines()) == 1

    def test_ungated_override_exits_2(self, capsys):
        gate = _bench_gate()
        with pytest.raises(SystemExit) as excinfo:
            gate.main(["--override", "sweep=0.5", "--bench", "probe"])
        assert excinfo.value.code == 2
        assert "not gated" in capsys.readouterr().err

    def test_non_numeric_override_exits_2(self, capsys):
        gate = _bench_gate()
        with pytest.raises(SystemExit) as excinfo:
            gate.main(["--override", "probe=fast", "--bench", "probe"])
        assert excinfo.value.code == 2
        assert "not a number" in capsys.readouterr().err
