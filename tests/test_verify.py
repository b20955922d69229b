"""Tests for the differential conformance harness (``repro.verify``).

Covers the canonical-JSON encoding, golden-baseline record/check round
trips (including a deliberately perturbed analysis caught with the
correct first divergent node named), the execution-mode equivalence
matrix (real reduced grid + failure reporting), the paper-invariant
checker, and the ``repro verify`` CLI against the committed baseline.
"""

import dataclasses
import enum
import json

import pytest

from repro.cli import DEFAULT_BASELINE, main
from repro.config import StudyConfig
from repro.probing.certdataset import CertificateDataset
from repro.study import Study
from repro.verify import (EquivalenceMatrix, ExecutionMode, Invariant,
                          ModeResult, PAPER_INVARIANTS, VOLATILE_NODES,
                          canonical_bytes, canonicalize, check_baseline,
                          check_invariants, compare_results, digest,
                          first_divergence, invariant_summary,
                          load_baseline, record_baseline,
                          render_invariants, run_and_snapshot)


@pytest.fixture(scope="module")
def snapshot_run(study):
    """One full pipeline run with snapshots, shared by this module."""
    return run_and_snapshot(study)


@pytest.fixture(scope="module")
def results(snapshot_run):
    return snapshot_run[0]


@pytest.fixture(scope="module")
def snapshots(snapshot_run):
    return snapshot_run[1]


# --- canonical JSON ------------------------------------------------------------------


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass
class Point:
    x: int
    y: tuple


class TestCanonicalize:
    def test_primitives_pass_through(self):
        assert canonicalize(None) is None
        assert canonicalize(True) is True
        assert canonicalize(7) == 7
        assert canonicalize(1.5) == 1.5
        assert canonicalize("sni") == "sni"

    def test_containers_normalized(self):
        assert canonicalize((1, 2)) == [1, 2]
        assert canonicalize({3, 1, 2}) == {"__set__": [1, 2, 3]}
        # dict entries come out sorted regardless of insertion order.
        assert list(canonicalize({"b": 1, "a": 2})) == ["a", "b"]

    def test_non_string_dict_keys_are_encoded(self):
        tree_a = canonicalize({(1, "x"): "v", (0, "y"): "w"})
        tree_b = canonicalize({(0, "y"): "w", (1, "x"): "v"})
        assert tree_a == tree_b
        assert canonical_bytes(tree_a) == canonical_bytes(tree_b)

    def test_bytes_inline_and_hashed(self):
        assert canonicalize(b"ab") == {"__bytes__": "6162"}
        folded = canonicalize(b"\x00" * 1000)
        assert folded["length"] == 1000
        assert "__bytes_sha256__" in folded

    def test_enum_and_dataclass(self):
        assert canonicalize(Color.RED) == {"__enum__": "Color",
                                           "name": "RED"}
        folded = canonicalize(Point(x=1, y=(2, 3)))
        assert folded == {"__dataclass__": "Point",
                          "fields": {"x": 1, "y": [2, 3]}}

    def test_plain_object_uses_sorted_state(self):
        class Box:
            def __init__(self):
                self.b = 2
                self.a = 1
        folded = canonicalize(Box())
        assert folded["__object__"] == "Box"
        assert list(folded["fields"]) == ["a", "b"]

    def test_volatile_keys_scrubbed(self):
        fast = {"probes": 9, "wall_seconds": 0.1}
        slow = {"probes": 9, "wall_seconds": 87.3}
        assert digest(fast) == digest(slow)
        assert canonicalize(fast)["wall_seconds"] == "<volatile>"

    def test_nonfinite_floats_encode(self):
        tree = canonicalize({"nan": float("nan"),
                             "inf": float("inf")})
        assert tree["nan"] == {"__float__": "nan"}
        canonical_bytes(tree)  # must not raise (allow_nan is off)

    def test_cycles_terminate(self):
        class Node:
            pass
        node = Node()
        node.self = node
        folded = canonicalize(node)
        assert folded["fields"]["self"] == {"__cycle__": "Node"}

    def test_equal_values_equal_digests(self):
        assert digest({"a": (1, 2)}) == digest({"a": [1, 2]})
        assert digest({"a": 1}) != digest({"a": 2})


class TestFirstDivergence:
    def test_equal_trees_no_divergence(self):
        tree = {"a": [1, {"b": 2}]}
        assert first_divergence(tree, tree) is None

    def test_nested_path_named(self):
        path, detail = first_divergence({"a": {"b": [1, 2]}},
                                        {"a": {"b": [1, 3]}})
        assert path == "$.a.b[1]"
        assert "2 != 3" in detail

    def test_first_means_sorted_key_order(self):
        path, _detail = first_divergence({"a": 1, "z": 1},
                                         {"a": 2, "z": 2})
        assert path == "$.a"

    def test_missing_and_unexpected_keys(self):
        path, detail = first_divergence({"a": 1}, {})
        assert path == "$.a" and "missing" in detail
        path, detail = first_divergence({}, {"a": 1})
        assert path == "$.a" and "unexpected" in detail

    def test_length_change(self):
        path, detail = first_divergence([1, 2], [1, 2, 3])
        assert path == "$[2]" and "length changed" in detail

    def test_type_change(self):
        _path, detail = first_divergence({"a": 1}, {"a": "1"})
        assert "type changed" in detail


# --- golden baselines ----------------------------------------------------------------


class TestBaselineRoundTrip:
    def test_record_then_check_passes(self, tmp_path, study, snapshots):
        path = record_baseline(study, tmp_path / "baseline.json",
                               snapshots=snapshots)
        report = check_baseline(study, path, snapshots=snapshots)
        assert report.ok
        assert report.first_divergent_node is None
        assert report.nodes_checked == len(
            [n for n in snapshots if n not in VOLATILE_NODES])
        assert "conformance OK" in report.render()

    def test_volatile_nodes_recorded_but_not_compared(self, tmp_path,
                                                      study, snapshots):
        path = record_baseline(study, tmp_path / "baseline.json",
                               snapshots=snapshots)
        payload = load_baseline(path)
        assert "analysis.server.probe_stats" in payload["nodes"]
        perturbed = dict(snapshots)
        perturbed["analysis.server.probe_stats"] = {"attempts": -1}
        report = check_baseline(study, path, snapshots=perturbed)
        assert report.ok

    def test_perturbed_snapshot_names_node_and_path(self, tmp_path,
                                                    study, snapshots):
        path = record_baseline(study, tmp_path / "baseline.json",
                               snapshots=snapshots)
        perturbed = dict(snapshots)
        tree = json.loads(json.dumps(
            perturbed["analysis.client.doc_vendor"]))
        first_key = sorted(tree)[0]
        tree[first_key] = 99.0
        perturbed["analysis.client.doc_vendor"] = tree
        report = check_baseline(study, path, snapshots=perturbed)
        assert not report.ok
        assert report.first_divergent_node == \
            "analysis.client.doc_vendor"
        [entry] = report.divergences
        assert entry.path == f"$.{first_key}"
        rendered = report.render()
        assert "analysis.client.doc_vendor" in rendered
        assert "re-record" in rendered

    def test_monkeypatched_analysis_caught_first_divergent(
            self, tmp_path, study, snapshots, monkeypatch):
        # The acceptance demo: mutate a real analysis function and show
        # a full re-run fails with the divergent node named.
        from repro.core import customization
        path = record_baseline(study, tmp_path / "baseline.json",
                               snapshots=snapshots)
        original = customization.degree_distribution

        def perturbed(dataset):
            distribution = dict(original(dataset))
            distribution["tampered"] = 1
            return distribution
        monkeypatch.setattr(customization, "degree_distribution",
                            perturbed)
        report = check_baseline(study, path)
        assert not report.ok
        assert report.first_divergent_node == \
            "analysis.client.degree_distribution"
        assert report.to_json()["first_divergent_node"] == \
            "analysis.client.degree_distribution"

    def test_config_mismatch_is_an_error_not_a_divergence(
            self, tmp_path, study, snapshots):
        path = record_baseline(study, tmp_path / "baseline.json",
                               snapshots=snapshots)
        other = Study(StudyConfig(seed=999))  # lazy: nothing is built
        with pytest.raises(ValueError, match="different config|record"):
            check_baseline(other, path, snapshots=snapshots)

    def test_version_mismatch_warns_but_compares(self, tmp_path, study,
                                                 snapshots):
        path = record_baseline(study, tmp_path / "baseline.json",
                               snapshots=snapshots)
        payload = json.loads(path.read_text())
        payload["version"] = "0.0.1"
        path.write_text(json.dumps(payload))
        report = check_baseline(study, path, snapshots=snapshots)
        assert report.ok
        assert any("0.0.1" in warning for warning in report.warnings)

    def test_unreadable_or_wrong_format_raises(self, tmp_path, study,
                                               snapshots):
        with pytest.raises(ValueError, match="cannot read"):
            check_baseline(study, tmp_path / "absent.json",
                           snapshots=snapshots)
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            check_baseline(study, garbled, snapshots=snapshots)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="format"):
            check_baseline(study, wrong, snapshots=snapshots)

    def test_large_nodes_stored_digest_only(self, tmp_path, study,
                                            snapshots):
        path = record_baseline(study, tmp_path / "baseline.json",
                               snapshots=snapshots)
        payload = load_baseline(path)
        capture = payload["nodes"]["artifact.capture"]
        assert "snapshot" not in capture
        assert capture["snapshot_bytes"] > 0
        small = payload["nodes"]["analysis.client.versions"]
        assert "snapshot" in small


# --- equivalence matrix --------------------------------------------------------------


def _fake_result(name, digests):
    return ModeResult(mode=ExecutionMode(name),
                      node_digests=dict(digests))


class TestMatrixReporting:
    def test_identical_modes_are_equivalent(self):
        digests = {"analysis.client.matching": "aa",
                   "analysis.server.survey": "bb"}
        report = compare_results([_fake_result("serial", digests),
                                  _fake_result("cluster", digests)])
        assert report.ok
        assert "equivalent" in report.render()

    def test_mismatch_names_first_node_in_paper_order(self):
        base = {"analysis.client.matching": "aa",
                "analysis.client.versions": "cc",
                "analysis.server.survey": "bb"}
        broken = dict(base, **{"analysis.client.versions": "XX",
                               "analysis.server.survey": "YY"})
        report = compare_results([_fake_result("serial", base),
                                  _fake_result("cluster", broken)])
        assert not report.ok
        mode_a, mode_b, node, dig_a, dig_b = report.first_mismatch
        assert (mode_a, mode_b) == ("serial", "cluster")
        # versions precedes survey in paper order, so it is first even
        # though survey sorts earlier alphabetically.
        assert node == "analysis.client.versions"
        assert (dig_a, dig_b) == ("cc", "XX")
        assert "NOT equivalent" in report.render()
        assert report.to_json()["mismatches"][0]["node"] == node

    def test_volatile_nodes_ignored(self):
        base = {"analysis.client.matching": "aa",
                "analysis.server.probe_stats": "t1"}
        other = dict(base, **{"analysis.server.probe_stats": "t2"})
        report = compare_results([_fake_result("serial", base),
                                  _fake_result("warm", other)])
        assert report.ok

    def test_missing_node_reported(self):
        report = compare_results([
            _fake_result("serial", {"analysis.client.matching": "aa"}),
            _fake_result("warm", {})])
        assert not report.ok
        assert report.first_mismatch[4] == "<absent>"


class TestMatrixExecution:
    def test_serial_parallel_cold_warm_equivalent(self, study,
                                                  tmp_path):
        # The acceptance grid: serial vs cold and warm cache must be
        # byte-identical for the default config.
        matrix = EquivalenceMatrix(
            base_config=study.config,
            modes=(ExecutionMode("serial"),
                   ExecutionMode("cache-cold", cache="cold"),
                   ExecutionMode("cache-warm", cache="warm")),
            workdir=str(tmp_path))
        report = matrix.run()
        assert report.ok, report.render()
        assert report.mode_names() == ["serial", "cache-cold",
                                       "cache-warm"]
        # Every mode reported a digest for every analysis node.
        counts = {len(result.comparable_digests())
                  for result in report.results}
        assert len(counts) == 1 and counts.pop() > 20


# --- paper invariants ----------------------------------------------------------------


class TestInvariants:
    def test_all_paper_invariants_hold(self, study, results):
        summary = invariant_summary(study, results)
        assert summary["ok"], render_invariants(summary)
        names = [check["name"] for check in summary["checks"]]
        assert "match-rate" in names
        assert "corpus-size" in names
        assert "sni-count" in names

    def test_sni_count_counts_contacted_snis(self, study, results):
        def sni_count(target):
            [check] = [c for c in check_invariants(target, results)
                       if c["name"] == "sni-count"]
            return check

        certificates = study.certificates
        check = sni_count(study)
        assert check["ok"]
        assert check["observed"] == [len(certificates.reachable_fqdns()),
                                     len(study.world.servers)]
        # Drop every vantage's result for one dead SNI: only the count
        # of contacted SNIs can see it.
        dropped = certificates.unreachable_fqdns()[0]
        partial = Study(study.config)
        partial._certificates = CertificateDataset(
            [result for result in certificates.results
             if result.fqdn != dropped],
            probed_at=certificates.probed_at)
        check = sni_count(partial)
        assert not check["ok"]
        assert check["observed"] == [len(certificates.reachable_fqdns()),
                                     len(study.world.servers) - 1]

    def test_match_rate_near_paper(self, study, results):
        [check] = [c for c in check_invariants(study, results)
                   if c["name"] == "match-rate"]
        assert check["ok"]
        assert 0.015 <= check["observed"] <= 0.04

    def test_failing_invariant_reported_with_observed(self, study,
                                                      results):
        strict = Invariant(
            "impossible", expected="the moon on a stick",
            check=lambda s, r: len(s.corpus),
            accept=lambda n: n == 0)
        summary = invariant_summary(study, results,
                                    invariants=(strict,))
        assert not summary["ok"]
        [check] = summary["checks"]
        assert check["observed"] == 6891
        assert "FAIL" in render_invariants(summary)

    def test_crashing_invariant_fails_closed(self, study, results):
        broken = Invariant(
            "broken", expected="n/a",
            check=lambda s, r: r["client"]["no_such_node"],
            accept=lambda v: True)
        [check] = check_invariants(study, results,
                                   invariants=(broken,))
        assert not check["ok"]
        assert "KeyError" in check["observed"]

    def test_summary_lands_in_manifest(self, study, results):
        from repro.obs.manifest import RunManifest
        summary = invariant_summary(study, results)
        manifest = RunManifest.from_run(
            command="verify", config=study.config, obs_ctx=None,
            invariants=summary)
        payload = manifest.to_json()
        assert payload["invariants"]["ok"] is True
        round_tripped = RunManifest.from_json(payload)
        assert round_tripped.invariants == summary


# --- the verify CLI ------------------------------------------------------------------


class TestVerifyCLI:
    def test_check_against_committed_baseline(self, tmp_path, study,
                                              capsys):
        # The acceptance criterion: a fresh run must match the baseline
        # committed in the repository.
        report_path = tmp_path / "verify_report.json"
        assert main(["verify", "check",
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "conformance OK" in out
        assert "all invariants hold" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["invariants"]["ok"] is True
        manifest = json.loads(
            (tmp_path / "verify_report.json.manifest.json").read_text())
        assert manifest["invariants"]["ok"] is True

    def test_record_and_check_custom_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "golden.json"
        assert main(["verify", "record",
                     "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert main(["verify", "check",
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "recorded golden baseline" in out

    def test_check_missing_baseline_exits_2(self, tmp_path, capsys):
        assert main(["verify", "check",
                     "--baseline", str(tmp_path / "none.json")]) == 2
        assert "verify check" in capsys.readouterr().err

    def test_invariants_command(self, capsys):
        assert main(["verify", "invariants"]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["verify", "check"])
        assert args.baseline == DEFAULT_BASELINE
        assert args.report is None
