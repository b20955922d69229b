"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_default(self):
        args = build_parser().parse_args(["report"])
        assert args.seed == 2023

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_retries_flag_is_refused(self, capsys):
        # Probes are never retried, so no study command takes a budget.
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--retries", "3"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == ["repro: error: unrecognized arguments: "
                          "--retries 3"]


class TestCommands:
    # The Study cache makes these cheap after the session fixtures ran.

    def test_generate_writes_jsonl(self, tmp_path, study, capsys):
        out = tmp_path / "capture.jsonl"
        assert main(["generate", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(study.dataset.records)
        first = json.loads(lines[0])
        assert {"device_id", "vendor", "ciphersuites", "sni"} <= set(first)

    def test_probe_writes_summary(self, tmp_path, study, capsys):
        out = tmp_path / "certs.jsonl"
        assert main(["probe", "-o", str(out)]) == 0
        rows = [json.loads(line)
                for line in out.read_text().strip().splitlines()]
        assert len(rows) == 1194
        reachable = [row for row in rows if row["reachable"]]
        assert len(reachable) == 1151
        assert all("issuer" in row for row in reachable)

    def test_probe_parallel_identical_output(self, tmp_path, study,
                                             capsys):
        plain_out = tmp_path / "plain.jsonl"
        stats_out = tmp_path / "stats.jsonl"
        assert main(["probe", "-o", str(plain_out)]) == 0
        assert main(["probe", "-o", str(stats_out), "--stats"]) == 0
        assert plain_out.read_text() == stats_out.read_text()
        text = capsys.readouterr().out
        assert "probes" in text and "outcomes" in text

    def test_probe_flag_defaults(self):
        args = build_parser().parse_args(["probe"])
        assert args.stats is False

    def test_report_to_stdout(self, study, capsys):
        assert main(["report", "-o", "-"]) == 0
        text = capsys.readouterr().out
        assert "# IoT TLS & Certificate Practice" in text
        assert "Table 2" in text
        assert "Netflix" in text

    def test_report_to_file(self, tmp_path, study, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "-o", str(out)]) == 0
        assert out.read_text().startswith("# IoT TLS")

    def test_audit_known_vendor(self, study, capsys):
        assert main(["audit", "Tuya"]) == 0
        text = capsys.readouterr().out
        assert "Tuya" in text
        assert "PRIVATE" in text

    def test_audit_unknown_vendor(self, study, capsys):
        assert main(["audit", "NotAVendor"]) == 2

    def test_whatif_revocation(self, study, capsys):
        assert main(["whatif", "revocation"]) == 0
        text = capsys.readouterr().out
        assert "no revocation path" in text


class TestMatchCommands:
    def test_build_index_writes_json(self, tmp_path, study, capsys):
        out = tmp_path / "index.json"
        assert main(["match", "build-index", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {"corpus", "vendors", "fingerprint_ids"} <= set(payload)
        assert payload["corpus"]["entries"] >= \
            payload["corpus"]["distinct_keys"]
        assert payload["corpus"]["dedup_ratio"] > 1.0
        assert len(payload["fingerprint_ids"]) == \
            len(study.dataset.fingerprints())
        text = capsys.readouterr().out
        assert "built match index" in text

    def test_query_known_fingerprint(self, tmp_path, study, capsys):
        from repro.ingest import fingerprint_id
        fp = sorted(study.dataset.fingerprints())[0]
        fp_id = fingerprint_id(fp)
        assert main(["match", "query", fp_id,
                     "--threshold", "0.3"]) == 0
        text = capsys.readouterr().out
        assert f"fingerprint {fp_id}" in text
        assert "exact corpus match:" in text
        assert "near matches (Jaccard >= 0.3)" in text

    def test_query_unknown_fingerprint(self, study, capsys):
        assert main(["match", "query", "no-such-id"]) == 2
        err = capsys.readouterr().err
        assert "unknown fingerprint id" in err

    def test_stats(self, study, capsys):
        assert main(["match", "stats"]) == 0
        text = capsys.readouterr().out
        assert "corpus:" in text
        assert "vendors:" in text
