"""Error handling and fidelity tests for JSONL persistence."""

import json

import pytest

from repro.inspector.io import (
    load_dataset,
    load_records,
    record_from_dict,
    record_to_dict,
    save_records,
)
from repro.tlslib.versions import TLSVersion
from tests.conftest import make_record


class TestDictRoundTrip:
    def test_roundtrip_preserves_everything(self):
        record = make_record(suites=(0x0A0A, 0xC02F),
                             extensions=(0x0A0A, 0, 10),
                             version=TLSVersion.SSL_3_0)
        assert record_from_dict(record_to_dict(record)) == record

    def test_null_sni_roundtrip(self):
        record = make_record(sni=None)
        loaded = record_from_dict(record_to_dict(record))
        assert loaded.sni is None

    def test_missing_sni_key_tolerated(self):
        payload = record_to_dict(make_record())
        del payload["sni"]
        assert record_from_dict(payload).sni is None

    def test_version_round_trips_as_int(self):
        payload = record_to_dict(make_record(version=TLSVersion.TLS_1_0))
        assert payload["tls_version"] == 0x0301
        assert record_from_dict(payload).tls_version is TLSVersion.TLS_1_0

    def test_bad_version_rejected(self):
        payload = record_to_dict(make_record())
        payload["tls_version"] = 0x9999
        with pytest.raises(ValueError):
            record_from_dict(payload)


class TestFiles:
    def test_blank_lines_skipped(self, tmp_path):
        records = [make_record(device=f"d{i}") for i in range(3)]
        path = tmp_path / "capture.jsonl"
        save_records(records, path)
        content = path.read_text().replace("\n", "\n\n")
        path.write_text(content)
        assert load_records(path) == records

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"device_id": "x"\n')
        with pytest.raises(json.JSONDecodeError):
            load_records(path)

    def test_missing_required_field_raises(self, tmp_path):
        path = tmp_path / "incomplete.jsonl"
        payload = record_to_dict(make_record())
        del payload["vendor"]
        path.write_text("\n" + json.dumps(payload) + "\n")
        with pytest.raises(ValueError,
                           match="line 2: capture row has no 'vendor'"):
            load_records(path)

    @pytest.mark.parametrize("row, message", [
        ([1, 2], "not a JSON object"),
        ({"vendor": ["Acme"]}, "'vendor' is not a string"),
        ({"timestamp": True}, "'timestamp' is not an integer"),
        ({"ciphersuites": 47}, "'ciphersuites' is not a list"),
        ({"extensions": [0, "10"]}, "'extensions' holds a value"),
        ({"sni": 7}, "'sni' is not a string"),
    ])
    def test_malformed_row_raises_one_line_value_error(self, row,
                                                       message):
        if isinstance(row, dict):
            row = dict(record_to_dict(make_record()), **row)
        with pytest.raises(ValueError, match=message) as raised:
            record_from_dict(row)
        assert len(str(raised.value).splitlines()) == 1

    def test_load_dataset_builds_indexes(self, tmp_path):
        records = [make_record(device="a"), make_record(device="b")]
        path = tmp_path / "capture.jsonl"
        save_records(records, path)
        dataset = load_dataset(path)
        assert dataset.device_count == 2
        assert dataset.fingerprint_count == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_records(path) == []
