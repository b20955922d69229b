"""Error handling and fidelity tests for JSONL persistence."""

import json

import pytest

from repro.inspector.io import load_records, save_records
from repro.inspector.model import ClientHelloRecord
from repro.tlslib.versions import TLSVersion
from tests.conftest import make_record


class TestDictRoundTrip:
    def test_roundtrip_preserves_everything(self):
        record = make_record(suites=(0x0A0A, 0xC02F),
                             extensions=(0x0A0A, 0, 10),
                             version=TLSVersion.SSL_3_0)
        assert ClientHelloRecord.from_json(record.to_json()) == record

    def test_null_sni_roundtrip(self):
        record = make_record(sni=None)
        loaded = ClientHelloRecord.from_json(record.to_json())
        assert loaded.sni is None

    def test_missing_sni_key_tolerated(self):
        payload = make_record().to_json()
        del payload["sni"]
        assert ClientHelloRecord.from_json(payload).sni is None

    def test_version_round_trips_as_int(self):
        payload = make_record(version=TLSVersion.TLS_1_0).to_json()
        assert payload["tls_version"] == 0x0301
        assert ClientHelloRecord.from_json(payload).tls_version \
            is TLSVersion.TLS_1_0

    def test_bad_version_rejected(self):
        payload = make_record().to_json()
        payload["tls_version"] = 0x9999
        with pytest.raises(ValueError):
            ClientHelloRecord.from_json(payload)


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
        payload = make_record().to_json()
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
            row = dict(make_record().to_json(), **row)
        with pytest.raises(ValueError, match=message) as raised:
            ClientHelloRecord.from_json(row)
        assert len(str(raised.value).splitlines()) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_records(path) == []
