"""JSONL persistence for the anonymized capture.

The paper open-sources an anonymized version of its dataset; this module
round-trips ours: one JSON object per ClientHello record, with the same
schema IoT Inspector exposes (device/user identifiers are already
pseudonymous in the generator).
"""

import json

from repro.inspector.model import ClientHelloRecord


def save_records(records, path):
    """Write records as JSONL (the row schema lives on the model)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json()) + "\n")


def load_records(path):
    """Read records from JSONL.

    A row that parses as JSON but is not a capture record raises a
    one-line ``ValueError`` naming the file and the line.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line:
                row = json.loads(line)
                try:
                    records.append(ClientHelloRecord.from_json(row))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: line {number}: {exc}") from None
    return records

