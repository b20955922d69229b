"""JSONL persistence for the anonymized capture.

The paper open-sources an anonymized version of its dataset; this module
round-trips ours: one JSON object per ClientHello record, with the same
schema IoT Inspector exposes (device/user identifiers are already
pseudonymous in the generator).
"""

import json

from repro.inspector.dataset import InspectorDataset
from repro.inspector.model import ClientHelloRecord


def record_to_dict(record):
    """The JSONL row for one record (schema lives on the model)."""
    return record.to_json()


def record_from_dict(data):
    return ClientHelloRecord.from_json(data)


def save_records(records, path):
    """Write records as JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")


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
                    records.append(record_from_dict(row))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: line {number}: {exc}") from None
    return records


def load_dataset(path):
    """Read a JSONL capture straight into an :class:`InspectorDataset`."""
    return InspectorDataset(load_records(path))
