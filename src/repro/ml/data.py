"""Ground-truth labels and deterministic splits for attribution.

The generator records provenance the paper's authors never had: every
:class:`~repro.inspector.model.TLSStack` carries the full name of the
known library it was derived from (``origin_library``) and every capture
record carries its vendor.  That turns the unmatched 97.45% into a
*labeled* population:

- the ``"family"`` target maps each fingerprint to the library family
  (OpenSSL, wolfSSL, Mbed TLS, ...) of its origin stack, resolved
  through the corpus's ``{full_name: library}`` map;
- the ``"vendor"`` target maps each fingerprint to the vendor whose
  devices propose it.

A fingerprint can be reached from several stacks (cross-vendor pool and
SDK sharing is the point of Section 4.3), so labels are majority votes
weighted by backing device-stack count, with lexicographic tie-breaks —
fully deterministic for a given world.

:func:`stratified_split` never uses ``random``: within each class,
examples are ordered by a seeded SHA-256 over the fingerprint id and the
prefix becomes the held-out set, so the split is a pure function of
``(world, seed, test_fraction)``.
"""

import hashlib
from dataclasses import dataclass

from repro.ingest.snapshots import fingerprint_id

#: Prediction targets the pipeline understands.
TARGETS = ("family", "vendor")


@dataclass(frozen=True)
class LabeledExample:
    """One fingerprint with its majority ground-truth label."""

    fingerprint: tuple
    label: str
    #: device-stack occurrences backing the winning label.
    weight: int
    #: True when the fingerprint exactly matches a corpus entry.
    matched: bool


def family_map(corpus):
    """``{library full name: family}`` over the reference corpus."""
    return {entry.full_name: entry.library for entry in corpus}


def _majority(votes):
    """The heaviest label; ties break to the lexicographically least."""
    best = max(votes.values())
    return min(label for label, weight in votes.items()
               if weight == best), best


def _family_votes(world, corpus):
    families = family_map(corpus)
    votes = {}
    for device in world.devices:
        for name in sorted(device.stacks):
            stack = device.stacks[name]
            label = families.get(stack.origin_library)
            if label is None:
                continue
            tally = votes.setdefault(stack.fingerprint(), {})
            tally[label] = tally.get(label, 0) + 1
    return votes


def _vendor_votes(dataset):
    votes = {}
    for fp in dataset.fingerprints():
        tally = {}
        for device_id in dataset.fingerprint_devices(fp):
            vendor = dataset.device_vendor(device_id)
            tally[vendor] = tally.get(vendor, 0) + 1
        votes[fp] = tally
    return votes


def labeled_examples(dataset, corpus, world, target="family"):
    """``(examples, unmatched)`` for one study's capture.

    ``examples`` holds one :class:`LabeledExample` per observed
    fingerprint with recoverable provenance, in sorted-fingerprint
    order; ``unmatched`` lists every observed fingerprint with no exact
    corpus match (the paper's 97.45%), sorted.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown attribution target {target!r}; "
                         f"expected one of {TARGETS}")
    corpus_keys = {entry.key() for entry in corpus}
    votes = (_family_votes(world, corpus) if target == "family"
             else _vendor_votes(dataset))
    observed = sorted(dataset.fingerprints())
    examples = []
    for fp in observed:
        tally = votes.get(fp)
        if not tally:
            continue
        label, weight = _majority(tally)
        examples.append(LabeledExample(
            fingerprint=fp, label=label, weight=weight,
            matched=fp in corpus_keys))
    unmatched = tuple(fp for fp in observed if fp not in corpus_keys)
    return tuple(examples), unmatched


def split_key(seed, fp):
    """The seeded sort key deciding which side of the split ``fp`` lands."""
    data = f"{int(seed)}|split|{fingerprint_id(fp)}".encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def stratified_split(examples, test_fraction=0.3, seed=0):
    """Deterministic per-class ``(train, test)`` split.

    Within each class, examples sort by :func:`split_key` and the first
    ``round(n * test_fraction)`` become the held-out set — capped so
    every class keeps at least one training example.  Classes with a
    single example stay train-only (their test support is 0).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be within (0.0, 1.0), "
                         f"got {test_fraction}")
    by_label = {}
    for example in examples:
        by_label.setdefault(example.label, []).append(example)
    train, test = [], []
    for label in sorted(by_label):
        rows = sorted(by_label[label],
                      key=lambda ex: split_key(seed, ex.fingerprint))
        n_test = min(int(round(len(rows) * test_fraction)),
                     len(rows) - 1)
        test.extend(rows[:n_test])
        train.extend(rows[n_test:])
    return tuple(train), tuple(test)
