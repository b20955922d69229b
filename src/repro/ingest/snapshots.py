"""The served paper numbers: the batch analyses applied to one dataset.

``repro serve`` answers four hot queries.  Each is the ordinary
:mod:`repro.core` analysis run over an
:class:`~repro.inspector.dataset.InspectorDataset`: the study's full
capture for the report, or the :class:`~repro.ingest.ingester.Ingester`'s
dataset grown window by window.  One implementation serves both, so the
streaming answer equals the batch answer by construction once the
stream is fully absorbed.
"""

from collections import Counter

from repro.core import customization
from repro.core.issuers import issuer_report
from repro.match import shared_engine
from repro.verify.canonical import digest

#: the served analyses, in paper order (keys of :func:`served_snapshots`).
ANALYSIS_NAMES = ("fingerprint_index", "doc", "match_rate",
                  "issuer_shares")


def fingerprint_id(fp):
    """A stable hex identifier for a 3-tuple fingerprint key.

    The raw key — ``(version, ciphersuites, extensions)`` — is unwieldy
    as a URL parameter; the canonical digest of the key is what the
    query API and the fingerprint index use as the lookup handle.
    """
    version, suites, extensions = fp
    return digest([int(version), list(suites), list(extensions)])[:16]


def fingerprint_index(dataset):
    """fp → vendors, devices, record count (``/v1/fingerprints``).

    Also the paper's *degree* statistic (vendors per fingerprint,
    Table 2).
    """
    counts = Counter(record.fingerprint() for record in dataset.records)
    entries = []
    for fp in dataset.fingerprints():
        version, suites, extensions = fp
        vendors = dataset.fingerprint_vendors(fp)
        entries.append({
            "id": fingerprint_id(fp),
            "tls_version": int(version),
            "ciphersuites": list(suites),
            "extensions": list(extensions),
            "vendors": sorted(vendors),
            "degree": len(vendors),
            "device_count": len(dataset.fingerprint_devices(fp)),
            "record_count": counts[fp],
        })
    entries.sort(key=lambda e: e["id"])
    return {"fingerprint_count": len(entries),
            "fingerprints": {e["id"]: e for e in entries}}


def doc(dataset):
    """Per-vendor DoC_vendor and DoC_device (Sections 4.2-4.3, Fig. 2)."""
    return {"doc_vendor": customization.doc_vendor_all(dataset),
            "doc_device": customization.doc_device_all(dataset)}


def match_rate(dataset, corpus):
    """The Section 4.1 corpus match rate and what matched."""
    report = shared_engine().match_report(dataset, corpus)
    return {
        "total_fingerprints": report.total_fingerprints,
        "matched_count": report.matched_count,
        "matched_fraction": report.matched_fraction,
        "matched_devices": report.matched_devices(),
        "matched_libraries": report.matched_libraries(),
        "libraries_by_family": report.libraries_by_family(),
        "unsupported_libraries": report.unsupported_libraries(),
    }


def issuer_shares(dataset, certificates, ecosystem):
    """Issuer shares and the vendor x issuer matrix (Section 5.2)."""
    report = issuer_report(dataset, certificates, ecosystem)
    return {
        "server_count": report.server_count,
        "leaf_count": report.leaf_count,
        "issuer_orgs": list(report.issuer_orgs),
        "public_orgs": list(report.public_orgs),
        "private_orgs": list(report.private_orgs),
        "issuer_shares": {org: report.issuer_share(org)
                          for org in report.issuer_orgs},
        "private_leaf_share": report.private_leaf_share(),
        "matrix": {vendor: dict(sorted(column.items()))
                   for vendor, column in sorted(report.matrix.items())},
        "vendors_public_only": report.vendors_public_only(),
        "vendors_self_signing": report.vendors_self_signing(),
        "vendors_exclusively_self_signed":
            report.vendors_exclusively_self_signed(),
    }


def served_snapshots(study, dataset):
    """name → payload for every served analysis over ``dataset``.

    ``study`` supplies the static inputs: the library corpus, the probed
    certificates and the CA ecosystem.
    """
    return {
        "fingerprint_index": fingerprint_index(dataset),
        "doc": doc(dataset),
        "match_rate": match_rate(dataset, study.corpus),
        "issuer_shares": issuer_shares(dataset, study.certificates,
                                       study.ecosystem),
    }
