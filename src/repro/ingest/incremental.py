"""Incremental analyses: the hot paper queries, updated per record.

The batch pipeline recomputes every analysis from the full capture; an
always-on ingest path cannot afford that.  Each class here implements
the :class:`IncrementalAnalysis` protocol —

- ``update(record)`` absorbs one ClientHello record in O(1)-ish set and
  counter operations;
- ``observe_window(window)`` absorbs a whole
  :class:`~repro.ingest.stream.Window` (the default just loops);
- ``snapshot()`` folds the running state into the analysis's final
  JSON-able answer;
- ``merge(other)`` absorbs another instance's state (shard fan-in);
- ``checkpoint()`` / ``restore(state)`` round-trip the *mutable* state
  through the artifact store, so a restarted ingester resumes from the
  last compacted window instead of replaying the whole capture.

The contract every implementation is held to (and
:mod:`repro.verify.streaming` proves): after absorbing every record,
``snapshot()`` is byte-identical — canonical-JSON digest equal — to the
``batch_snapshot(study)`` computed by the classic batch code path.  The
ratios are computed from the same integers in the same expressions, so
even float results match exactly.
"""

from collections import Counter

from repro.core import customization, matching
from repro.core.issuers import issuer_report, leaf_issuer_org
from repro.inspector.generator import PRIVATE_CA_ORGS
from repro.match import SimilarityIndex, fingerprint_tokens, shared_engine
from repro.verify.canonical import digest


def fingerprint_id(fp):
    """A stable hex identifier for a 3-tuple fingerprint key.

    The raw key — ``(version, ciphersuites, extensions)`` — is unwieldy
    as a URL parameter; the canonical digest of the key is what the
    query API and the fingerprint index use as the lookup handle.
    """
    version, suites, extensions = fp
    return digest([int(version), list(suites), list(extensions)])[:16]


class IncrementalAnalysis:
    """Protocol base: one continuously-updatable paper query."""

    #: stable name; keys checkpoints, snapshots, and verify nodes.
    name = None

    def update(self, record):
        """Absorb one ClientHello record."""
        raise NotImplementedError

    def observe_window(self, window):
        """Absorb one stream window (default: record by record)."""
        for record in window:
            self.update(record)

    def snapshot(self):
        """The analysis's current JSON-able answer."""
        raise NotImplementedError

    def merge(self, other):
        """Absorb another instance's state in place (shard fan-in)."""
        raise NotImplementedError

    def checkpoint(self):
        """Picklable mutable state for the artifact store."""
        raise NotImplementedError

    def restore(self, state):
        """Load a :meth:`checkpoint` payload back into this instance."""
        raise NotImplementedError


class FingerprintIndex(IncrementalAnalysis):
    """The live fingerprint index: fp → vendors, devices, record count.

    Backs the ``/v1/fingerprints`` query endpoint and the paper's
    *degree* statistic (number of vendors per fingerprint, Table 2).
    Each first-seen fingerprint is also added to a live
    :class:`~repro.match.SimilarityIndex`, so :meth:`similar` answers
    "which known fingerprints look like this one" with exact
    feature-set Jaccard over size-window-pruned candidates.  The
    similarity index is derived state: snapshots and checkpoints are
    unchanged, and :meth:`restore` rebuilds it from the restored index.
    """

    name = "fingerprint_index"

    def __init__(self):
        #: fp key → {"vendors": set, "devices": set, "records": int}
        self._index = {}
        #: fingerprint id → fp key (the O(1) query-service handle).
        self._by_id = {}
        #: fp key → similarity over ClientHello feature sets.
        self._similarity = SimilarityIndex()

    def update(self, record):
        fp = record.fingerprint()
        entry = self._index.get(fp)
        if entry is None:
            entry = self._index[fp] = {"vendors": set(),
                                       "devices": set(), "records": 0}
            self._by_id[fingerprint_id(fp)] = fp
            self._similarity.add(fp, fingerprint_tokens(fp))
        entry["vendors"].add(record.vendor)
        entry["devices"].add(record.device_id)
        entry["records"] += 1

    def lookup(self, fp_id):
        """The snapshot entry for one fingerprint id, or ``None``."""
        fp = self._by_id.get(fp_id)
        if fp is None:
            return None
        return self._entry_json(fp, self._index[fp])

    def similar(self, fp_id, threshold=0.5, limit=10):
        """Indexed fingerprints feature-similar to one fingerprint id.

        Returns ``[{"similarity": ..., **entry_json}, ...]`` (the probe
        fingerprint itself excluded), best first, or ``None`` for an
        unknown id.  Exact Jaccard over ciphersuite/extension/version
        feature sets; the similarity index only prunes candidates.
        """
        fp = self._by_id.get(fp_id)
        if fp is None:
            return None
        hits = self._similarity.query(fingerprint_tokens(fp), threshold)
        results = []
        for similarity, other in hits:
            if other == fp:
                continue
            entry = dict(self._entry_json(other, self._index[other]))
            entry["similarity"] = similarity
            results.append(entry)
            if limit is not None and len(results) >= limit:
                break
        return results

    @staticmethod
    def _entry_json(fp, entry):
        version, suites, extensions = fp
        return {
            "id": fingerprint_id(fp),
            "tls_version": int(version),
            "ciphersuites": list(suites),
            "extensions": list(extensions),
            "vendors": sorted(entry["vendors"]),
            "degree": len(entry["vendors"]),
            "device_count": len(entry["devices"]),
            "record_count": entry["records"],
        }

    def snapshot(self):
        entries = [self._entry_json(fp, entry)
                   for fp, entry in self._index.items()]
        entries.sort(key=lambda e: e["id"])
        return {"fingerprint_count": len(entries),
                "fingerprints": {e["id"]: e for e in entries}}

    def merge(self, other):
        for fp, entry in other._index.items():
            mine = self._index.get(fp)
            if mine is None:
                self._index[fp] = {"vendors": set(entry["vendors"]),
                                   "devices": set(entry["devices"]),
                                   "records": entry["records"]}
                self._by_id[fingerprint_id(fp)] = fp
                self._similarity.add(fp, fingerprint_tokens(fp))
            else:
                mine["vendors"] |= entry["vendors"]
                mine["devices"] |= entry["devices"]
                mine["records"] += entry["records"]

    def checkpoint(self):
        return {"index": self._index}

    def restore(self, state):
        self._index = state["index"]
        self._by_id = {fingerprint_id(fp): fp for fp in self._index}
        self._similarity = SimilarityIndex()
        for fp in self._index:
            self._similarity.add(fp, fingerprint_tokens(fp))

    @staticmethod
    def batch_snapshot(study):
        """The same payload, computed the batch way from the dataset."""
        dataset = study.dataset
        index = FingerprintIndex()
        counts = Counter(r.fingerprint() for r in dataset.records)
        entries = [index._entry_json(fp, {
            "vendors": dataset.fingerprint_vendors(fp),
            "devices": dataset.fingerprint_devices(fp),
            "records": counts[fp]}) for fp in dataset.fingerprints()]
        entries.sort(key=lambda e: e["id"])
        return {"fingerprint_count": len(entries),
                "fingerprints": {e["id"]: e for e in entries}}


class DocCounters(IncrementalAnalysis):
    """Per-vendor degree-of-customization counters (Sections 4.2-4.3).

    Maintains the fingerprint incidence maps incrementally; the DoC
    ratios themselves are divisions done at snapshot time from the same
    integers the batch :mod:`repro.core.customization` path uses.
    """

    name = "doc"

    def __init__(self):
        self._vendors_by_fp = {}
        self._fps_by_vendor = {}
        self._fps_by_device = {}
        self._devices_by_fp = {}
        self._vendor_by_device = {}

    def update(self, record):
        fp = record.fingerprint()
        self._vendors_by_fp.setdefault(fp, set()).add(record.vendor)
        self._fps_by_vendor.setdefault(record.vendor, set()).add(fp)
        self._fps_by_device.setdefault(record.device_id, set()).add(fp)
        self._devices_by_fp.setdefault(fp, set()).add(record.device_id)
        self._vendor_by_device[record.device_id] = record.vendor

    def _doc_vendor(self, vendor):
        fingerprints = self._fps_by_vendor[vendor]
        solely = sum(1 for fp in fingerprints
                     if len(self._vendors_by_fp[fp]) == 1)
        return solely / len(fingerprints)

    def _doc_device(self, device):
        fingerprints = self._fps_by_device[device]
        vendor = self._vendor_by_device[device]
        solely = 0
        for fp in fingerprints:
            users = {d for d in self._devices_by_fp[fp]
                     if self._vendor_by_device[d] == vendor}
            if users == {device}:
                solely += 1
        return solely / len(fingerprints)

    def snapshot(self):
        vendors = sorted(self._fps_by_vendor)
        doc_device = {}
        for vendor in vendors:
            devices = sorted(d for d, v in self._vendor_by_device.items()
                             if v == vendor)
            doc_device[vendor] = (sum(self._doc_device(d)
                                      for d in devices) / len(devices)
                                  if devices else 0.0)
        return {"doc_vendor": {v: self._doc_vendor(v) for v in vendors},
                "doc_device": doc_device}

    def merge(self, other):
        for fp, vendors in other._vendors_by_fp.items():
            self._vendors_by_fp.setdefault(fp, set()).update(vendors)
        for vendor, fps in other._fps_by_vendor.items():
            self._fps_by_vendor.setdefault(vendor, set()).update(fps)
        for device, fps in other._fps_by_device.items():
            self._fps_by_device.setdefault(device, set()).update(fps)
        for fp, devices in other._devices_by_fp.items():
            self._devices_by_fp.setdefault(fp, set()).update(devices)
        self._vendor_by_device.update(other._vendor_by_device)

    def checkpoint(self):
        return {"vendors_by_fp": self._vendors_by_fp,
                "fps_by_vendor": self._fps_by_vendor,
                "fps_by_device": self._fps_by_device,
                "devices_by_fp": self._devices_by_fp,
                "vendor_by_device": self._vendor_by_device}

    def restore(self, state):
        self._vendors_by_fp = state["vendors_by_fp"]
        self._fps_by_vendor = state["fps_by_vendor"]
        self._fps_by_device = state["fps_by_device"]
        self._devices_by_fp = state["devices_by_fp"]
        self._vendor_by_device = state["vendor_by_device"]

    @staticmethod
    def batch_snapshot(study):
        dataset = study.dataset
        return {"doc_vendor": customization.doc_vendor_all(dataset),
                "doc_device": customization.doc_device_all(dataset)}


class MatchRate(IncrementalAnalysis):
    """The corpus match rate (Section 4.1), matched once per new fp.

    Each *new* fingerprint is matched against the 6,891-entry corpus
    exactly once, when first seen — the streaming path's whole point:
    per-record cost is a set lookup, not a corpus scan.
    """

    name = "match_rate"

    def __init__(self, corpus):
        self.corpus = corpus
        self._fingerprints = set()
        self._matched = {}          # fp → LibraryFingerprint
        self._devices_by_fp = {}    # fp → set(device), matched fps only

    def update(self, record):
        fp = record.fingerprint()
        if fp not in self._fingerprints:
            self._fingerprints.add(fp)
            library = self.corpus.match(*fp)
            if library is not None:
                self._matched[fp] = library
                self._devices_by_fp[fp] = set()
        if fp in self._matched:
            self._devices_by_fp[fp].add(record.device_id)

    def _report(self):
        report = matching.MatchReport(
            total_fingerprints=len(self._fingerprints))
        report.matched = dict(self._matched)
        report.device_counts = {fp: len(devices) for fp, devices
                                in self._devices_by_fp.items()}
        return report

    def snapshot(self):
        return _match_payload(self._report())

    def merge(self, other):
        self._fingerprints |= other._fingerprints
        self._matched.update(other._matched)
        for fp, devices in other._devices_by_fp.items():
            self._devices_by_fp.setdefault(fp, set()).update(devices)

    def checkpoint(self):
        # the corpus is config-independent and rebuilt at construction;
        # only the mutable observation state rides in the checkpoint.
        return {"fingerprints": self._fingerprints,
                "matched": self._matched,
                "devices_by_fp": self._devices_by_fp}

    def restore(self, state):
        self._fingerprints = state["fingerprints"]
        self._matched = state["matched"]
        self._devices_by_fp = state["devices_by_fp"]

    @staticmethod
    def batch_snapshot(study):
        report = shared_engine().match_report(study.dataset,
                                              study.corpus)
        return _match_payload(report)


def _match_payload(report):
    """Fold a :class:`~repro.core.matching.MatchReport` to JSON."""
    return {
        "total_fingerprints": report.total_fingerprints,
        "matched_count": report.matched_count,
        "matched_fraction": report.matched_fraction,
        "matched_devices": report.matched_devices(),
        "matched_libraries": report.matched_libraries(),
        "libraries_by_family": report.libraries_by_family(),
        "unsupported_libraries": report.unsupported_libraries(),
    }


class IssuerShares(IncrementalAnalysis):
    """Issuer shares and the vendor x issuer matrix (Section 5.2).

    The leaf-share half is a pure function of the (static) probed
    certificate dataset and is computed once at construction; the
    vendor x issuer visit matrix is the streaming half, deduplicated on
    (device, SNI) pairs exactly the way the batch
    :func:`~repro.core.issuers.issuer_report` counts them.
    """

    name = "issuer_shares"

    def __init__(self, certificates, ecosystem):
        results = certificates.results_at()
        leaves = certificates.leaf_certificates()
        self._issuer_counts = Counter(leaf_issuer_org(leaf)
                                      for leaf in leaves.values())
        self._leaf_count = len(leaves)
        self._server_count = len(certificates.reachable_fqdns())
        orgs = sorted(self._issuer_counts)
        self._orgs = orgs
        self._public = [org for org in orgs
                        if ecosystem.is_public_trust(org)]
        self._private = [org for org in orgs
                         if not ecosystem.is_public_trust(org)]
        #: sni → leaf issuer org, for snis that presented a leaf.
        self._org_by_sni = {
            sni: leaf_issuer_org(result.leaf)
            for sni, result in results.items()
            if result is not None and result.leaf is not None}
        #: distinct (vendor, device, sni) visit triples seen so far.
        self._seen = set()

    def update(self, record):
        if record.sni and record.sni in self._org_by_sni:
            self._seen.add((record.vendor, record.device_id,
                            record.sni))

    def _matrix(self):
        matrix = {}
        for vendor, _device, sni in self._seen:
            column = matrix.setdefault(vendor, Counter())
            column[self._org_by_sni[sni]] += 1
        return matrix

    def snapshot(self):
        matrix = self._matrix()
        public = set(self._public)
        shares = {org: self._issuer_counts[org] /
                  max(1, self._leaf_count) for org in self._orgs}
        private_share = sum(self._issuer_counts[org]
                            for org in self._private) / \
            max(1, self._leaf_count)
        public_only = sorted(
            vendor for vendor, column in matrix.items()
            if column and all(org in public for org in column))
        self_signing = sorted(
            vendor for vendor, column in matrix.items()
            if PRIVATE_CA_ORGS.get(vendor)
            and column.get(PRIVATE_CA_ORGS[vendor]))
        exclusive = sorted(
            vendor for vendor in self_signing
            if set(matrix[vendor]) == {PRIVATE_CA_ORGS[vendor]})
        return {
            "server_count": self._server_count,
            "leaf_count": self._leaf_count,
            "issuer_orgs": list(self._orgs),
            "public_orgs": list(self._public),
            "private_orgs": list(self._private),
            "issuer_shares": shares,
            "private_leaf_share": private_share,
            "matrix": {vendor: dict(sorted(column.items()))
                       for vendor, column in sorted(matrix.items())},
            "vendors_public_only": public_only,
            "vendors_self_signing": self_signing,
            "vendors_exclusively_self_signed": exclusive,
        }

    def merge(self, other):
        self._seen |= other._seen

    def checkpoint(self):
        return {"seen": self._seen}

    def restore(self, state):
        self._seen = state["seen"]

    @staticmethod
    def batch_snapshot(study):
        report = issuer_report(study.dataset, study.certificates,
                               study.ecosystem)
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
                       for vendor, column in
                       sorted(report.matrix.items())},
            "vendors_public_only": report.vendors_public_only(),
            "vendors_self_signing": report.vendors_self_signing(),
            "vendors_exclusively_self_signed":
                report.vendors_exclusively_self_signed(),
        }


#: the streaming analyses proven equivalent to batch, in paper order.
ANALYSIS_NAMES = ("fingerprint_index", "doc", "match_rate",
                  "issuer_shares")


def default_analyses(study):
    """The four hot-query analyses wired to one study's resources."""
    return (FingerprintIndex(),
            DocCounters(),
            MatchRate(study.corpus),
            IssuerShares(study.certificates, study.ecosystem))


def batch_snapshots(study):
    """Every analysis's answer computed the classic batch way.

    The reference side of the streaming == batch equivalence proof
    (:mod:`repro.verify.streaming`).
    """
    return {
        FingerprintIndex.name: FingerprintIndex.batch_snapshot(study),
        DocCounters.name: DocCounters.batch_snapshot(study),
        MatchRate.name: MatchRate.batch_snapshot(study),
        IssuerShares.name: IssuerShares.batch_snapshot(study),
    }
