"""The matching engine: one exact facade over the Section 4 analytics.

:class:`MatchEngine` owns every Section 4 matching analytic — corpus
matching (4.1), cross-vendor Jaccard similarity (4.4, Table 4), and
shared server-specific fingerprint discovery (4.4, Table 5) — on one
exact path:

- corpus matches resolve through ``LibraryCorpus.match``, which maps
  each fingerprint key to its highest library version once, when the
  corpus is built;
- vendor pairs come from :meth:`SimilarityIndex.all_pairs` (element
  inverted-index pruning, exact bitset rescoring);
- near-matches come from :meth:`CorpusIndex.near_matches`.

The free functions in :mod:`repro.core.matching` and
:mod:`repro.core.sharing` delegate to :func:`shared_engine`, the one
process-wide engine.  The brute-force algorithms these paths replace
live on in the test suite as oracles.
"""

import threading
import weakref

from repro.core.matching import MatchReport
from repro.match.index import CorpusIndex, SimilarityIndex


class MatchEngine:
    """Facade over the exact matching analytics.

    Engines are cheap to construct and safe to share: the expensive
    structures (corpus indexes, per-dataset similarity indexes) are
    built once per input object and cached under weak references, so a
    garbage-collected dataset releases its index.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._corpus_indexes = weakref.WeakKeyDictionary()
        self._vendor_indexes = weakref.WeakKeyDictionary()

    # -- cached indexes -------------------------------------------------------

    def corpus_index(self, corpus):
        """The (cached) :class:`CorpusIndex` for a library corpus."""
        with self._lock:
            index = self._corpus_indexes.get(corpus)
            if index is None:
                index = self._corpus_indexes[corpus] = CorpusIndex(corpus)
        return index

    def vendor_index(self, dataset):
        """The (cached) vendor-fingerprint-set :class:`SimilarityIndex`."""
        with self._lock:
            index = self._vendor_indexes.get(dataset)
            if index is None:
                index = SimilarityIndex()
                for vendor in dataset.vendor_names():
                    index.add(vendor,
                              dataset.vendor_fingerprints(vendor))
                self._vendor_indexes[dataset] = index
        return index

    # -- Section 4.1: corpus matching -----------------------------------------

    def match_report(self, dataset, corpus):
        """The Section 4.1 analysis (see :class:`MatchReport`)."""
        fingerprints = dataset.fingerprints()
        report = MatchReport(total_fingerprints=len(fingerprints))
        for fp in fingerprints:
            library = corpus.match(*fp)
            if library is not None:
                report.matched[fp] = library
                report.device_counts[fp] = len(
                    dataset.fingerprint_devices(fp))
        return report

    def validate_case_study(self, dataset, corpus, vendor):
        """Matched library names for one vendor (Wyze/Enphase case)."""
        matches = set()
        for fp in dataset.vendor_fingerprints(vendor):
            library = corpus.match(*fp)
            if library is not None:
                matches.add(library.full_name)
        return sorted(matches)

    def near_matches(self, fp, corpus, threshold=0.7, limit=10):
        """Libraries Jaccard-similar to a device fingerprint.

        The exact threshold search of :meth:`CorpusIndex.near_matches`.
        """
        return self.corpus_index(corpus).near_matches(
            fp, threshold=threshold, limit=limit)

    # -- Section 4.4: cross-vendor similarity ---------------------------------

    def vendor_similarity_pairs(self, dataset, threshold=0.2):
        """Table 4 — vendor pairs with Jaccard >= ``threshold``.

        Returns ``[(similarity, vendor_a, vendor_b), ...]`` sorted by
        ``(-similarity, vendor_a, vendor_b)``.
        """
        return self.vendor_index(dataset).all_pairs(threshold)

    # -- Section 4.4: servers as a proxy for applications ---------------------

    def server_specific_fingerprints(self, dataset, corpus=None):
        """Table 5 — SNIs tied to server-specific fingerprints.

        Fingerprints that exactly match the corpus (known libraries)
        are excluded.  Returns ``(fraction_of_snis_tied, ties)``.
        """
        from collections import defaultdict

        from repro.core.security import fingerprint_vulnerable_components
        from repro.core.sharing import ServerFingerprintTie
        from repro.x509.names import second_level_domain

        # For each (device, fp): the set of SLDs it was seen toward.
        slds_by_device_fp = defaultdict(set)
        for record in dataset.records:
            if record.sni:
                slds_by_device_fp[
                    (record.device_id, record.fingerprint())].add(
                        second_level_domain(record.sni))
        tied_snis = set()
        # (sld, fp) -> (set of fqdns, set of devices)
        aggregates = defaultdict(lambda: (set(), set()))
        total_snis = 0
        for sni in dataset.snis():
            total_snis += 1
            sld = second_level_domain(sni)
            for fp in dataset.sni_fingerprints(sni):
                if corpus is not None and corpus.match(*fp) is not None:
                    continue
                devices = {d for d, f
                           in dataset.sni_device_fingerprints(sni)
                           if f == fp}
                if not devices:
                    continue
                # Server-specific: each such device uses fp only toward
                # this SLD, and multiple devices share the behaviour.
                if len(devices) >= 2 and all(
                        slds_by_device_fp[(d, fp)] == {sld}
                        for d in devices):
                    tied_snis.add(sni)
                    fqdns, all_devices = aggregates[(sld, fp)]
                    fqdns.add(sni)
                    all_devices.update(devices)
        ties = []
        for (sld, fp), (fqdns, devices) in aggregates.items():
            if len(devices) < 2:
                continue  # exclude single-device outliers (paper's rule)
            vendors = tuple(sorted({dataset.device_vendor(d)
                                    for d in devices}))
            if len(vendors) < 2:
                continue  # Table 5 reports cross-vendor ties
            ties.append(ServerFingerprintTie(
                sld=sld, fingerprint=fp, fqdn_count=len(fqdns),
                device_count=len(devices), vendors=vendors,
                vulnerable_components=tuple(
                    fingerprint_vulnerable_components(fp))))
        ties.sort(key=lambda tie: (-tie.device_count, tie.sld))
        fraction = len(tied_snis) / max(1, total_snis)
        return fraction, ties

    # -- introspection --------------------------------------------------------

    def stats(self, dataset=None, corpus=None):
        """Stats of the corpus and vendor indexes for the given inputs."""
        payload = {}
        if corpus is not None:
            payload["corpus"] = self.corpus_index(corpus).stats()
        if dataset is not None:
            payload["vendors"] = self.vendor_index(dataset).stats()
        return payload


_shared_engine = MatchEngine()


def shared_engine():
    """The process-wide engine the pipeline's free functions use."""
    return _shared_engine
