"""Appendix B.2 — semantics-aware TLS fingerprinting.

Extends exact matching to graded similarity between a device's proposed
*ciphersuite list* and known libraries' default lists:

- ``exact``: identical ciphersuite list (extensions/version may differ);
- ``same_set_diff_order``: same suites, different preference order;
- ``same_component``: same {kx+auth, cipher, MAC} component sets but
  different combinations;
- ``similar_component``: component sets that differ only in key/digest
  length (AES-128 ≈ AES-256, SHA256 ≈ SHA384 — but SHA-1 ≉ SHA256);
- ``customization``: none of the above.

The unit of analysis is the {device, ciphersuite list} tuple (the paper's
5,827 tuples), and Figure 8 reports the Jaccard similarity between each
matched tuple's suite list and its most likely library for the two
component categories.
"""

from collections import Counter
from dataclasses import dataclass

from repro.tlslib.ciphersuites import suite_by_code
from repro.tlslib.grease import strip_grease

#: Category labels, ordered from closest to furthest.
CATEGORIES = ("exact", "same_set_diff_order", "same_component",
              "similar_component", "customization")

#: Canonical names for "similar" algorithm equivalence: strip the key /
#: digest length so AES_128_CBC ≡ AES_256_CBC and SHA256 ≡ SHA384.
_SIMILAR_CIPHER = {
    "AES_128_CBC": "AES_CBC", "AES_256_CBC": "AES_CBC",
    "AES_128_GCM": "AES_GCM", "AES_256_GCM": "AES_GCM",
    "AES_128_CCM": "AES_CCM", "AES_256_CCM": "AES_CCM",
    "AES_128_CCM_8": "AES_CCM_8", "AES_256_CCM_8": "AES_CCM_8",
    "CAMELLIA_128_CBC": "CAMELLIA_CBC", "CAMELLIA_256_CBC": "CAMELLIA_CBC",
}
_SIMILAR_MAC = {"SHA256": "SHA2", "SHA384": "SHA2", "SHA512": "SHA2"}


def _component_sets(codes):
    """The (kx set, cipher set, mac set) of a suite list, GREASE/SCSV-free."""
    kx, ciphers, macs = set(), set(), set()
    for code in strip_grease(codes):
        suite = suite_by_code(code)
        if suite.is_signaling:
            continue
        kx.add(suite.kx)
        ciphers.add(suite.cipher)
        macs.add(suite.mac)
    return kx, ciphers, macs


def _similar_component_sets(codes):
    kx, ciphers, macs = _component_sets(codes)
    ciphers = {_SIMILAR_CIPHER.get(c, c) for c in ciphers}
    macs = {_SIMILAR_MAC.get(m, m) for m in macs}
    return kx, ciphers, macs


def _real_suites(codes):
    return tuple(code for code in strip_grease(codes)
                 if not suite_by_code(code).is_signaling)


def classify_against_library(device_suites, library_suites):
    """Classify one device suite list against one library suite list."""
    device_real = _real_suites(device_suites)
    library_real = _real_suites(library_suites)
    if device_real == library_real:
        return "exact"
    if set(device_real) == set(library_real):
        return "same_set_diff_order"
    if _component_sets(device_real) == _component_sets(library_real):
        return "same_component"
    if _similar_component_sets(device_real) == \
            _similar_component_sets(library_real):
        return "similar_component"
    return "customization"


@dataclass(frozen=True)
class SemanticMatch:
    """Result for one {device, ciphersuite list} tuple."""

    device_id: str
    vendor: str
    ciphersuites: tuple
    category: str
    library: object          # closest LibraryFingerprint or None
    jaccard: float           # suite-set Jaccard to the closest library


def _suite_jaccard(a, b):
    set_a, set_b = set(_real_suites(a)), set(_real_suites(b))
    if not set_a and not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def _frozen(sets):
    return tuple(frozenset(s) for s in sets)


#: (category, key of a GREASE/SCSV-free suite list), closest first.
_INDEXED = (
    ("exact", tuple),
    ("same_set_diff_order", frozenset),
    ("same_component", lambda real: _frozen(_component_sets(real))),
    ("similar_component",
     lambda real: _frozen(_similar_component_sets(real))),
)


def _library_index(corpus):
    """Per category: key -> the first library list with that key."""
    index = {category: {} for category, _key in _INDEXED}
    for suites, library in corpus.ciphersuite_lists().items():
        real = _real_suites(suites)
        for category, key in _INDEXED:
            index[category].setdefault(key(real), library)
    return index


def semantic_fingerprinting(dataset, corpus):
    """Run the Appendix B.2 analysis over all {device, suite list} tuples.

    For each tuple, the *closest* library is the one with the best
    category (then highest suite Jaccard).  Returns the list of
    :class:`SemanticMatch`.
    """
    tuples = dataset.ciphersuite_lists()
    index = corpus.derived(_library_index)

    def closest(suites):
        real = _real_suites(suites)
        for category, key in _INDEXED:
            library = index[category].get(key(real))
            if library is not None:
                return (category, library,
                        _suite_jaccard(suites, library.ciphersuites))
        return "customization", None, 0.0

    # Thousands of tuples hold under a thousand distinct suite lists:
    # classify each list once.
    verdicts = {suites: closest(suites)
                for suites in {suites for _device_id, suites in tuples}}
    results = []
    for device_id, suites in sorted(tuples):
        category, library, jaccard_value = verdicts[suites]
        results.append(SemanticMatch(
            device_id=device_id, vendor=dataset.device_vendor(device_id),
            ciphersuites=tuple(suites), category=category,
            library=library, jaccard=jaccard_value))
    return results


def semantic_summary(matches):
    """Table 11 — per-category share, vendor count, and outdated share."""
    rows = {}
    total = max(1, len(matches))
    for category in CATEGORIES:
        subset = [m for m in matches if m.category == category]
        vendors = {m.vendor for m in subset}
        with_library = [m for m in subset if m.library is not None]
        outdated = [m for m in with_library
                    if not m.library.supported_in_2020]
        rows[category] = {
            "share": len(subset) / total,
            "vendors": len(vendors),
            "outdated_share": (len(outdated) / len(with_library)
                               if with_library else None),
            "count": len(subset),
        }
    return rows


def jaccard_distribution(matches, categories=("same_component",
                                              "similar_component"),
                         bins=10):
    """Figure 8 — histogram of tuple→library Jaccard per category."""
    histograms = {}
    for category in categories:
        counts = Counter()
        for match in matches:
            if match.category == category:
                bucket = min(bins - 1, int(match.jaccard * bins))
                counts[bucket] += 1
        histograms[category] = [counts.get(i, 0) for i in range(bins)]
    return histograms
