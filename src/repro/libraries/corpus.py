"""The aggregate known-library fingerprint corpus and its matcher.

Reproduces the paper's Section 4.1 corpus: 6,891 library fingerprints (19
OpenSSL + 38 wolfSSL + 113 Mbed TLS + 5,591 curl×OpenSSL + 1,130
curl×wolfSSL).  Consecutive versions frequently share a fingerprint; the
matcher therefore reports the *highest* matching version, mirroring the
paper's convention ("if a device's fingerprint is identical to F, we use
the highest version j").
"""

from repro.libraries import curl, mbedtls, openssl, wolfssl
from repro.libraries.base import fingerprint_key, version_sort_key


def _version_rank(fingerprint):
    """Order entries of one key so the highest version ranks last."""
    return fingerprint.library, version_sort_key(fingerprint.version)


class LibraryCorpus:
    """Indexed collection of library fingerprints with exact matching."""

    def __init__(self, fingerprints):
        self._fingerprints = list(fingerprints)
        self._by_key = {}
        for fingerprint in self._fingerprints:
            self._by_key.setdefault(fingerprint.key(), []).append(fingerprint)
        # Each key resolves to its highest version once, here, so every
        # match() is a single dict lookup.
        self._best_by_key = {key: max(entries, key=_version_rank)
                             for key, entries in self._by_key.items()}

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if key != "_derived"}

    def derived(self, build):
        """``build(self)``, computed once per corpus and never pickled."""
        memo = self.__dict__.setdefault("_derived", {})
        if build not in memo:
            memo[build] = build(self)
        return memo[build]

    def __len__(self):
        return len(self._fingerprints)

    def __iter__(self):
        return iter(self._fingerprints)

    @property
    def distinct_fingerprint_count(self):
        """Number of distinct {version, suites, extensions} keys."""
        return len(self._by_key)

    def keys(self):
        """The distinct {version, suites, extensions} keys."""
        return list(self._by_key)

    def libraries(self):
        """Family names present in the corpus."""
        return sorted({fp.library for fp in self._fingerprints})

    def match(self, tls_version, ciphersuites, extensions):
        """Exact-match a device fingerprint against the corpus.

        Returns the :class:`~repro.libraries.base.LibraryFingerprint` of
        the highest matching version, or None when nothing matches.
        """
        return self._best_by_key.get(
            fingerprint_key(tls_version, ciphersuites, extensions))

    def match_all(self, tls_version, ciphersuites, extensions):
        """All corpus entries sharing a device fingerprint (may span versions)."""
        key = fingerprint_key(tls_version, ciphersuites, extensions)
        return list(self._by_key.get(key, ()))

    def ciphersuite_lists(self):
        """Distinct default ciphersuite lists with a representative entry.

        Feeds the semantics-aware matcher (Appendix B.2), which compares
        device suite lists against library suite lists independent of
        extensions and version.
        """
        seen = {}
        for fingerprint in self._fingerprints:
            current = seen.get(fingerprint.ciphersuites)
            if current is None or \
                    _version_rank(fingerprint) > _version_rank(current):
                seen[fingerprint.ciphersuites] = fingerprint
        return seen


def build_default_corpus():
    """Build the full 6,891-entry corpus from all modelled libraries."""
    fingerprints = []
    fingerprints.extend(openssl.fingerprints())
    fingerprints.extend(wolfssl.fingerprints())
    fingerprints.extend(mbedtls.fingerprints())
    fingerprints.extend(curl.openssl_build_fingerprints())
    fingerprints.extend(curl.wolfssl_build_fingerprints())
    return LibraryCorpus(fingerprints)
