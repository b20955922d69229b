"""Derivation of device TLS stacks from known libraries.

The paper's central client-side observation is that ~98% of device
fingerprints match no known library exactly, yet most are recognizably
*derived* from one (Appendix B.2 categorizes the deviations).  The
:class:`StackFactory` encodes that generative process: a stack starts from
a known library's default ClientHello and a seeded mutation is applied —

- ``exact``: the library default, verbatim (the ~2.5% that match);
- ``extensions``: same ciphersuite list, perturbed extensions/version
  (Appendix B.2 "exact match" on suites without a 3-tuple match);
- ``reorder``: same suites, different preference order;
- ``component``: recombined suites from the same algorithm components;
- ``similar``: key-length/ hash-length substitutions (AES-128→256,
  SHA256→SHA384);
- ``custom``: heavy vendor customization.

A ``hygiene`` knob governs whether vulnerable suites are stripped (good
vendors) or retained and even promoted to the front of the list (the
paper's Figure 11 vendors), and propensity knobs drive FALLBACK_SCSV,
OCSP ``status_request``, and GREASE adoption (Appendix B.3/B.9/B.10).
"""

import hashlib
import random

from repro.libraries.base import LibraryFingerprint
from repro.inspector.model import TLSStack
from repro.tlslib.ciphersuites import (
    FALLBACK_SCSV,
    REGISTRY,
    suite_by_code,
)
from repro.tlslib.extensions import ExtensionType as Ext
from repro.tlslib.grease import GREASE_VALUES
from repro.tlslib.versions import TLSVersion

#: Extensions a vendor build may toggle without touching the suite list.
_TWEAKABLE_EXTENSIONS = (
    int(Ext.SESSION_TICKET),
    int(Ext.RENEGOTIATION_INFO),
    int(Ext.PADDING),
    int(Ext.APPLICATION_LAYER_PROTOCOL_NEGOTIATION),
    int(Ext.NEXT_PROTOCOL_NEGOTIATION),
    int(Ext.EXTENDED_MASTER_SECRET),
    int(Ext.SIGNED_CERTIFICATE_TIMESTAMP),
)

#: Real, algorithm-bearing suites available for additions.  Severe
#: (anonymous/export/NULL/RC2) suites are excluded from random draws —
#: they enter only through the explicit low-hygiene path, keeping the
#: paper's count of 27 affected devices.
_ADDABLE_SUITES = tuple(
    suite.code for suite in REGISTRY.values()
    if not suite.is_signaling and suite.kx != "TLS13"
    and not suite.is_anon and not suite.is_export
    and not suite.is_null_cipher
    and not (suite.cipher or "").startswith("RC2")
)

#: Highly vulnerable suites low-hygiene vendors retain (Section 4.2's
#: anonymous/export/NULL set, proposed by 27 devices of 14 vendors).
SEVERE_SUITES = tuple(
    suite.code for suite in REGISTRY.values()
    if not suite.is_signaling and (
        suite.is_anon or suite.is_export or suite.is_null_cipher
        or (suite.cipher or "").startswith("RC2"))
)

#: Substitution pairs for the ``similar`` mutation (same algorithm, longer
#: key/digest), applied on IANA names.
_SIMILAR_SWAPS = (
    ("AES_128_CBC_SHA256", "AES_256_CBC_SHA384"),
    ("AES_128_GCM_SHA256", "AES_256_GCM_SHA384"),
    ("AES_128_CBC_SHA", "AES_256_CBC_SHA"),
    ("CAMELLIA_128_CBC_SHA", "CAMELLIA_256_CBC_SHA"),
)


def stable_rng(*scope):
    """A ``random.Random`` seeded from a hash-randomization-proof digest.

    Python's built-in ``hash`` is salted per process, so seeding with
    tuples or strings directly would break cross-run reproducibility.
    """
    material = "\x1f".join(repr(part) for part in scope).encode("utf-8")
    seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
    return random.Random(seed)


def _dedupe(codes):
    seen, out = set(), []
    for code in codes:
        if code not in seen:
            seen.add(code)
            out.append(code)
    return out


class StackFactory:
    """Derives :class:`TLSStack` instances from library fingerprints."""

    def __init__(self, seed=0):
        self._seed = seed

    def _rng(self, *scope):
        return stable_rng(self._seed, *scope)

    def derive(self, base, name, *, mutation, hygiene=0.5, scope=(),
               grease=False, fallback_scsv=False, ocsp=False,
               version_override=None, allow_severe=False):
        """Derive one stack from ``base``.

        Args:
            base: a :class:`~repro.libraries.base.LibraryFingerprint`.
            name: stack identifier (provenance only).
            mutation: one of ``exact``, ``extensions``, ``reorder``,
                ``component``, ``similar``, ``custom``.
            hygiene: 0..1; low values keep (and sometimes promote)
                vulnerable suites, high values strip them.
            scope: extra seeding material so the same vendor derives
                distinct stacks deterministically.
            grease: add GREASE values to suites and extensions.
            fallback_scsv: append TLS_FALLBACK_SCSV.
            ocsp: include the ``status_request`` extension.
            version_override: pin the proposed TLS version (legacy devices).
        """
        rng = self._rng(name, mutation, *scope)
        suites = list(base.ciphersuites)
        extensions = list(base.extensions)
        version = base.tls_version

        # The capture window predates IoT TLS 1.3 adoption (Table 12 shows
        # none); devices built on 1.3-capable libraries pin max 1.2.
        if version == TLSVersion.TLS_1_3:
            version = TLSVersion.TLS_1_2
            suites = [c for c in suites if suite_by_code(c).kx != "TLS13"]
            extensions = [e for e in extensions
                          if e not in (int(Ext.SUPPORTED_VERSIONS),
                                       int(Ext.KEY_SHARE),
                                       int(Ext.PSK_KEY_EXCHANGE_MODES))]

        if mutation == "exact":
            return TLSStack(name=name, tls_version=base.tls_version,
                            ciphersuites=tuple(base.ciphersuites),
                            extensions=tuple(base.extensions),
                            origin_library=base.full_name, mutation="exact")

        if mutation == "extensions":
            extensions = self._tweak_extensions(extensions, rng)
        elif mutation == "reorder":
            suites = self._reorder(suites, rng)
        elif mutation == "component":
            suites = self._recombine_components(suites, rng)
        elif mutation == "similar":
            suites = self._similarize(suites, rng)
        elif mutation == "custom":
            suites = self._customize(suites, rng)
            extensions = self._tweak_extensions(extensions, rng)
        else:
            raise ValueError(f"unknown mutation: {mutation!r}")

        # Hygiene rewrites the suite list, so it only applies to mutations
        # that already touch it — "extensions" and "reorder" preserve the
        # base library's suite set by definition.
        if mutation not in ("extensions", "reorder"):
            suites = self._apply_hygiene(suites, hygiene, rng,
                                         allow_severe=allow_severe)
        if fallback_scsv and FALLBACK_SCSV not in suites:
            suites.append(FALLBACK_SCSV)
        if ocsp and int(Ext.STATUS_REQUEST) not in extensions:
            extensions.append(int(Ext.STATUS_REQUEST))
        if grease:
            value = rng.choice(sorted(GREASE_VALUES))
            extensions = [value] + extensions
            # A rare build GREASEs only its extensions (Appendix B.10
            # observes 2 such devices).
            if rng.random() > 0.01:
                suites = [value] + suites
        if version_override is not None:
            version = version_override

        return TLSStack(name=name, tls_version=version,
                        ciphersuites=tuple(suites),
                        extensions=tuple(extensions),
                        origin_library=base.full_name, mutation=mutation)

    # --- mutation operators ---------------------------------------------------

    @staticmethod
    def _tweak_extensions(extensions, rng):
        out = list(extensions)
        for candidate in _TWEAKABLE_EXTENSIONS:
            roll = rng.random()
            if candidate in out and roll < 0.15:
                out.remove(candidate)
            elif candidate not in out and roll > 0.75:
                out.append(candidate)
        if not out:
            out = [int(Ext.RENEGOTIATION_INFO)]
        return out

    @staticmethod
    def _similarize(suites, rng):
        """Collapse one key/digest length per cipher family.

        A vendor build that keeps only the AES-128 (or only the AES-256)
        variants has *similar* — not identical — component sets relative
        to the base library (Appendix B.2's ``similar component``).
        """
        shorter_first = rng.random() < 0.5
        out = []
        for code in suites:
            if rng.random() < 0.08 and len(suites) > 6:
                continue  # vendors also trim a few suites while rebuilding
            name = suite_by_code(code).name
            replaced = None
            for short, long in _SIMILAR_SWAPS:
                if shorter_first and name.endswith(long):
                    replaced = name[: -len(long)] + short
                elif not shorter_first and name.endswith(short):
                    replaced = name[: -len(short)] + long
                if replaced is not None:
                    break
            if replaced is None:
                out.append(code)
            else:
                try:
                    from repro.tlslib.ciphersuites import suite_by_name
                    out.append(suite_by_name(replaced).code)
                except KeyError:
                    out.append(code)
        return _dedupe(out)

    @staticmethod
    def _reorder(suites, rng):
        out = list(suites)
        # Swap a handful of adjacent blocks — vendors reorder preferences,
        # they rarely shuffle uniformly.
        for _ in range(rng.randint(1, 4)):
            if len(out) < 4:
                break
            i = rng.randrange(0, len(out) - 2)
            width = rng.randint(1, min(3, len(out) - i - 1))
            out[i:i + width], out[i + width:i + 2 * width] = \
                out[i + width:i + 2 * width], out[i:i + width]
        return _dedupe(out)

    @staticmethod
    def _recombine_components(suites, rng):
        """Build different suites out of the same algorithm components."""
        kept = [c for c in suites if rng.random() < 0.8]
        components = {suite_by_code(c).components() for c in suites}
        kx_set = {kx for kx, _c, _m in components if kx}
        cipher_set = {cipher for _k, cipher, _m in components if cipher}
        additions = []
        for code in _ADDABLE_SUITES:
            suite = suite_by_code(code)
            if (suite.kx in kx_set and suite.cipher in cipher_set
                    and code not in kept and rng.random() < 0.25):
                additions.append(code)
        return _dedupe(kept + additions)

    @staticmethod
    def _customize(suites, rng):
        kept = [c for c in suites if rng.random() < 0.7]
        extras = rng.sample(_ADDABLE_SUITES, k=rng.randint(1, 6))
        insert_at = rng.randrange(0, len(kept) + 1) if kept else 0
        return _dedupe(kept[:insert_at] + extras + kept[insert_at:])

    @staticmethod
    def _apply_hygiene(suites, hygiene, rng, allow_severe=False):
        """Hygiene-dependent handling of vulnerable suites.

        A stack is scrubbed of vulnerable suites with probability equal to
        its hygiene (vendors with good practices clean most builds; the
        paper still finds ~45% of fingerprints with a vulnerable
        component).  Low hygiene (< 0.2) additionally promotes a
        vulnerable suite to the front of the list and sometimes retains a
        severe (export/NULL/anon) suite — Figure 11's vendors.
        """
        out = list(suites)
        # Even sloppy vendors ship *some* clean builds (newer firmware);
        # the affine floor keeps the study-wide vulnerable share near the
        # paper's 44.6% given the era mix of base libraries.
        strip_probability = 1.0 if hygiene > 0.75 else 0.38 + 0.45 * hygiene
        if rng.random() < strip_probability:
            out = [c for c in out if not suite_by_code(c).vulnerable_components()]
        elif hygiene < 0.2:
            vulnerable = [c for c in out
                          if suite_by_code(c).vulnerable_components()]
            if vulnerable and rng.random() < 0.5:
                promoted = rng.choice(vulnerable)
                out.remove(promoted)
                out.insert(0, promoted)
            # Severe (anon/export/NULL/RC2) additions are rare and
            # device-specific: the paper finds 31 such fingerprints on 27
            # devices of 14 vendors.  Only per-device builds may add them.
            severe_probability = 0.25 if hygiene < 0.1 else 0.08
            if allow_severe and rng.random() < severe_probability:
                severe = rng.choice(SEVERE_SUITES)
                if severe not in out:
                    out.append(severe)
        if not out:
            out = list(suites)
        return _dedupe(out)
