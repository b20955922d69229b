"""IANA ciphersuite registry with algorithm decomposition and security levels.

The paper decomposes each ciphersuite into three components (Appendix B.8):
the key-exchange-and-authentication algorithm, the cipher algorithm, and the
MAC algorithm, and classifies every suite into one of three security levels
(Section 4.2):

- *Optimal*: equivalent to a modern web browser — forward-secret key
  exchange with an AEAD cipher (Chromium's ``IsSecureTLSCipherSuite``).
- *Suboptimal*: non-ideal (e.g. non-PFS key exchange, CBC modes) but not
  vulnerable to known attacks.
- *Vulnerable*: anonymous key exchange, export-grade suites, NULL
  encryption, RC2/RC4, and DES/3DES.  Following the paper, MD5 or SHA-1 as
  a ciphersuite MAC is *not* treated as vulnerable.

We parse the components out of the IANA names rather than hand-labelling
each suite, so every registered suite is decomposed consistently.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.tlslib.grease import is_grease

#: Hash tokens that may terminate an IANA suite name.
_HASH_TOKENS = ("MD5", "SHA", "SHA256", "SHA384", "SHA512")

#: Cipher substrings that imply an AEAD construction.
_AEAD_MARKERS = ("GCM", "CCM", "POLY1305")


class SecurityLevel(enum.IntEnum):
    """Security level of a ciphersuite, ordered from best to worst."""

    OPTIMAL = 0
    SUBOPTIMAL = 1
    VULNERABLE = 2

    @property
    def pretty(self):
        return self.name.capitalize()


@dataclass(frozen=True)
class CipherSuite:
    """A single IANA-registered ciphersuite.

    Attributes:
        code: two-byte wire value.
        name: IANA name (e.g. ``TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256``).
        kx: key exchange + authentication component (``ECDHE_RSA``,
            ``RSA``, ``DH_ANON``, ``KRB5_EXPORT``, ``TLS13``, ...).
        cipher: cipher component (``AES_128_GCM``, ``3DES_EDE_CBC``, ...).
        mac: MAC component (``SHA256``, ``MD5``, or ``AEAD``).
        prf_hash: trailing hash of AEAD suites (PRF hash) when present.
        is_signaling: True for SCSV pseudo-suites that carry no algorithms.
    """

    code: int
    name: str
    kx: str = None
    cipher: str = None
    mac: str = None
    prf_hash: str = None
    is_signaling: bool = False

    # --- derived algorithm properties -------------------------------------

    @property
    def is_aead(self):
        return self.mac == "AEAD"

    @property
    def is_pfs(self):
        """Forward-secret key exchange (ephemeral DH/ECDH, or TLS 1.3)."""
        if self.kx is None:
            return False
        return self.kx.startswith(("DHE", "ECDHE")) or self.kx == "TLS13"

    @property
    def is_anon(self):
        return self.kx is not None and "ANON" in self.kx

    @property
    def is_export(self):
        return "EXPORT" in self.name or (
            self.cipher is not None and ("_40" in self.cipher or "40_" in self.cipher)
        )

    @property
    def is_null_cipher(self):
        return self.cipher is not None and self.cipher.startswith("NULL")

    # --- security classification -------------------------------------------

    def vulnerable_components(self):
        """Return sorted vulnerability tags present in this suite.

        Tags follow the paper's taxonomy: ``ANON``, ``EXPORT``, ``NULL``,
        ``RC2``, ``RC4``, ``DES``, ``3DES``.  Signaling suites and GREASE
        values carry no algorithms and therefore no vulnerabilities.
        """
        return list(self._vulnerable_tags)

    @cached_property
    def _vulnerable_tags(self):
        """The tags, computed once per suite (the analyses ask for them
        hundreds of thousands of times over a few hundred suites)."""
        if self.is_signaling or self.cipher is None:
            return ()
        tags = set()
        if self.is_anon:
            tags.add("ANON")
        if self.is_export:
            tags.add("EXPORT")
        if self.is_null_cipher:
            tags.add("NULL")
        if self.cipher.startswith("RC2"):
            tags.add("RC2")
        if self.cipher.startswith("RC4"):
            tags.add("RC4")
        if self.cipher.startswith("3DES"):
            tags.add("3DES")
        elif self.cipher.startswith(("DES", "DES40")):
            tags.add("DES")
        return tuple(sorted(tags))

    @property
    def security_level(self):
        """The paper's three-way security level for this suite."""
        if self._vulnerable_tags:
            return SecurityLevel.VULNERABLE
        if self.is_pfs and self.is_aead:
            return SecurityLevel.OPTIMAL
        return SecurityLevel.SUBOPTIMAL

    def components(self):
        """Return the ``(kx, cipher, mac)`` triple used in Appendix B.8."""
        return (self.kx, self.cipher, self.mac)

    def __str__(self):
        return self.name


def _parse_name(name):
    """Derive ``(kx, cipher, mac, prf_hash)`` from an IANA suite name."""
    if not name.startswith("TLS_"):
        raise ValueError(f"not an IANA suite name: {name!r}")
    body = name[len("TLS_"):]
    if "_WITH_" in body:
        kx, rest = body.split("_WITH_", 1)
    else:
        # TLS 1.3 suites name only the AEAD + PRF hash; key exchange is
        # negotiated via extensions.
        kx, rest = "TLS13", body
    kx = kx.replace("anon", "ANON")
    tokens = rest.split("_")
    if tokens[-1] in _HASH_TOKENS:
        hash_token = tokens[-1]
        cipher = "_".join(tokens[:-1])
    else:
        hash_token = None
        cipher = rest
    if any(marker in cipher for marker in _AEAD_MARKERS):
        mac, prf_hash = "AEAD", hash_token
    else:
        mac, prf_hash = hash_token, None
    return kx, cipher, mac, prf_hash


def _suite(code, name):
    kx, cipher, mac, prf_hash = _parse_name(name)
    return CipherSuite(code=code, name=name, kx=kx, cipher=cipher, mac=mac,
                       prf_hash=prf_hash)


def _scsv(code, name):
    return CipherSuite(code=code, name=name, is_signaling=True)


#: Wire-code → name table for the registry.  Covers the suite populations of
#: OpenSSL 0.9.8–1.1.1, wolfSSL, and Mbed TLS/PolarSSL across the versions
#: modelled in :mod:`repro.libraries`.
_IANA_NAMES = {
    0x0000: "TLS_NULL_WITH_NULL_NULL",
    0x0001: "TLS_RSA_WITH_NULL_MD5",
    0x0002: "TLS_RSA_WITH_NULL_SHA",
    0x0003: "TLS_RSA_EXPORT_WITH_RC4_40_MD5",
    0x0004: "TLS_RSA_WITH_RC4_128_MD5",
    0x0005: "TLS_RSA_WITH_RC4_128_SHA",
    0x0006: "TLS_RSA_EXPORT_WITH_RC2_CBC_40_MD5",
    0x0007: "TLS_RSA_WITH_IDEA_CBC_SHA",
    0x0008: "TLS_RSA_EXPORT_WITH_DES40_CBC_SHA",
    0x0009: "TLS_RSA_WITH_DES_CBC_SHA",
    0x000A: "TLS_RSA_WITH_3DES_EDE_CBC_SHA",
    0x000B: "TLS_DH_DSS_EXPORT_WITH_DES40_CBC_SHA",
    0x000C: "TLS_DH_DSS_WITH_DES_CBC_SHA",
    0x000D: "TLS_DH_DSS_WITH_3DES_EDE_CBC_SHA",
    0x000E: "TLS_DH_RSA_EXPORT_WITH_DES40_CBC_SHA",
    0x000F: "TLS_DH_RSA_WITH_DES_CBC_SHA",
    0x0010: "TLS_DH_RSA_WITH_3DES_EDE_CBC_SHA",
    0x0011: "TLS_DHE_DSS_EXPORT_WITH_DES40_CBC_SHA",
    0x0012: "TLS_DHE_DSS_WITH_DES_CBC_SHA",
    0x0013: "TLS_DHE_DSS_WITH_3DES_EDE_CBC_SHA",
    0x0014: "TLS_DHE_RSA_EXPORT_WITH_DES40_CBC_SHA",
    0x0015: "TLS_DHE_RSA_WITH_DES_CBC_SHA",
    0x0016: "TLS_DHE_RSA_WITH_3DES_EDE_CBC_SHA",
    0x0017: "TLS_DH_anon_EXPORT_WITH_RC4_40_MD5",
    0x0018: "TLS_DH_anon_WITH_RC4_128_MD5",
    0x0019: "TLS_DH_anon_EXPORT_WITH_DES40_CBC_SHA",
    0x001A: "TLS_DH_anon_WITH_DES_CBC_SHA",
    0x001B: "TLS_DH_anon_WITH_3DES_EDE_CBC_SHA",
    0x001E: "TLS_KRB5_WITH_DES_CBC_SHA",
    0x001F: "TLS_KRB5_WITH_3DES_EDE_CBC_SHA",
    0x0020: "TLS_KRB5_WITH_RC4_128_SHA",
    0x0022: "TLS_KRB5_WITH_DES_CBC_MD5",
    0x0023: "TLS_KRB5_WITH_3DES_EDE_CBC_MD5",
    0x0024: "TLS_KRB5_WITH_RC4_128_MD5",
    0x0026: "TLS_KRB5_EXPORT_WITH_DES_CBC_40_SHA",
    0x0028: "TLS_KRB5_EXPORT_WITH_RC4_40_SHA",
    0x0029: "TLS_KRB5_EXPORT_WITH_DES_CBC_40_MD5",
    0x002B: "TLS_KRB5_EXPORT_WITH_RC4_40_MD5",
    0x002F: "TLS_RSA_WITH_AES_128_CBC_SHA",
    0x0030: "TLS_DH_DSS_WITH_AES_128_CBC_SHA",
    0x0031: "TLS_DH_RSA_WITH_AES_128_CBC_SHA",
    0x0032: "TLS_DHE_DSS_WITH_AES_128_CBC_SHA",
    0x0033: "TLS_DHE_RSA_WITH_AES_128_CBC_SHA",
    0x0034: "TLS_DH_anon_WITH_AES_128_CBC_SHA",
    0x0035: "TLS_RSA_WITH_AES_256_CBC_SHA",
    0x0036: "TLS_DH_DSS_WITH_AES_256_CBC_SHA",
    0x0037: "TLS_DH_RSA_WITH_AES_256_CBC_SHA",
    0x0038: "TLS_DHE_DSS_WITH_AES_256_CBC_SHA",
    0x0039: "TLS_DHE_RSA_WITH_AES_256_CBC_SHA",
    0x003A: "TLS_DH_anon_WITH_AES_256_CBC_SHA",
    0x003B: "TLS_RSA_WITH_NULL_SHA256",
    0x003C: "TLS_RSA_WITH_AES_128_CBC_SHA256",
    0x003D: "TLS_RSA_WITH_AES_256_CBC_SHA256",
    0x0040: "TLS_DHE_DSS_WITH_AES_128_CBC_SHA256",
    0x0041: "TLS_RSA_WITH_CAMELLIA_128_CBC_SHA",
    0x0044: "TLS_DHE_DSS_WITH_CAMELLIA_128_CBC_SHA",
    0x0045: "TLS_DHE_RSA_WITH_CAMELLIA_128_CBC_SHA",
    0x0067: "TLS_DHE_RSA_WITH_AES_128_CBC_SHA256",
    0x006A: "TLS_DHE_DSS_WITH_AES_256_CBC_SHA256",
    0x006B: "TLS_DHE_RSA_WITH_AES_256_CBC_SHA256",
    0x006C: "TLS_DH_anon_WITH_AES_128_CBC_SHA256",
    0x006D: "TLS_DH_anon_WITH_AES_256_CBC_SHA256",
    0x0084: "TLS_RSA_WITH_CAMELLIA_256_CBC_SHA",
    0x0087: "TLS_DHE_DSS_WITH_CAMELLIA_256_CBC_SHA",
    0x0088: "TLS_DHE_RSA_WITH_CAMELLIA_256_CBC_SHA",
    0x008C: "TLS_PSK_WITH_AES_128_CBC_SHA",
    0x008D: "TLS_PSK_WITH_AES_256_CBC_SHA",
    0x0096: "TLS_RSA_WITH_SEED_CBC_SHA",
    0x0099: "TLS_DHE_DSS_WITH_SEED_CBC_SHA",
    0x009A: "TLS_DHE_RSA_WITH_SEED_CBC_SHA",
    0x009C: "TLS_RSA_WITH_AES_128_GCM_SHA256",
    0x009D: "TLS_RSA_WITH_AES_256_GCM_SHA384",
    0x009E: "TLS_DHE_RSA_WITH_AES_128_GCM_SHA256",
    0x009F: "TLS_DHE_RSA_WITH_AES_256_GCM_SHA384",
    0x00A2: "TLS_DHE_DSS_WITH_AES_128_GCM_SHA256",
    0x00A3: "TLS_DHE_DSS_WITH_AES_256_GCM_SHA384",
    0x00A6: "TLS_DH_anon_WITH_AES_128_GCM_SHA256",
    0x00A7: "TLS_DH_anon_WITH_AES_256_GCM_SHA384",
    0x00A8: "TLS_PSK_WITH_AES_128_GCM_SHA256",
    0x00A9: "TLS_PSK_WITH_AES_256_GCM_SHA384",
    0x00AE: "TLS_PSK_WITH_AES_128_CBC_SHA256",
    0x00AF: "TLS_PSK_WITH_AES_256_CBC_SHA384",
    0x1301: "TLS_AES_128_GCM_SHA256",
    0x1302: "TLS_AES_256_GCM_SHA384",
    0x1303: "TLS_CHACHA20_POLY1305_SHA256",
    0x1304: "TLS_AES_128_CCM_SHA256",
    0x1305: "TLS_AES_128_CCM_8_SHA256",
    0xC002: "TLS_ECDH_ECDSA_WITH_RC4_128_SHA",
    0xC003: "TLS_ECDH_ECDSA_WITH_3DES_EDE_CBC_SHA",
    0xC004: "TLS_ECDH_ECDSA_WITH_AES_128_CBC_SHA",
    0xC005: "TLS_ECDH_ECDSA_WITH_AES_256_CBC_SHA",
    0xC007: "TLS_ECDHE_ECDSA_WITH_RC4_128_SHA",
    0xC008: "TLS_ECDHE_ECDSA_WITH_3DES_EDE_CBC_SHA",
    0xC009: "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA",
    0xC00A: "TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA",
    0xC00C: "TLS_ECDH_RSA_WITH_RC4_128_SHA",
    0xC00D: "TLS_ECDH_RSA_WITH_3DES_EDE_CBC_SHA",
    0xC00E: "TLS_ECDH_RSA_WITH_AES_128_CBC_SHA",
    0xC00F: "TLS_ECDH_RSA_WITH_AES_256_CBC_SHA",
    0xC011: "TLS_ECDHE_RSA_WITH_RC4_128_SHA",
    0xC012: "TLS_ECDHE_RSA_WITH_3DES_EDE_CBC_SHA",
    0xC013: "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA",
    0xC014: "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA",
    0xC016: "TLS_ECDH_anon_WITH_RC4_128_SHA",
    0xC017: "TLS_ECDH_anon_WITH_3DES_EDE_CBC_SHA",
    0xC018: "TLS_ECDH_anon_WITH_AES_128_CBC_SHA",
    0xC019: "TLS_ECDH_anon_WITH_AES_256_CBC_SHA",
    0xC023: "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA256",
    0xC024: "TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA384",
    0xC025: "TLS_ECDH_ECDSA_WITH_AES_128_CBC_SHA256",
    0xC026: "TLS_ECDH_ECDSA_WITH_AES_256_CBC_SHA384",
    0xC027: "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA256",
    0xC028: "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA384",
    0xC029: "TLS_ECDH_RSA_WITH_AES_128_CBC_SHA256",
    0xC02A: "TLS_ECDH_RSA_WITH_AES_256_CBC_SHA384",
    0xC02B: "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256",
    0xC02C: "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384",
    0xC02D: "TLS_ECDH_ECDSA_WITH_AES_128_GCM_SHA256",
    0xC02E: "TLS_ECDH_ECDSA_WITH_AES_256_GCM_SHA384",
    0xC02F: "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
    0xC030: "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384",
    0xC031: "TLS_ECDH_RSA_WITH_AES_128_GCM_SHA256",
    0xC032: "TLS_ECDH_RSA_WITH_AES_256_GCM_SHA384",
    0xC035: "TLS_ECDHE_PSK_WITH_AES_128_CBC_SHA",
    0xC036: "TLS_ECDHE_PSK_WITH_AES_256_CBC_SHA",
    0xC076: "TLS_ECDHE_RSA_WITH_CAMELLIA_128_CBC_SHA256",
    0xC077: "TLS_ECDHE_RSA_WITH_CAMELLIA_256_CBC_SHA384",
    0xC09C: "TLS_RSA_WITH_AES_128_CCM",
    0xC09D: "TLS_RSA_WITH_AES_256_CCM",
    0xC09E: "TLS_DHE_RSA_WITH_AES_128_CCM",
    0xC09F: "TLS_DHE_RSA_WITH_AES_256_CCM",
    0xC0A0: "TLS_RSA_WITH_AES_128_CCM_8",
    0xC0A1: "TLS_RSA_WITH_AES_256_CCM_8",
    0xC0A2: "TLS_DHE_RSA_WITH_AES_128_CCM_8",
    0xC0A3: "TLS_DHE_RSA_WITH_AES_256_CCM_8",
    0xC0AC: "TLS_ECDHE_ECDSA_WITH_AES_128_CCM",
    0xC0AD: "TLS_ECDHE_ECDSA_WITH_AES_256_CCM",
    0xC0AE: "TLS_ECDHE_ECDSA_WITH_AES_128_CCM_8",
    0xC0AF: "TLS_ECDHE_ECDSA_WITH_AES_256_CCM_8",
    0xCCA8: "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256",
    0xCCA9: "TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256",
    0xCCAA: "TLS_DHE_RSA_WITH_CHACHA20_POLY1305_SHA256",
}

#: Signaling (SCSV) pseudo-suites; analysed in Appendix B.3.1 and B.8.
EMPTY_RENEGOTIATION_INFO_SCSV = 0x00FF
FALLBACK_SCSV = 0x5600

_SCSV_NAMES = {
    EMPTY_RENEGOTIATION_INFO_SCSV: "TLS_EMPTY_RENEGOTIATION_INFO_SCSV",
    FALLBACK_SCSV: "TLS_FALLBACK_SCSV",
}

#: Full registry: code → :class:`CipherSuite`.
REGISTRY = {code: _suite(code, name) for code, name in _IANA_NAMES.items()}
REGISTRY.update({code: _scsv(code, name) for code, name in _SCSV_NAMES.items()})

_BY_NAME = {suite.name: suite for suite in REGISTRY.values()}


def suite_by_code(code):
    """Look up a suite by wire code.

    GREASE values and unknown code points return an anonymous placeholder
    suite (unknown suites occur in the wild; the analysis must not choke on
    them).  The placeholder is marked signaling so it never contributes
    algorithm components.
    """
    suite = REGISTRY.get(code)
    if suite is not None:
        return suite
    if is_grease(code):
        return CipherSuite(code=code, name=f"GREASE_{code:04X}", is_signaling=True)
    return CipherSuite(code=code, name=f"UNKNOWN_{code:04X}", is_signaling=True)


def suite_by_name(name):
    """Look up a suite by its IANA name; raises ``KeyError`` when unknown."""
    return _BY_NAME[name]


def classify_suite(code):
    """Return the :class:`SecurityLevel` of the suite with wire code ``code``.

    Signaling suites, GREASE, and unknown code points classify as
    ``SUBOPTIMAL`` (they carry no algorithms, so they are neither browser
    grade nor vulnerable).
    """
    return suite_by_code(code).security_level


def codes_by_names(names):
    """Convenience: map IANA names to wire codes, preserving order."""
    return [suite_by_name(name).code for name in names]
