"""X.509-style certificates with real DER serialization and signatures.

A :class:`Certificate` carries the fields the paper's server-side analysis
consumes — subject/issuer names, validity window, SANs, CA flag, public key
— and round-trips through a DER encoding structured like a real X.509 v3
certificate (TBSCertificate / signatureAlgorithm / signatureValue).  The
signature is a real RSA signature over the TBS bytes, so chain validation
performs actual cryptographic verification.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.x509 import asn1
from repro.x509.errors import DERDecodeError, SignatureError
from repro.x509.keys import RSAPublicKey
from repro.x509.names import DistinguishedName, certificate_covers_host

#: AlgorithmIdentifier OIDs.
OID_RSA_ENCRYPTION = "1.2.840.113549.1.1.1"
OID_SHA256_WITH_RSA = "1.2.840.113549.1.1.11"

#: Extension OIDs.
OID_BASIC_CONSTRAINTS = "2.5.29.19"
OID_SUBJECT_ALT_NAME = "2.5.29.17"

_SECONDS_PER_DAY = 86400


def _algorithm_identifier(oid):
    return asn1.encode_sequence(asn1.encode_oid(oid), asn1.encode_null())


#: The two AlgorithmIdentifiers every certificate carries, encoded once.
_RSA_ENCRYPTION_ALGORITHM = _algorithm_identifier(OID_RSA_ENCRYPTION)
_SHA256_WITH_RSA_ALGORITHM = _algorithm_identifier(OID_SHA256_WITH_RSA)


def _encode_spki(public_key):
    rsa_key = asn1.encode_sequence(
        asn1.encode_integer(public_key.n), asn1.encode_integer(public_key.e))
    return asn1.encode_sequence(
        _RSA_ENCRYPTION_ALGORITHM, asn1.encode_bit_string(rsa_key))


def _decode_spki(node):
    algorithm = node[0][0].as_oid()
    if algorithm != OID_RSA_ENCRYPTION:
        raise DERDecodeError(f"unsupported public key algorithm: {algorithm}")
    key_node = asn1.decode(node[1].as_bit_string())
    return RSAPublicKey(n=key_node[0].as_integer(), e=key_node[1].as_integer())


def _encode_extensions(is_ca, san_dns_names):
    extensions = []
    basic = asn1.encode_sequence(asn1.encode_boolean(is_ca)) if is_ca \
        else asn1.encode_sequence()
    extensions.append(asn1.encode_sequence(
        asn1.encode_oid(OID_BASIC_CONSTRAINTS),
        asn1.encode_boolean(True),  # critical
        asn1.encode_octet_string(basic),
    ))
    if san_dns_names:
        names = b"".join(
            asn1.encode_tlv(asn1.Tag.context(2, constructed=False),
                            name.encode("ascii"))
            for name in san_dns_names
        )
        extensions.append(asn1.encode_sequence(
            asn1.encode_oid(OID_SUBJECT_ALT_NAME),
            asn1.encode_octet_string(asn1.encode_sequence(names)),
        ))
    return asn1.encode_context(3, asn1.encode_sequence(*extensions))


def _decode_extensions(node):
    """Return ``(is_ca, san_dns_names)`` from an extensions [3] node."""
    is_ca, san = False, []
    for extension in node[0]:
        oid = extension[0].as_oid()
        value = extension[-1].as_octet_string()
        if oid == OID_BASIC_CONSTRAINTS:
            inner = asn1.decode(value)
            if len(inner) and inner[0].tag == asn1.Tag.BOOLEAN:
                is_ca = inner[0].as_boolean()
        elif oid == OID_SUBJECT_ALT_NAME:
            inner = asn1.decode(value)
            for general_name in inner:
                if general_name.tag == asn1.Tag.context(2, constructed=False):
                    try:
                        san.append(general_name.content.decode("ascii"))
                    except UnicodeDecodeError as exc:
                        raise DERDecodeError(
                            "SAN dNSName is not ASCII") from exc
    return is_ca, tuple(san)


def _decode_name(node):
    """A DistinguishedName; a name without a common name is malformed."""
    try:
        return DistinguishedName.from_asn1(node)
    except ValueError as exc:
        raise DERDecodeError(str(exc)) from exc


@dataclass(frozen=True)
class Certificate:
    """An immutable certificate.

    Build instances with :func:`sign_certificate` (or a
    :class:`~repro.x509.ca.CertificateAuthority`) so the signature is
    consistent with the TBS bytes.

    The DER encoding and the fingerprint are computed once per object
    (a certificate is fingerprinted tens of thousands of times in one
    study).  They are cached properties, not fields: equality, hashing
    and canonical trees see only the fields, and :meth:`__getstate__`
    leaves them out of the pickled state, so a stored certificate
    carries no bytes it can recompute.
    """

    serial: int
    subject: DistinguishedName
    issuer: DistinguishedName
    not_before: int
    not_after: int
    public_key: RSAPublicKey
    san_dns_names: tuple = ()
    is_ca: bool = False
    tbs_der: bytes = b""
    signature: bytes = b""

    # --- identity -----------------------------------------------------------

    def to_der(self):
        return self._der

    def fingerprint(self):
        """SHA-256 hex digest of the DER encoding."""
        return self._fingerprint

    @cached_property
    def _der(self):
        return asn1.encode_sequence(
            self.tbs_der,
            _SHA256_WITH_RSA_ALGORITHM,
            asn1.encode_bit_string(self.signature),
        )

    @cached_property
    def _fingerprint(self):
        return hashlib.sha256(self._der).hexdigest()

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_der", None)
        state.pop("_fingerprint", None)
        return state

    # --- semantic accessors ---------------------------------------------------

    @property
    def validity_days(self):
        """Validity period length in (possibly fractional) days."""
        return (self.not_after - self.not_before) / _SECONDS_PER_DAY

    def is_expired(self, at):
        return at > self.not_after

    def is_not_yet_valid(self, at):
        return at < self.not_before

    def is_time_valid(self, at):
        return self.not_before <= at <= self.not_after

    @property
    def is_self_issued(self):
        """Subject equals issuer (necessary for self-signed)."""
        return self.subject == self.issuer

    def is_self_signed(self):
        """Self-issued *and* verifies under its own key."""
        return self.is_self_issued and self.public_key.verifies(
            self.tbs_der, self.signature)

    def covers_host(self, hostname):
        """Host-name check per RFC 6125 (SAN authoritative, CN fallback)."""
        return certificate_covers_host(
            self.subject.common_name, self.san_dns_names, hostname)

    def verify_signature(self, issuer_public_key):
        """Verify this certificate's signature; raises SignatureError."""
        issuer_public_key.verify(self.tbs_der, self.signature)

    # --- DER round-trip -------------------------------------------------------

    @classmethod
    def from_der(cls, data):
        """Decode DER; malformed input raises only DERDecodeError."""
        root = asn1.decode(data)
        if len(root) != 3:
            raise DERDecodeError("certificate must have exactly three members")
        tbs, _sig_alg, sig_value = root
        signature = sig_value.as_bit_string()
        index = 0
        if tbs[index].tag == asn1.Tag.context(0):
            index += 1  # version [0]
        serial = tbs[index].as_integer()
        index += 2  # skip signature AlgorithmIdentifier inside TBS
        issuer = _decode_name(tbs[index])
        index += 1
        validity = tbs[index]
        not_before = validity[0].as_time()
        not_after = validity[1].as_time()
        index += 1
        subject = _decode_name(tbs[index])
        index += 1
        public_key = _decode_spki(tbs[index])
        index += 1
        is_ca, san = False, ()
        if index < len(tbs) and tbs[index].tag == asn1.Tag.context(3):
            is_ca, san = _decode_extensions(tbs[index])
        # Re-encode the TBS exactly as found so signatures keep verifying.
        tbs_der = asn1.encode_tlv(tbs.tag, tbs.content)
        return cls(serial=serial, subject=subject, issuer=issuer,
                   not_before=not_before, not_after=not_after,
                   public_key=public_key, san_dns_names=san, is_ca=is_ca,
                   tbs_der=tbs_der, signature=signature)


def build_tbs(serial, subject, issuer, not_before, not_after, public_key,
              san_dns_names=(), is_ca=False):
    """Encode a TBSCertificate."""
    return asn1.encode_sequence(
        asn1.encode_context(0, asn1.encode_integer(2)),  # version: v3
        asn1.encode_integer(serial),
        _SHA256_WITH_RSA_ALGORITHM,
        issuer.to_der(),
        asn1.encode_sequence(asn1.encode_time(not_before),
                             asn1.encode_time(not_after)),
        subject.to_der(),
        _encode_spki(public_key),
        _encode_extensions(is_ca, san_dns_names),
    )


def sign_certificate(serial, subject, issuer, issuer_keypair, not_before,
                     not_after, public_key, san_dns_names=(), is_ca=False):
    """Build and sign a certificate in one step."""
    tbs = build_tbs(serial, subject, issuer, not_before, not_after,
                    public_key, san_dns_names=san_dns_names, is_ca=is_ca)
    return Certificate(
        serial=serial, subject=subject, issuer=issuer,
        not_before=not_before, not_after=not_after, public_key=public_key,
        san_dns_names=tuple(san_dns_names), is_ca=is_ca, tbs_der=tbs,
        signature=issuer_keypair.sign(tbs),
    )
