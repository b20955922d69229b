"""Revocation infrastructure: CRLs and OCSP responders.

The paper touches revocation twice: Appendix B.9 measures how many IoT
clients request OCSP staples (648 devices), and Section 5.3 argues that
private CAs' inability to "quickly replace or rotate" certificates opens
the door to attackers.  This module supplies the machinery both threads
need:

- :class:`CertificateRevocationList` — a signed, serial-number-based CRL
  per CA;
- :class:`OCSPResponder` — per-CA responder producing signed
  :class:`OCSPResponse` objects (good / revoked / unknown), suitable for
  stapling;
- :class:`RevocationAuthority` — the CA-side facade: revoke a
  certificate, publish CRLs, answer OCSP queries.

Responses are really signed by the CA key and really verified by the
checker, so a forged staple fails just as it would in the real PKI.
"""

import enum
from dataclasses import dataclass

from repro.x509.errors import SignatureError


class RevocationReason(enum.Enum):
    """RFC 5280 reason codes (subset)."""

    UNSPECIFIED = 0
    KEY_COMPROMISE = 1
    CA_COMPROMISE = 2
    SUPERSEDED = 4
    CESSATION_OF_OPERATION = 5


class CertStatus(enum.Enum):
    GOOD = "good"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RevocationEntry:
    serial: int
    revoked_at: int
    reason: RevocationReason


@dataclass
class CertificateRevocationList:
    """A CRL: the issuer's signed list of revoked serials."""

    issuer_name: str
    this_update: int
    next_update: int
    entries: tuple
    signature: bytes = b""

    def to_signable_bytes(self):
        body = [self.issuer_name, str(self.this_update),
                str(self.next_update)]
        body += [f"{e.serial}:{e.revoked_at}:{e.reason.value}"
                 for e in self.entries]
        return "\n".join(body).encode("utf-8")

    def contains(self, serial):
        return any(entry.serial == serial for entry in self.entries)

    def is_stale(self, at):
        return at > self.next_update

    def verify(self, issuer_public_key):
        issuer_public_key.verify(self.to_signable_bytes(), self.signature)


@dataclass(frozen=True)
class OCSPResponse:
    """A signed single-certificate status assertion."""

    responder_name: str
    serial: int
    status: CertStatus
    produced_at: int
    next_update: int
    signature: bytes

    @staticmethod
    def signable_bytes(responder_name, serial, status, produced_at,
                       next_update):
        text = f"{responder_name}|{serial}|{status.value}|" \
               f"{produced_at}|{next_update}"
        return text.encode("utf-8")

    def verify(self, responder_public_key):
        responder_public_key.verify(
            self.signable_bytes(self.responder_name, self.serial,
                                self.status, self.produced_at,
                                self.next_update),
            self.signature)

    def is_stale(self, at):
        return at > self.next_update

    # --- wire format (for TLS CertificateStatus stapling) -------------------

    def to_bytes(self):
        head = self.signable_bytes(self.responder_name, self.serial,
                                   self.status, self.produced_at,
                                   self.next_update)
        return len(head).to_bytes(2, "big") + head + self.signature

    @classmethod
    def from_bytes(cls, data):
        if len(data) < 2:
            raise ValueError("truncated OCSP staple")
        head_len = int.from_bytes(data[:2], "big")
        head = data[2:2 + head_len].decode("utf-8")
        signature = data[2 + head_len:]
        responder, serial, status, produced, next_update = head.split("|")
        return cls(responder_name=responder, serial=int(serial),
                   status=CertStatus(status), produced_at=int(produced),
                   next_update=int(next_update), signature=signature)


class RevocationAuthority:
    """The revocation side of one CA.

    Wraps a :class:`~repro.x509.ca.CertificateAuthority`'s signing key to
    issue CRLs and OCSP responses for the certificates it signed.
    """

    #: CRL and OCSP response freshness windows (seconds).
    CRL_VALIDITY = 7 * 86_400
    OCSP_VALIDITY = 4 * 86_400

    def __init__(self, ca):
        self._ca = ca
        self._revoked = {}
        self._known_serials = set()
        #: (signing key, signed bytes) → OCSPResponse already issued.
        self._responses = {}

    @property
    def name(self):
        return self._ca.name

    def register(self, certificate):
        """Record an issued certificate so OCSP can answer 'good' for it
        (unregistered serials answer 'unknown', like real responders)."""
        self._known_serials.add(certificate.serial)

    def revoke(self, certificate, at,
               reason=RevocationReason.UNSPECIFIED):
        """Revoke one certificate this CA issued."""
        self.register(certificate)
        self._revoked[certificate.serial] = RevocationEntry(
            serial=certificate.serial, revoked_at=at, reason=reason)

    def is_revoked(self, certificate):
        return certificate.serial in self._revoked

    # --- CRL -------------------------------------------------------------------

    def issue_crl(self, at):
        entries = tuple(sorted(self._revoked.values(),
                               key=lambda e: e.serial))
        crl = CertificateRevocationList(
            issuer_name=self._ca.name, this_update=at,
            next_update=at + self.CRL_VALIDITY, entries=entries)
        crl.signature = self._ca.signing_key.sign(crl.to_signable_bytes())
        return crl

    # --- OCSP -------------------------------------------------------------------

    def ocsp_response(self, certificate, at):
        """Answer an OCSP query for one certificate.

        Each distinct response is signed once: PKCS#1 v1.5 signing is
        deterministic, so re-signing the same bytes with the same key
        would give the same staple.
        """
        if certificate.serial in self._revoked:
            status = CertStatus.REVOKED
        elif certificate.serial in self._known_serials:
            status = CertStatus.GOOD
        else:
            status = CertStatus.UNKNOWN
        produced_at = at
        next_update = at + self.OCSP_VALIDITY
        key = self._ca.signing_key
        message = OCSPResponse.signable_bytes(
            self._ca.name, certificate.serial, status, produced_at,
            next_update)
        response = self._responses.get((key, message))
        if response is None:
            response = OCSPResponse(
                responder_name=self._ca.name, serial=certificate.serial,
                status=status, produced_at=produced_at,
                next_update=next_update, signature=key.sign(message))
            self._responses[(key, message)] = response
        return response


class RevocationChecker:
    """Client-side revocation checking over CRLs or OCSP staples."""

    def __init__(self, trusted_responders):
        """``trusted_responders``: responder name → public key."""
        self._keys = dict(trusted_responders)

    def check_staple(self, certificate, response, at):
        """Validate an OCSP staple for ``certificate``.

        Returns a :class:`CertStatus`; raises
        :class:`~repro.x509.errors.SignatureError` for forged staples and
        treats stale or mismatched staples as UNKNOWN (soft-fail, the
        dominant real-world client behaviour).
        """
        key = self._keys.get(response.responder_name)
        if key is None:
            return CertStatus.UNKNOWN
        response.verify(key)  # raises on forgery
        if response.serial != certificate.serial or response.is_stale(at):
            return CertStatus.UNKNOWN
        return response.status

    def check_crl(self, certificate, crl, at):
        """Validate a CRL and look the certificate up in it."""
        key = self._keys.get(crl.issuer_name)
        if key is None:
            return CertStatus.UNKNOWN
        crl.verify(key)
        if crl.is_stale(at):
            return CertStatus.UNKNOWN
        return CertStatus.REVOKED if crl.contains(certificate.serial) \
            else CertStatus.GOOD
