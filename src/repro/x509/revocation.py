"""Revocation infrastructure: OCSP responders.

The paper touches revocation twice: Appendix B.9 measures how many IoT
clients request OCSP staples (648 devices), and Section 5.3 argues that
private CAs' inability to "quickly replace or rotate" certificates opens
the door to attackers.  This module supplies the machinery both threads
need:

- :class:`OCSPResponse` — a signed good / revoked / unknown status for
  one certificate, in a wire format suitable for stapling;
- :class:`RevocationAuthority` — the CA-side facade: revoke a
  certificate, answer OCSP queries.

Responses are really signed by the CA key, so a forged staple fails
:meth:`OCSPResponse.verify` just as it would in the real PKI.
"""

import enum
from dataclasses import dataclass


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
    issue OCSP responses for the certificates it signed.
    """

    #: OCSP response freshness window (seconds).
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

