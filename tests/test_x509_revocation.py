"""Unit tests for OCSP revocation infrastructure."""

import random

import pytest

from repro.x509.ca import CertificateAuthority
from repro.x509.errors import SignatureError
from repro.x509.revocation import (
    CertStatus,
    OCSPResponse,
    RevocationAuthority,
    RevocationReason,
)

NOW = 1_650_000_000
DAY = 86_400


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority("RevoCA", is_public_trust=True,
                                rng=random.Random(61), now=NOW - 40 * DAY)


@pytest.fixture(scope="module")
def authority(ca):
    return RevocationAuthority(ca)


def _verified_status(ca, leaf, response):
    """The status of a staple that verifies under the CA's key."""
    response.verify(ca.signing_key.public)
    assert response.serial == leaf.serial
    assert response.responder_name == ca.name
    return response.status


class TestOCSP:
    def test_good_status(self, ca, authority):
        leaf, _ = ca.issue_leaf("good.example", now=NOW)
        authority.register(leaf)
        response = authority.ocsp_response(leaf, at=NOW)
        assert _verified_status(ca, leaf, response) == CertStatus.GOOD

    def test_revoked_status(self, ca, authority):
        leaf, _ = ca.issue_leaf("bad.example", now=NOW)
        authority.revoke(leaf, at=NOW, reason=RevocationReason.KEY_COMPROMISE)
        response = authority.ocsp_response(leaf, at=NOW)
        assert _verified_status(ca, leaf, response) == CertStatus.REVOKED

    def test_unknown_serial(self, ca, authority):
        leaf, _ = ca.issue_leaf("stranger.example", now=NOW)
        response = authority.ocsp_response(leaf, at=NOW)
        assert _verified_status(ca, leaf, response) == CertStatus.UNKNOWN

    def test_forged_staple_raises(self, ca, authority):
        leaf, _ = ca.issue_leaf("forge.example", now=NOW)
        authority.register(leaf)
        response = authority.ocsp_response(leaf, at=NOW)
        forged = type(response)(
            responder_name=response.responder_name, serial=response.serial,
            status=CertStatus.GOOD, produced_at=response.produced_at,
            next_update=response.next_update,
            signature=bytes(64))
        with pytest.raises(SignatureError):
            forged.verify(ca.signing_key.public)


def _freshly_signed(ca, response):
    """``response`` re-signed now with the CA's current signing key."""
    return ca.signing_key.sign(OCSPResponse.signable_bytes(
        response.responder_name, response.serial, response.status,
        response.produced_at, response.next_update))


class TestStapleSignedOnce:
    def test_memoised_staple_equals_a_fresh_signature(self):
        ca = CertificateAuthority("OnceCA", is_public_trust=True,
                                  rng=random.Random(62), now=NOW - DAY)
        authority = RevocationAuthority(ca)
        leaf, _ = ca.issue_leaf("once.example", now=NOW)
        authority.register(leaf)
        first = authority.ocsp_response(leaf, at=NOW)
        again = authority.ocsp_response(leaf, at=NOW)
        assert again is first
        assert first.signature == _freshly_signed(ca, first)
        assert again.to_bytes() == first.to_bytes()
        later = authority.ocsp_response(leaf, at=NOW + 60)
        assert later.produced_at == NOW + 60
        assert later.signature == _freshly_signed(ca, later)
        # A new status or a new signing key is a new response.
        authority.revoke(leaf, at=NOW)
        revoked = authority.ocsp_response(leaf, at=NOW)
        assert revoked.status == CertStatus.REVOKED
        assert revoked.signature == _freshly_signed(ca, revoked)
        ca.add_intermediate("OnceCA Issuing", now=NOW)
        rekeyed = authority.ocsp_response(leaf, at=NOW)
        assert rekeyed.signature != revoked.signature
        assert rekeyed.signature == _freshly_signed(ca, rekeyed)
        rekeyed.verify(ca.signing_key.public)

