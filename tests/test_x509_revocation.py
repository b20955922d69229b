"""Unit tests for CRL / OCSP revocation infrastructure."""

import random

import pytest

from repro.x509.ca import CertificateAuthority
from repro.x509.errors import SignatureError
from repro.x509.revocation import (
    CertStatus,
    OCSPResponse,
    RevocationAuthority,
    RevocationChecker,
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


@pytest.fixture(scope="module")
def checker(ca):
    return RevocationChecker({ca.name: ca.signing_key.public})


class TestOCSP:
    def test_good_status(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("good.example", now=NOW)
        authority.register(leaf)
        response = authority.ocsp_response(leaf, at=NOW)
        assert checker.check_staple(leaf, response, at=NOW) == \
            CertStatus.GOOD

    def test_revoked_status(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("bad.example", now=NOW)
        authority.revoke(leaf, at=NOW, reason=RevocationReason.KEY_COMPROMISE)
        response = authority.ocsp_response(leaf, at=NOW)
        assert checker.check_staple(leaf, response, at=NOW) == \
            CertStatus.REVOKED
        assert authority.is_revoked(leaf)

    def test_unknown_serial(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("stranger.example", now=NOW)
        response = authority.ocsp_response(leaf, at=NOW)
        assert checker.check_staple(leaf, response, at=NOW) == \
            CertStatus.UNKNOWN

    def test_forged_staple_raises(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("forge.example", now=NOW)
        authority.register(leaf)
        response = authority.ocsp_response(leaf, at=NOW)
        forged = type(response)(
            responder_name=response.responder_name, serial=response.serial,
            status=CertStatus.GOOD, produced_at=response.produced_at,
            next_update=response.next_update,
            signature=bytes(64))
        with pytest.raises(SignatureError):
            checker.check_staple(leaf, forged, at=NOW)

    def test_stale_staple_soft_fails(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("stale.example", now=NOW)
        authority.register(leaf)
        response = authority.ocsp_response(leaf, at=NOW)
        late = NOW + RevocationAuthority.OCSP_VALIDITY + DAY
        assert checker.check_staple(leaf, response, at=late) == \
            CertStatus.UNKNOWN

    def test_mismatched_serial_soft_fails(self, ca, authority, checker):
        leaf_a, _ = ca.issue_leaf("a.example", now=NOW)
        leaf_b, _ = ca.issue_leaf("b.example", now=NOW)
        authority.register(leaf_a)
        response = authority.ocsp_response(leaf_a, at=NOW)
        assert checker.check_staple(leaf_b, response, at=NOW) == \
            CertStatus.UNKNOWN

    def test_untrusted_responder_soft_fails(self, ca, authority):
        leaf, _ = ca.issue_leaf("nobody.example", now=NOW)
        authority.register(leaf)
        response = authority.ocsp_response(leaf, at=NOW)
        empty = RevocationChecker({})
        assert empty.check_staple(leaf, response, at=NOW) == \
            CertStatus.UNKNOWN


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


class TestCRL:
    def test_crl_roundtrip(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("crl.example", now=NOW)
        authority.revoke(leaf, at=NOW)
        crl = authority.issue_crl(at=NOW)
        assert checker.check_crl(leaf, crl, at=NOW) == CertStatus.REVOKED

    def test_crl_good_for_unrevoked(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("fine.example", now=NOW)
        crl = authority.issue_crl(at=NOW)
        assert checker.check_crl(leaf, crl, at=NOW) == CertStatus.GOOD

    def test_tampered_crl_raises(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("evil.example", now=NOW)
        authority.revoke(leaf, at=NOW)
        crl = authority.issue_crl(at=NOW)
        crl.entries = ()  # attacker removes the revocation
        with pytest.raises(SignatureError):
            checker.check_crl(leaf, crl, at=NOW)

    def test_stale_crl_soft_fails(self, ca, authority, checker):
        leaf, _ = ca.issue_leaf("oldcrl.example", now=NOW)
        crl = authority.issue_crl(at=NOW)
        late = NOW + RevocationAuthority.CRL_VALIDITY + DAY
        assert checker.check_crl(leaf, crl, at=late) == CertStatus.UNKNOWN

    def test_crl_entries_sorted(self, ca, authority):
        crl = authority.issue_crl(at=NOW)
        serials = [entry.serial for entry in crl.entries]
        assert serials == sorted(serials)
