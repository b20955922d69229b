"""Unit tests for certificate construction, DER round-trip, semantics."""

import dataclasses
import hashlib
import pickle
import random

import pytest

from repro.x509 import asn1
from repro.x509.certificate import (OID_SHA256_WITH_RSA, Certificate,
                                    sign_certificate)
from repro.x509.errors import DERDecodeError, SignatureError
from repro.x509.keys import generate_keypair
from repro.x509.names import DistinguishedName

NOW = 1_650_000_000
DAY = 86_400


@pytest.fixture(scope="module")
def issuer_key():
    return generate_keypair(512, rng=random.Random(11))


@pytest.fixture(scope="module")
def subject_key():
    return generate_keypair(512, rng=random.Random(12))


@pytest.fixture(scope="module")
def leaf(issuer_key, subject_key):
    return sign_certificate(
        serial=42,
        subject=DistinguishedName(common_name="api.vendor.com",
                                  organization="Vendor"),
        issuer=DistinguishedName(common_name="Trusty CA",
                                 organization="Trusty"),
        issuer_keypair=issuer_key,
        not_before=NOW, not_after=NOW + 397 * DAY,
        public_key=subject_key.public,
        san_dns_names=("api.vendor.com", "www.vendor.com"))


class TestRoundTrip:
    def test_der_roundtrip_fields(self, leaf):
        parsed = Certificate.from_der(leaf.to_der())
        assert parsed.serial == 42
        assert parsed.subject == leaf.subject
        assert parsed.issuer == leaf.issuer
        assert parsed.not_before == NOW
        assert parsed.not_after == NOW + 397 * DAY
        assert parsed.san_dns_names == ("api.vendor.com", "www.vendor.com")
        assert parsed.is_ca is False
        assert parsed.public_key == leaf.public_key

    def test_der_roundtrip_is_byte_stable(self, leaf):
        assert Certificate.from_der(leaf.to_der()).to_der() == leaf.to_der()

    def test_signature_survives_roundtrip(self, leaf, issuer_key):
        parsed = Certificate.from_der(leaf.to_der())
        parsed.verify_signature(issuer_key.public)  # no exception

    def test_fingerprint_stable_and_unique(self, leaf, issuer_key,
                                           subject_key):
        assert leaf.fingerprint() == leaf.fingerprint()
        other = sign_certificate(
            serial=43, subject=leaf.subject, issuer=leaf.issuer,
            issuer_keypair=issuer_key, not_before=NOW,
            not_after=NOW + DAY, public_key=subject_key.public)
        assert other.fingerprint() != leaf.fingerprint()

    def test_garbage_rejected(self):
        with pytest.raises(DERDecodeError):
            Certificate.from_der(b"\x30\x03\x02\x01\x05")


def _empty_tbs(_der):
    return asn1.encode_sequence(asn1.encode_sequence(), asn1.encode_sequence(),
                                asn1.encode_bit_string(b"sig"))


def _bad_utc_year(der):
    at = der.index(b"\x17\x0d") + 2  # the first UTCTime's "YY"
    return der[:at] + b"xx" + der[at + 2:]


class TestMalformedStructure:
    """Well-formed DER that is not a well-formed certificate."""

    @pytest.mark.parametrize("mutate", [
        _empty_tbs,
        lambda der: der.replace(b"\x55\x04\x03", b"\x55\x04\x07"),
        lambda der: der.replace(b"www.vendor.com", b"\xffww.vendor.com"),
        _bad_utc_year,
    ], ids=["empty-tbs", "name-without-cn", "non-ascii-san",
            "non-digit-year"])
    def test_raises_der_decode_error(self, leaf, mutate):
        with pytest.raises(DERDecodeError):
            Certificate.from_der(mutate(leaf.to_der()))


class TestSemantics:
    def test_validity_days(self, leaf):
        assert leaf.validity_days == pytest.approx(397)

    def test_time_validity(self, leaf):
        assert leaf.is_time_valid(NOW + DAY)
        assert leaf.is_expired(NOW + 398 * DAY)
        assert leaf.is_not_yet_valid(NOW - DAY)
        assert not leaf.is_expired(NOW + DAY)

    def test_host_coverage_uses_san(self, leaf):
        assert leaf.covers_host("www.vendor.com")
        assert not leaf.covers_host("other.vendor.com")

    def test_not_self_issued(self, leaf):
        assert not leaf.is_self_issued
        assert not leaf.is_self_signed()

    def test_self_signed(self, issuer_key):
        subject = DistinguishedName(common_name="self.example")
        cert = sign_certificate(
            serial=1, subject=subject, issuer=subject,
            issuer_keypair=issuer_key, not_before=NOW,
            not_after=NOW + DAY, public_key=issuer_key.public)
        assert cert.is_self_issued
        assert cert.is_self_signed()

    def test_self_issued_but_not_self_signed(self, issuer_key, subject_key):
        # Same subject/issuer name, but signed by a DIFFERENT key.
        subject = DistinguishedName(common_name="fake.example")
        cert = sign_certificate(
            serial=1, subject=subject, issuer=subject,
            issuer_keypair=issuer_key, not_before=NOW,
            not_after=NOW + DAY, public_key=subject_key.public)
        assert cert.is_self_issued
        assert not cert.is_self_signed()

    def test_verify_wrong_issuer_raises(self, leaf, subject_key):
        with pytest.raises(SignatureError):
            leaf.verify_signature(subject_key.public)

    def test_tampered_der_fails_verification(self, leaf, issuer_key):
        der = bytearray(leaf.to_der())
        index = der.find(b"api.vendor.com")
        der[index] ^= 0x01
        tampered = Certificate.from_der(bytes(der))
        with pytest.raises(SignatureError):
            tampered.verify_signature(issuer_key.public)

    def test_ca_flag_roundtrip(self, issuer_key):
        subject = DistinguishedName(common_name="Mini Root")
        cert = sign_certificate(
            serial=1, subject=subject, issuer=subject,
            issuer_keypair=issuer_key, not_before=NOW,
            not_after=NOW + DAY, public_key=issuer_key.public, is_ca=True)
        assert Certificate.from_der(cert.to_der()).is_ca

    def test_century_long_validity_roundtrip(self, issuer_key, subject_key):
        # Tuya signs 36,500-day (100-year) certificates; the not-after
        # lands past 2050 and must use GeneralizedTime.
        cert = sign_certificate(
            serial=9, subject=DistinguishedName(common_name="*.tuyaus.com"),
            issuer=DistinguishedName(common_name="Tuya Root CA"),
            issuer_keypair=issuer_key, not_before=NOW,
            not_after=NOW + 36_500 * DAY, public_key=subject_key.public)
        parsed = Certificate.from_der(cert.to_der())
        assert parsed.validity_days == pytest.approx(36_500)


def _fresh_der(certificate):
    """The certificate's DER, encoded from its fields on every call."""
    return asn1.encode_sequence(
        certificate.tbs_der,
        asn1.encode_sequence(asn1.encode_oid(OID_SHA256_WITH_RSA),
                             asn1.encode_null()),
        asn1.encode_bit_string(certificate.signature))


def _fresh_name_der(name):
    rdns = [asn1.encode_set(asn1.encode_sequence(
                asn1.encode_oid(oid), asn1.encode_utf8(value)))
            for oid, value in (("2.5.4.6", name.country),
                               ("2.5.4.10", name.organization),
                               ("2.5.4.3", name.common_name))
            if value is not None]
    return asn1.encode_sequence(*rdns)


class TestEncodedOnce:
    """DER and fingerprint are cached on the object, outside its fields
    and its pickled state."""

    def test_cached_der_equals_a_fresh_encoding(self, leaf):
        assert leaf.to_der() == _fresh_der(leaf)
        assert leaf.to_der() is leaf.to_der()
        assert leaf.fingerprint() == \
            hashlib.sha256(_fresh_der(leaf)).hexdigest()
        for name in (leaf.subject, leaf.issuer,
                     DistinguishedName(common_name="bare")):
            assert name.to_der() == _fresh_name_der(name)

    def test_decoded_certificate_encodes_like_the_original(self, leaf):
        decoded = Certificate.from_der(leaf.to_der())
        assert decoded.to_der() == _fresh_der(decoded) == leaf.to_der()

    def test_cache_is_not_a_field(self, leaf):
        leaf.fingerprint()
        leaf.subject.to_der()
        for value in (leaf, leaf.subject):
            names = {field.name for field in dataclasses.fields(value)}
            assert not {"_der", "_fingerprint"} & names
        copy = dataclasses.replace(leaf)
        assert copy == leaf and hash(copy) == hash(leaf)

    def test_cache_is_not_pickled(self, issuer_key, subject_key):
        def build():
            return sign_certificate(
                serial=7, subject=DistinguishedName(common_name="a.example"),
                issuer=DistinguishedName(common_name="CA", organization="O"),
                issuer_keypair=issuer_key, not_before=NOW,
                not_after=NOW + DAY, public_key=subject_key.public)
        untouched, used = build(), build()
        used.fingerprint()
        used.subject.to_der()
        assert "_der" in vars(used) and "_der" in vars(used.subject)
        blob = pickle.dumps(used)
        assert blob == pickle.dumps(untouched)
        clone = pickle.loads(blob)
        for value in (clone, clone.subject, clone.issuer):
            assert not {"_der", "_fingerprint"} & set(vars(value))
        assert clone == used
        assert clone.fingerprint() == used.fingerprint()
