"""Unit tests for the DER codec."""

import pytest

from repro.x509 import asn1
from repro.x509.certificate import Certificate
from repro.x509.errors import DERDecodeError


class TestIntegers:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 256, -1, -128,
                                       -129, 2 ** 64, -(2 ** 64),
                                       2 ** 512 + 12345])
    def test_roundtrip(self, value):
        assert asn1.decode(asn1.encode_integer(value)).as_integer() == value

    def test_minimal_encoding_enforced(self):
        # 0x00 0x7F is a non-minimal encoding of 127.
        blob = bytes([asn1.Tag.INTEGER, 2, 0x00, 0x7F])
        with pytest.raises(DERDecodeError):
            asn1.decode(blob).as_integer()

    def test_empty_integer_rejected(self):
        blob = bytes([asn1.Tag.INTEGER, 0])
        with pytest.raises(DERDecodeError):
            asn1.decode(blob).as_integer()

    def test_positive_high_bit_padded(self):
        # 128 must encode as 00 80 (leading zero keeps it positive).
        assert asn1.encode_integer(128) == bytes([asn1.Tag.INTEGER, 2,
                                                  0x00, 0x80])


class TestOIDs:
    @pytest.mark.parametrize("oid", [
        "2.5.4.3", "1.2.840.113549.1.1.11", "2.5.29.17", "0.9.2342",
        "1.3.6.1.4.1.11129.2.4.2",
    ])
    def test_roundtrip(self, oid):
        assert asn1.decode(asn1.encode_oid(oid)).as_oid() == oid

    def test_invalid_oid_rejected(self):
        with pytest.raises(ValueError):
            asn1.encode_oid("3.1.2")
        with pytest.raises(ValueError):
            asn1.encode_oid("5")

    def test_truncated_multibyte_arc(self):
        blob = bytes([asn1.Tag.OID, 2, 0x55, 0x81])  # dangling continuation
        with pytest.raises(DERDecodeError):
            asn1.decode(blob).as_oid()


class TestStringsAndBytes:
    def test_octet_string_roundtrip(self):
        data = bytes(range(256))
        assert asn1.decode(
            asn1.encode_octet_string(data)).as_octet_string() == data

    def test_bit_string_roundtrip(self):
        data = b"\xDE\xAD\xBE\xEF"
        assert asn1.decode(
            asn1.encode_bit_string(data)).as_bit_string() == data

    def test_utf8_roundtrip(self):
        text = "Tuya 智能 — ümlauts"
        assert asn1.decode(asn1.encode_utf8(text)).as_text() == text

    def test_printable_roundtrip(self):
        assert asn1.decode(asn1.encode_printable("US")).as_text() == "US"

    def test_boolean_roundtrip(self):
        assert asn1.decode(asn1.encode_boolean(True)).as_boolean() is True
        assert asn1.decode(asn1.encode_boolean(False)).as_boolean() is False

    def test_type_mismatch_raises(self):
        node = asn1.decode(asn1.encode_integer(5))
        with pytest.raises(DERDecodeError):
            node.as_octet_string()


class TestTimes:
    def test_utc_time_roundtrip(self):
        # 2022-04-15 00:00:00 UTC
        stamp = 1_649_980_800
        assert asn1.decode(asn1.encode_utc_time(stamp)).as_time() == stamp

    def test_generalized_time_roundtrip(self):
        stamp = 4_102_444_800  # 2100-01-01 — beyond UTCTime's range
        node = asn1.decode(asn1.encode_generalized_time(stamp))
        assert node.as_time() == stamp

    def test_encode_time_picks_generalized_after_2050(self):
        stamp = 4_102_444_800
        assert asn1.encode_time(stamp)[0] == asn1.Tag.GENERALIZED_TIME

    def test_encode_time_picks_utc_before_2050(self):
        stamp = 1_649_980_800
        assert asn1.encode_time(stamp)[0] == asn1.Tag.UTC_TIME

    def test_malformed_time_rejected(self):
        blob = asn1.encode_tlv(asn1.Tag.UTC_TIME, b"20220101")
        with pytest.raises(DERDecodeError):
            asn1.decode(blob).as_time()


class TestStructures:
    def test_sequence_children(self):
        blob = asn1.encode_sequence(asn1.encode_integer(1),
                                    asn1.encode_utf8("x"))
        node = asn1.decode(blob)
        assert len(node) == 2
        assert node[0].as_integer() == 1
        assert node[1].as_text() == "x"

    def test_nested_sequences(self):
        inner = asn1.encode_sequence(asn1.encode_integer(7))
        outer = asn1.encode_sequence(inner, inner)
        node = asn1.decode(outer)
        assert node[0][0].as_integer() == 7
        assert node[1][0].as_integer() == 7

    def test_set_members_sorted(self):
        a, b = asn1.encode_integer(2), asn1.encode_integer(1)
        assert asn1.encode_set(a, b) == asn1.encode_set(b, a)

    def test_context_tag(self):
        blob = asn1.encode_context(3, asn1.encode_integer(9))
        node = asn1.decode(blob)
        assert node.tag == asn1.Tag.context(3)
        assert node[0].as_integer() == 9

    def test_long_form_length(self):
        payload = b"z" * 300
        node = asn1.decode(asn1.encode_octet_string(payload))
        assert node.as_octet_string() == payload

    def test_trailing_bytes_rejected(self):
        with pytest.raises(DERDecodeError):
            asn1.decode(asn1.encode_integer(1) + b"\x00")

    def test_decode_all(self):
        blob = asn1.encode_integer(1) + asn1.encode_integer(2)
        values = asn1.decode_all(blob)
        assert [v.as_integer() for v in values] == [1, 2]

    def test_non_minimal_length_rejected(self):
        # long-form length used for a short value
        blob = bytes([asn1.Tag.OCTET_STRING, 0x81, 0x01, 0x00])
        with pytest.raises(DERDecodeError):
            asn1.decode(blob)

    def test_content_past_end_rejected(self):
        blob = bytes([asn1.Tag.OCTET_STRING, 5, 1, 2])
        with pytest.raises(DERDecodeError):
            asn1.decode(blob)


def _nested_sequences(depth):
    """``depth`` SEQUENCEs, each wrapping the next, around nothing."""
    blob = b""
    for _ in range(depth):
        blob = asn1.encode_sequence(blob)
    return blob


class TestNestingDepth:
    @pytest.mark.parametrize("entry_point", [
        pytest.param(asn1.decode, id="asn1.decode"),
        pytest.param(Certificate.from_der, id="Certificate.from_der"),
    ])
    def test_deep_nesting_is_a_decode_error(self, entry_point):
        # 1,200 nested SEQUENCEs used to exhaust the interpreter stack
        # (RecursionError) instead of failing with the codec's error.
        with pytest.raises(DERDecodeError, match="nested deeper"):
            entry_point(_nested_sequences(1200))

    def test_nesting_up_to_the_cap_decodes(self):
        node = asn1.decode(_nested_sequences(asn1.MAX_DEPTH))
        for _ in range(asn1.MAX_DEPTH - 1):
            node = node[0]
        assert node.tag == asn1.Tag.SEQUENCE and not node.children

    def test_one_past_the_cap_rejected(self):
        with pytest.raises(DERDecodeError, match="nested deeper"):
            asn1.decode(_nested_sequences(asn1.MAX_DEPTH + 1))
        with pytest.raises(DERDecodeError, match="nested deeper"):
            asn1.decode_all(_nested_sequences(asn1.MAX_DEPTH + 1))
