"""A small, real DER (ASN.1 Distinguished Encoding Rules) codec.

Supports the universal types needed by our X.509-like certificates —
INTEGER, BOOLEAN, NULL, OCTET STRING, BIT STRING, OBJECT IDENTIFIER,
UTF8String, PrintableString, UTCTime, GeneralizedTime, SEQUENCE, SET —
plus context-specific constructed tags for extensions.

Values are represented with a tiny node model (:class:`ASN1Value`) rather
than mapping onto Python types implicitly, which keeps round-trips exact
and makes malformed input raise :class:`DERDecodeError` instead of
producing surprises.
"""

from dataclasses import dataclass

from repro.x509.errors import DERDecodeError


class Tag:
    """Universal and class tag constants."""

    BOOLEAN = 0x01
    INTEGER = 0x02
    BIT_STRING = 0x03
    OCTET_STRING = 0x04
    NULL = 0x05
    OID = 0x06
    UTF8_STRING = 0x0C
    PRINTABLE_STRING = 0x13
    UTC_TIME = 0x17
    GENERALIZED_TIME = 0x18
    SEQUENCE = 0x30
    SET = 0x31

    CONSTRUCTED = 0x20
    CONTEXT = 0x80

    @staticmethod
    def context(number, constructed=True):
        """Build a context-specific tag byte ``[number]``."""
        tag = Tag.CONTEXT | number
        if constructed:
            tag |= Tag.CONSTRUCTED
        return tag


@dataclass(frozen=True)
class ASN1Value:
    """A decoded TLV node: ``tag``, raw ``content`` bytes, and, for
    constructed types, the list of ``children`` nodes."""

    tag: int
    content: bytes
    children: tuple = ()

    @property
    def is_constructed(self):
        return bool(self.tag & Tag.CONSTRUCTED)

    # -- typed accessors (raise DERDecodeError on tag mismatch) --------------

    def _expect(self, tag, kind):
        if self.tag != tag:
            raise DERDecodeError(
                f"expected {kind} (tag 0x{tag:02X}), got tag 0x{self.tag:02X}")

    def as_integer(self):
        self._expect(Tag.INTEGER, "INTEGER")
        return decode_integer_content(self.content)

    def as_boolean(self):
        self._expect(Tag.BOOLEAN, "BOOLEAN")
        if len(self.content) != 1:
            raise DERDecodeError("BOOLEAN content must be a single byte")
        return self.content != b"\x00"

    def as_octet_string(self):
        self._expect(Tag.OCTET_STRING, "OCTET STRING")
        return self.content

    def as_bit_string(self):
        self._expect(Tag.BIT_STRING, "BIT STRING")
        if not self.content or self.content[0] != 0:
            raise DERDecodeError("only byte-aligned BIT STRINGs are supported")
        return self.content[1:]

    def as_oid(self):
        self._expect(Tag.OID, "OBJECT IDENTIFIER")
        return decode_oid_content(self.content)

    def as_text(self):
        if self.tag not in (Tag.UTF8_STRING, Tag.PRINTABLE_STRING):
            raise DERDecodeError(f"tag 0x{self.tag:02X} is not a string type")
        try:
            return self.content.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DERDecodeError("invalid string payload") from exc

    def as_time(self):
        """Return POSIX seconds from a UTCTime/GeneralizedTime node."""
        import calendar
        text = self.content.decode("ascii", errors="replace")
        if self.tag == Tag.UTC_TIME:
            if len(text) != 13 or not text.endswith("Z"):
                raise DERDecodeError(f"malformed UTCTime: {text!r}")
            year_digits, parts = text[0:2], text[2:12]
        elif self.tag == Tag.GENERALIZED_TIME:
            if len(text) != 15 or not text.endswith("Z"):
                raise DERDecodeError(f"malformed GeneralizedTime: {text!r}")
            year_digits, parts = text[0:4], text[4:14]
        else:
            raise DERDecodeError(f"tag 0x{self.tag:02X} is not a time type")
        try:
            year = int(year_digits)
            if self.tag == Tag.UTC_TIME:
                year += 2000 if year < 50 else 1900
            month, day = int(parts[0:2]), int(parts[2:4])
            hour, minute, second = int(parts[4:6]), int(parts[6:8]), int(parts[8:10])
            return calendar.timegm((year, month, day, hour, minute, second))
        except (ValueError, OverflowError) as exc:
            raise DERDecodeError(f"invalid time fields: {text!r}") from exc

    def __iter__(self):
        return iter(self.children)

    def __len__(self):
        return len(self.children)

    def __getitem__(self, index):
        try:
            return self.children[index]
        except IndexError:
            raise DERDecodeError(
                f"tag 0x{self.tag:02X} has no member {index}") from None


# --- low-level encode helpers ------------------------------------------------

def encode_length(length):
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def encode_tlv(tag, content):
    return bytes([tag]) + encode_length(len(content)) + content


def encode_integer(value):
    if value == 0:
        return encode_tlv(Tag.INTEGER, b"\x00")
    negative = value < 0
    magnitude = value if not negative else -value
    width = (magnitude.bit_length() + 7) // 8 + 1  # room for sign bit
    body = value.to_bytes(width, "big", signed=True)
    # DER: minimal encoding — strip redundant leading bytes.
    while len(body) > 1 and (
        (body[0] == 0x00 and body[1] < 0x80)
        or (body[0] == 0xFF and body[1] >= 0x80)
    ):
        body = body[1:]
    return encode_tlv(Tag.INTEGER, body)


def encode_boolean(value):
    return encode_tlv(Tag.BOOLEAN, b"\xff" if value else b"\x00")


def encode_null():
    return encode_tlv(Tag.NULL, b"")


def encode_octet_string(data):
    return encode_tlv(Tag.OCTET_STRING, bytes(data))


def encode_bit_string(data):
    return encode_tlv(Tag.BIT_STRING, b"\x00" + bytes(data))


def encode_oid(dotted):
    arcs = [int(part) for part in dotted.split(".")]
    if len(arcs) < 2 or arcs[0] > 2 or (arcs[0] < 2 and arcs[1] >= 40):
        raise ValueError(f"invalid OID: {dotted!r}")
    body = bytearray([arcs[0] * 40 + arcs[1]])
    for arc in arcs[2:]:
        chunk = bytearray([arc & 0x7F])
        arc >>= 7
        while arc:
            chunk.insert(0, 0x80 | (arc & 0x7F))
            arc >>= 7
        body += chunk
    return encode_tlv(Tag.OID, bytes(body))


def encode_utf8(text):
    return encode_tlv(Tag.UTF8_STRING, text.encode("utf-8"))


def encode_printable(text):
    return encode_tlv(Tag.PRINTABLE_STRING, text.encode("ascii"))


def encode_utc_time(posix_seconds):
    import time as _time
    parts = _time.gmtime(posix_seconds)
    text = _time.strftime("%y%m%d%H%M%SZ", parts)
    return encode_tlv(Tag.UTC_TIME, text.encode("ascii"))


def encode_generalized_time(posix_seconds):
    import time as _time
    parts = _time.gmtime(posix_seconds)
    text = _time.strftime("%Y%m%d%H%M%SZ", parts)
    return encode_tlv(Tag.GENERALIZED_TIME, text.encode("ascii"))


def encode_time(posix_seconds):
    """X.509 rule: UTCTime for dates before 2050, GeneralizedTime after."""
    import time as _time
    year = _time.gmtime(posix_seconds).tm_year
    if year < 2050:
        return encode_utc_time(posix_seconds)
    return encode_generalized_time(posix_seconds)


def encode_sequence(*encoded_members):
    return encode_tlv(Tag.SEQUENCE, b"".join(encoded_members))


def encode_set(*encoded_members):
    # DER requires SET OF members sorted by their encodings.
    return encode_tlv(Tag.SET, b"".join(sorted(encoded_members)))


def encode_context(number, content, constructed=True):
    return encode_tlv(Tag.context(number, constructed), content)


# --- low-level decode helpers ------------------------------------------------

def decode_integer_content(content):
    if not content:
        raise DERDecodeError("empty INTEGER content")
    if len(content) > 1 and (
        (content[0] == 0x00 and content[1] < 0x80)
        or (content[0] == 0xFF and content[1] >= 0x80)
    ):
        raise DERDecodeError("non-minimal INTEGER encoding")
    return int.from_bytes(content, "big", signed=True)


def decode_oid_content(content):
    if not content:
        raise DERDecodeError("empty OID content")
    first = content[0]
    arcs = [min(first // 40, 2), first - 40 * min(first // 40, 2)]
    value = 0
    for i, byte in enumerate(content[1:], start=1):
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            arcs.append(value)
            value = 0
        elif i == len(content) - 1:
            raise DERDecodeError("truncated OID arc")
    return ".".join(str(arc) for arc in arcs)


def _read_tlv(data, offset):
    if offset >= len(data):
        raise DERDecodeError("unexpected end of input")
    tag = data[offset]
    offset += 1
    if offset >= len(data):
        raise DERDecodeError("missing length byte")
    first = data[offset]
    offset += 1
    if first < 0x80:
        length = first
    else:
        n = first & 0x7F
        if n == 0 or n > 4:
            raise DERDecodeError("unsupported length-of-length")
        if offset + n > len(data):
            raise DERDecodeError("truncated long-form length")
        length = int.from_bytes(data[offset:offset + n], "big")
        if length < 0x80:
            raise DERDecodeError("non-minimal length encoding")
        offset += n
    if offset + length > len(data):
        raise DERDecodeError("content extends past end of input")
    return tag, data[offset:offset + length], offset + length


#: deepest nesting of constructed values the decoder accepts.  Real
#: certificates nest 6 deep; the cap turns hostile nesting into a
#: DERDecodeError before it can exhaust the interpreter stack.
MAX_DEPTH = 32


def decode(data):
    """Decode a single DER value (recursively), rejecting trailing bytes."""
    value, end = _decode_at(data, 0, 0)
    if end != len(data):
        raise DERDecodeError(f"{len(data) - end} trailing bytes after DER value")
    return value


def _decode_at(data, offset, depth):
    tag, content, end = _read_tlv(data, offset)
    children = ()
    if tag & Tag.CONSTRUCTED:
        if depth >= MAX_DEPTH:
            raise DERDecodeError(
                f"constructed values nested deeper than {MAX_DEPTH}")
        kids, pos = [], 0
        while pos < len(content):
            child, pos = _decode_at(content, pos, depth + 1)
            kids.append(child)
        children = tuple(kids)
    return ASN1Value(tag=tag, content=content, children=children), end


def decode_all(data):
    """Decode a concatenation of DER values into a list."""
    values, offset = [], 0
    while offset < len(data):
        value, offset = _decode_at(data, offset, 0)
        values.append(value)
    return values
