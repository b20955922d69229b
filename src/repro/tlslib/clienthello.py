"""ClientHello model with real wire encoding and parsing.

The model carries exactly the fields the paper's pipeline consumes — the
protocol version, ordered ciphersuite codes, ordered extension type codes,
and the SNI host name — and can round-trip itself through the RFC 5246
handshake wire format.  The simulated Internet in :mod:`repro.probing`
exchanges these bytes so the measurement pipeline is fed by the same
parse path a live capture would use.

:func:`captured_fields` states what that round trip yields without
running it: the world generator builds each of its capture records from
it, and a test holds it equal to ``from_bytes(to_bytes())`` over every
record of several seeds' worlds.
"""

import os
import struct
from dataclasses import dataclass, field

from repro.tlslib.errors import TLSParseError
from repro.tlslib.extensions import ExtensionType
from repro.tlslib.grease import contains_grease, strip_grease
from repro.tlslib.versions import TLSVersion

_HANDSHAKE_CLIENT_HELLO = 0x01


def _encode_vector(payload, length_bytes):
    """Encode an opaque vector with an N-byte length prefix."""
    if len(payload) >= 1 << (8 * length_bytes):
        raise ValueError("vector payload too long")
    return len(payload).to_bytes(length_bytes, "big") + payload


def with_server_name(extensions, sni):
    """The extension list a hello for ``sni`` carries: ``server_name`` is
    prepended when an SNI is set and ``extensions`` lacks it."""
    if sni is not None and ExtensionType.SERVER_NAME not in extensions:
        return [int(ExtensionType.SERVER_NAME), *extensions]
    return extensions


def _host_bytes(sni):
    """The ``server_name`` host: ASCII, or IDNA when ``sni`` is not ASCII."""
    return sni.encode("ascii") if sni.isascii() else sni.encode("idna")


def captured_fields(version, ciphersuites, extensions, sni):
    """``(version, suites, extensions, sni)`` as parsing the wire bytes
    of a hello with these fields gives them back, without encoding.

    The suites and extensions come back as tuples, the extensions with
    ``server_name`` prepended as in :func:`with_server_name`, and a
    non-ASCII SNI in its IDNA form.
    """
    host = None if sni is None else _host_bytes(sni).decode("ascii")
    return (TLSVersion(version), tuple(ciphersuites),
            tuple(with_server_name(extensions, sni)), host)


class _Reader:
    """Bounded cursor over immutable bytes; raises TLSParseError on underrun."""

    def __init__(self, data):
        self._data = data
        self._pos = 0

    @property
    def remaining(self):
        return len(self._data) - self._pos

    def take(self, count):
        if count > self.remaining:
            raise TLSParseError(
                f"truncated message: wanted {count} bytes, have {self.remaining}")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def uint(self, width):
        return int.from_bytes(self.take(width), "big")

    def vector(self, length_bytes):
        return self.take(self.uint(length_bytes))


@dataclass
class ClientHello:
    """A TLS ClientHello handshake message.

    Attributes:
        version: the client's proposed protocol version.
        ciphersuites: ordered wire codes, possibly including SCSVs/GREASE.
        extensions: ordered extension type codes (bodies are synthesized on
            encode; only the type list is semantically meaningful here,
            matching what IoT Inspector collects).
        sni: host name carried in the ``server_name`` extension, if any.
        random: 32-byte client random (generated when omitted).
        session_id: legacy session id (usually empty).
    """

    version: TLSVersion
    ciphersuites: list
    extensions: list = field(default_factory=list)
    sni: str = None
    random: bytes = None
    session_id: bytes = b""

    def __post_init__(self):
        if self.random is None:
            self.random = os.urandom(32)
        if len(self.random) != 32:
            raise ValueError("client random must be exactly 32 bytes")
        if self.sni is not None and ExtensionType.SERVER_NAME not in self.extensions:
            self.extensions = with_server_name(self.extensions, self.sni)

    # --- fingerprint-facing accessors ---------------------------------------

    @property
    def uses_grease_suites(self):
        return contains_grease(self.ciphersuites)

    @property
    def uses_grease_extensions(self):
        return contains_grease(self.extensions)

    def suites_without_grease(self):
        return strip_grease(self.ciphersuites)

    def extensions_without_grease(self):
        return strip_grease(self.extensions)

    # --- wire format --------------------------------------------------------

    def _extension_body(self, ext_type):
        """Produce a plausible body for an extension type.

        Only ``server_name`` carries analysis-relevant content; other bodies
        are minimal valid placeholders so that encoded hellos parse cleanly.
        """
        if ext_type == ExtensionType.SERVER_NAME and self.sni is not None:
            entry = b"\x00" + _encode_vector(_host_bytes(self.sni), 2)
            return _encode_vector(entry, 2)
        if ext_type == ExtensionType.SUPPORTED_VERSIONS:
            return _encode_vector(struct.pack(">H", int(self.version)), 1)
        return b""

    def to_bytes(self):
        """Encode as a handshake message (type + 3-byte length + body)."""
        body = struct.pack(">H", int(self.version))
        body += self.random
        body += _encode_vector(self.session_id, 1)
        suites = b"".join(struct.pack(">H", code) for code in self.ciphersuites)
        body += _encode_vector(suites, 2)
        body += _encode_vector(b"\x00", 1)  # compression: null only
        if self.extensions:
            blob = b"".join(
                struct.pack(">H", ext) + _encode_vector(self._extension_body(ext), 2)
                for ext in self.extensions
            )
            body += _encode_vector(blob, 2)
        return bytes([_HANDSHAKE_CLIENT_HELLO]) + len(body).to_bytes(3, "big") + body

    @classmethod
    def from_bytes(cls, data):
        """Parse a handshake message produced by :meth:`to_bytes`."""
        reader = _Reader(data)
        if reader.uint(1) != _HANDSHAKE_CLIENT_HELLO:
            raise TLSParseError("not a ClientHello handshake message")
        body = _Reader(reader.vector(3))
        try:
            version = TLSVersion(body.uint(2))
        except ValueError as exc:
            raise TLSParseError(f"unsupported protocol version: {exc}") from exc
        random = body.take(32)
        session_id = body.vector(1)
        suite_blob = body.vector(2)
        if len(suite_blob) % 2:
            raise TLSParseError("odd ciphersuite vector length")
        suites = [
            int.from_bytes(suite_blob[i:i + 2], "big")
            for i in range(0, len(suite_blob), 2)
        ]
        compression = body.vector(1)
        if b"\x00" not in compression:
            raise TLSParseError("client offers no null compression")
        extensions, sni = [], None
        if body.remaining:
            ext_blob = _Reader(body.vector(2))
            while ext_blob.remaining:
                ext_type = ext_blob.uint(2)
                ext_body = ext_blob.vector(2)
                extensions.append(ext_type)
                if ext_type == ExtensionType.SERVER_NAME and ext_body:
                    sni = cls._parse_sni(ext_body)
        return cls(version=version, ciphersuites=suites, extensions=extensions,
                   sni=sni, random=random, session_id=session_id)

    @staticmethod
    def _parse_sni(body):
        reader = _Reader(body)
        entries = _Reader(reader.vector(2))
        while entries.remaining:
            name_type = entries.uint(1)
            name = entries.vector(2)
            if name_type == 0:  # host_name
                try:
                    return name.decode("ascii")
                except UnicodeDecodeError as exc:
                    raise TLSParseError("non-ASCII SNI host name") from exc
        return None
