"""Core entities of the crowdsourced dataset."""

from dataclasses import dataclass, field

from repro.libraries.base import fingerprint_key
from repro.schema import versioned
from repro.tlslib.versions import TLSVersion


@dataclass(frozen=True)
class Vendor:
    """A device vendor (manufacturer brand).

    Attributes:
        name: brand name as it appears in the study (Table 13).
        index: the paper's vendor index in Figure 1.
    """

    name: str
    index: int

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class DeviceType:
    """A product line of one vendor (e.g. Amazon "Echo")."""

    vendor: str
    name: str
    category: str = "other"

    @property
    def full_name(self):
        return f"{self.vendor} {self.name}"


@dataclass(frozen=True)
class TLSStack:
    """One TLS client configuration installed on a device.

    A device carries several stacks: the vendor's base stack, possibly a
    device-type or firmware-specific stack, and one stack per installed
    application/SDK.  Which stack speaks depends on the destination.

    Attributes:
        name: human-readable identifier (for debugging/provenance).
        tls_version: proposed protocol version.
        ciphersuites / extensions: ordered wire codes.
        origin_library: full name of the known library this stack was
            derived from (provenance; the analysis never sees this —
            recovering it is exactly the fingerprint-matching problem).
        mutation: short description of how it deviates from the origin
            (``"exact"``, ``"extensions"``, ``"reorder"``, ``"component"``,
            ``"custom"``), aligned with the semantics-aware categories of
            Appendix B.2.
    """

    name: str
    tls_version: TLSVersion
    ciphersuites: tuple
    extensions: tuple
    origin_library: str = None
    mutation: str = "custom"

    def fingerprint(self):
        """The study's 3-tuple fingerprint key."""
        return fingerprint_key(self.tls_version, self.ciphersuites,
                               self.extensions)


@dataclass
class Device:
    """A single physical device instance in some user's home."""

    device_id: str
    vendor: str
    device_type: str
    user_id: str
    label: str = ""
    stacks: dict = field(default_factory=dict)
    #: destination SLD → stack key in ``stacks`` (application routing).
    routing: dict = field(default_factory=dict)
    #: stack key used when no route matches.
    default_stack: str = "base"


@dataclass(frozen=True)
class User:
    """A crowdsourcing participant (one home network)."""

    user_id: str
    region: str = "us"


@dataclass(frozen=True)
class ClientHelloRecord:
    """One observed ClientHello, in IoT Inspector's schema.

    IoT Inspector deliberately does not keep the full payload; it records
    the TLS version, ciphersuites, extension *types*, and SNI, plus the
    device/user attribution added by the labeling pipeline.
    """

    device_id: str
    vendor: str
    device_type: str
    user_id: str
    timestamp: int
    tls_version: TLSVersion
    ciphersuites: tuple
    extensions: tuple
    sni: str = None

    def fingerprint(self):
        """The study's 3-tuple fingerprint key."""
        return fingerprint_key(self.tls_version, self.ciphersuites,
                               self.extensions)

    def to_json(self):
        """The anonymized-capture JSONL row (IoT Inspector's schema)."""
        return versioned({
            "device_id": self.device_id,
            "vendor": self.vendor,
            "device_type": self.device_type,
            "user_id": self.user_id,
            "timestamp": self.timestamp,
            "tls_version": int(self.tls_version),
            "ciphersuites": list(self.ciphersuites),
            "extensions": list(self.extensions),
            "sni": self.sni,
        })

    @classmethod
    def from_json(cls, data):
        """Rebuild a record from its :meth:`to_json` row.

        A row that is not an object, lacks a field, or holds a value of
        the wrong type raises a one-line ``ValueError`` naming the field.
        """
        if not isinstance(data, dict):
            raise ValueError("capture row is not a JSON object")
        sni = data.get("sni")
        if sni is not None and not isinstance(sni, str):
            raise ValueError("capture row field 'sni' is not a string")
        return cls(
            device_id=_row_field(data, "device_id", str),
            vendor=_row_field(data, "vendor", str),
            device_type=_row_field(data, "device_type", str),
            user_id=_row_field(data, "user_id", str),
            timestamp=_row_field(data, "timestamp", int),
            tls_version=TLSVersion(_row_field(data, "tls_version", int)),
            ciphersuites=_row_codes(data, "ciphersuites"),
            extensions=_row_codes(data, "extensions"),
            sni=sni,
        )


def _row_field(data, name, kind):
    """``data[name]``, which must be a ``kind`` (never a bool)."""
    if name not in data:
        raise ValueError(f"capture row has no {name!r} field")
    value = data[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        what = {str: "a string", int: "an integer", list: "a list"}[kind]
        raise ValueError(f"capture row field {name!r} is not {what}")
    return value


def _row_codes(data, name):
    """``data[name]`` as a tuple of wire codes (a list of integers)."""
    codes = _row_field(data, name, list)
    if not all(isinstance(code, int) and not isinstance(code, bool)
               for code in codes):
        raise ValueError(f"capture row field {name!r} holds a value "
                         f"that is not an integer")
    return tuple(codes)
