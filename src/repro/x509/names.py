"""Distinguished names and RFC 6125-style host-name matching.

The paper's "Common Name mismatch" finding (Section 5.3, the
``a2.tuyaus.com`` case) depends on correct host matching against the
subject CN and the SAN extension, including wildcard semantics.
"""

from dataclasses import dataclass
from functools import cached_property

from repro.x509 import asn1

#: OIDs for the DN attributes we emit.
OID_COMMON_NAME = "2.5.4.3"
OID_ORGANIZATION = "2.5.4.10"
OID_COUNTRY = "2.5.4.6"

_ATTRIBUTE_ORDER = (
    (OID_COUNTRY, "country"),
    (OID_ORGANIZATION, "organization"),
    (OID_COMMON_NAME, "common_name"),
)


@dataclass(frozen=True)
class DistinguishedName:
    """An X.500 name reduced to the attributes the analysis consumes.

    The encoding is computed once per object, in a cached property that
    is neither a field nor part of the pickled state (as for
    :class:`~repro.x509.certificate.Certificate`).
    """

    common_name: str
    organization: str = None
    country: str = None

    def to_der(self):
        """Encode as an RDNSequence."""
        return self._der

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_der", None)
        return state

    @cached_property
    def _der(self):
        rdns = []
        for oid, attr in _ATTRIBUTE_ORDER:
            value = getattr(self, attr)
            if value is None:
                continue
            attribute = asn1.encode_sequence(
                asn1.encode_oid(oid), asn1.encode_utf8(value))
            rdns.append(asn1.encode_set(attribute))
        return asn1.encode_sequence(*rdns)

    @classmethod
    def from_asn1(cls, node):
        """Decode from a parsed RDNSequence node."""
        values = {}
        for rdn in node:
            for attribute in rdn:
                oid = attribute[0].as_oid()
                text = attribute[1].as_text()
                for known_oid, attr in _ATTRIBUTE_ORDER:
                    if oid == known_oid:
                        values[attr] = text
        if "common_name" not in values:
            raise ValueError("distinguished name lacks a common name")
        return cls(**values)

    def __str__(self):
        parts = []
        if self.country:
            parts.append(f"C={self.country}")
        if self.organization:
            parts.append(f"O={self.organization}")
        parts.append(f"CN={self.common_name}")
        return ", ".join(parts)


def _is_valid_label(label):
    return bool(label) and all(c.isalnum() or c in "-_" for c in label)


def hostname_matches(pattern, hostname):
    """RFC 6125-style match of ``hostname`` against a certificate ``pattern``.

    Rules implemented:
    - comparison is case-insensitive on ASCII letters;
    - a wildcard may appear only as the complete leftmost label
      (``*.example.com``); partial wildcards (``f*.example.com``) are
      rejected, as modern validators do;
    - the wildcard matches exactly one label (``*.example.com`` does not
      match ``a.b.example.com`` nor the bare ``example.com``);
    - wildcards never match across a public-suffix-like boundary: the
      pattern must retain at least two literal labels.
    """
    if not pattern or not hostname:
        return False
    pattern = pattern.lower().rstrip(".")
    hostname = hostname.lower().rstrip(".")
    if "*" not in pattern:
        return pattern == hostname
    pattern_labels = pattern.split(".")
    host_labels = hostname.split(".")
    if pattern_labels[0] != "*":
        return False  # partial-label wildcards rejected
    if "*" in "".join(pattern_labels[1:]):
        return False  # wildcard allowed only in the leftmost label
    if len(pattern_labels) < 3:
        return False  # e.g. "*.com" — too broad
    if len(host_labels) != len(pattern_labels):
        return False
    if not _is_valid_label(host_labels[0]):
        return False
    return host_labels[1:] == pattern_labels[1:]


def certificate_covers_host(common_name, san_dns_names, hostname):
    """Decide whether a certificate's names cover ``hostname``.

    Mirrors common validator behaviour: when a SAN extension with DNS names
    is present it is authoritative and the CN is ignored; otherwise the CN
    is consulted as a fallback.
    """
    if san_dns_names:
        return any(hostname_matches(name, hostname) for name in san_dns_names)
    if common_name:
        return hostname_matches(common_name, hostname)
    return False


def second_level_domain(fqdn):
    """Return the registrable second-level domain of ``fqdn``.

    Uses a small embedded list of multi-part public suffixes sufficient for
    the domains in the study (e.g. ``co.kr`` for ``pavv.co.kr``).
    """
    labels = fqdn.lower().rstrip(".").split(".")
    if len(labels) < 2:
        return fqdn.lower()
    two_part_suffixes = {"co.kr", "co.uk", "co.jp", "com.cn", "com.au", "org.uk"}
    suffix = ".".join(labels[-2:])
    if suffix in two_part_suffixes and len(labels) >= 3:
        return ".".join(labels[-3:])
    return suffix
