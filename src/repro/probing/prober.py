"""The TLS prober that builds the certificate dataset.

Mirrors the paper's methodology (Section 5.1): take the SNIs extracted
from the ClientHello capture, open TLS connections to each from three
global vantage points, and record the ServerHello and certificate chain.
The prober is a real TLS client: it sends wire-encoded ClientHellos and
parses the server's flight; unreachable hosts and failed handshakes are
recorded as such.
"""

from dataclasses import dataclass, field

from repro.inspector.timeline import PROBE_TIME
from repro.probing.certdataset import CertificateDataset
from repro.probing.network import UnreachableError
from repro.probing.vantage import VANTAGE_POINTS
from repro.schema import versioned
from repro.tlslib.ciphersuites import codes_by_names
from repro.tlslib.clienthello import ClientHello
from repro.tlslib.errors import TLSError
from repro.tlslib.extensions import ExtensionType as Ext
from repro.tlslib.handshake import TLSClient
from repro.tlslib.versions import TLSVersion
from repro.x509.certificate import Certificate
from repro.x509.errors import DERDecodeError

#: The prober's own (modern, browser-like) ClientHello configuration.
_PROBE_SUITES = tuple(codes_by_names([
    "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384",
    "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384",
    "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256",
    "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
    "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA",
    "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA",
    "TLS_RSA_WITH_AES_256_CBC_SHA",
    "TLS_RSA_WITH_AES_128_CBC_SHA",
]))

_PROBE_EXTENSIONS = (
    int(Ext.SERVER_NAME),
    int(Ext.SUPPORTED_GROUPS),
    int(Ext.EC_POINT_FORMATS),
    int(Ext.SIGNATURE_ALGORITHMS),
    int(Ext.STATUS_REQUEST),
)


@dataclass
class ProbeResult:
    """Outcome of probing one SNI from one vantage point."""

    fqdn: str
    vantage: str
    reachable: bool
    chain: list = field(default_factory=list)
    negotiated_version: TLSVersion = None
    negotiated_suite: int = None
    error: str = None
    ocsp_staple: bytes = None

    @property
    def stapled(self):
        return self.ocsp_staple is not None

    @property
    def leaf(self):
        return self.chain[0] if self.chain else None

    def to_json(self, ct_logs=None):
        """The per-server summary row (the JSONL schema of ``probe``).

        Pass the world's ``ct_logs`` to include the leaf's CT presence
        the way the paper's crt.sh lookups do.
        """
        row = versioned({"fqdn": self.fqdn, "vantage": self.vantage,
                         "reachable": self.reachable})
        if self.error is not None:
            row["error"] = self.error
        if self.leaf is None:
            return row
        leaf = self.leaf
        row.update({
            "issuer": leaf.issuer.organization or leaf.issuer.common_name,
            "validity_days": round(leaf.validity_days, 1),
            "not_after": int(leaf.not_after),
            "chain_length": len(self.chain),
            "stapled": self.stapled,
        })
        if ct_logs is not None:
            row["in_ct"] = ct_logs.query(leaf)
        return row

    def signature_bytes(self):
        """A canonical byte encoding of everything a probe observed.

        Two results with equal signature bytes carry identical chains
        (DER-exact), negotiation outcomes, staples, and errors — the
        equality the engine's determinism contract is stated in.
        """
        parts = [
            self.fqdn.encode(), self.vantage.encode(),
            b"1" if self.reachable else b"0",
            (self.error or "").encode(),
            str(-1 if self.negotiated_version is None
                else int(self.negotiated_version)).encode(),
            str(-1 if self.negotiated_suite is None
                else int(self.negotiated_suite)).encode(),
            self.ocsp_staple or b"",
        ]
        parts += [certificate.to_der() for certificate in self.chain]
        return b"\x1f".join(parts)


class Prober:
    """Probes a :class:`~repro.probing.network.SimulatedNetwork`.

    Every :meth:`probe_one` builds a fresh
    :class:`~repro.tlslib.handshake.TLSClient`, so no handshake state
    survives a probe.  The one thing a prober keeps is a memo from DER
    bytes to the decoded, frozen :class:`Certificate`: the same chains
    come back from every vantage and from every host that shares a
    certificate, so each distinct blob goes through the parser once.
    Engine workers each construct their own prober (see
    :class:`repro.probing.engine.ProbeEngine`), so the memo needs no lock.
    """

    def __init__(self, network):
        self.network = network
        self._decoded = {}

    def _certificate(self, der):
        """``der`` decoded, parsing each distinct blob only once."""
        certificate = self._decoded.get(der)
        if certificate is None:
            certificate = Certificate.from_der(der)
            self._decoded[der] = certificate
        return certificate

    def _hello(self, sni):
        return ClientHello(version=TLSVersion.TLS_1_2,
                           ciphersuites=list(_PROBE_SUITES),
                           extensions=list(_PROBE_EXTENSIONS), sni=sni)

    def probe_one(self, fqdn, vantage, at=PROBE_TIME):
        """Probe a single SNI from one vantage point."""
        hello = self._hello(fqdn)
        client = TLSClient()
        try:
            flight = self.network.connect(
                fqdn, client.first_flight(hello),
                region=vantage.region, at=at)
            result = client.read_server_flight(hello, flight)
        except UnreachableError as exc:
            return ProbeResult(fqdn=fqdn, vantage=vantage.name,
                               reachable=False, error=str(exc))
        except TLSError as exc:
            return ProbeResult(fqdn=fqdn, vantage=vantage.name,
                               reachable=True, error=str(exc))
        try:
            chain = [self._certificate(der) for der in result.chain_der]
        except DERDecodeError as exc:
            return ProbeResult(fqdn=fqdn, vantage=vantage.name,
                               reachable=True, error=f"bad certificate: {exc}")
        return ProbeResult(
            fqdn=fqdn, vantage=vantage.name, reachable=True, chain=chain,
            negotiated_version=result.negotiated_version,
            negotiated_suite=result.server_hello.ciphersuite,
            ocsp_staple=result.ocsp_staple)

    def probe_all(self, snis, at=PROBE_TIME):
        """Probe every SNI from every vantage, serially.

        This is the reference path the parallel
        :class:`~repro.probing.engine.ProbeEngine` must reproduce
        byte-identically; returns a
        :class:`~repro.probing.certdataset.CertificateDataset`."""
        results = []
        for vantage in VANTAGE_POINTS:
            for fqdn in snis:
                results.append(self.probe_one(fqdn, vantage, at=at))
        return CertificateDataset(results, probed_at=at)
