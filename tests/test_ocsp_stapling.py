"""End-to-end tests for OCSP stapling through the handshake path."""

import pytest

from repro.inspector.timeline import PROBE_TIME
from repro.tlslib.clienthello import ClientHello
from repro.tlslib.extensions import ExtensionType
from repro.tlslib.handshake import ServerConfig, TLSClient, TLSServer
from repro.tlslib.versions import TLSVersion
from repro.x509.revocation import CertStatus, OCSPResponse


class TestHandshakeStapling:
    @staticmethod
    def run(extensions, staple_provider):
        server = TLSServer(ServerConfig(
            supported_versions=frozenset({TLSVersion.TLS_1_2}),
            supported_suites=(0xC02F,),
            chain_provider=lambda _s: [b"leaf"],
            staple_provider=staple_provider))
        hello = ClientHello(version=TLSVersion.TLS_1_2,
                            ciphersuites=[0xC02F],
                            extensions=list(extensions), sni="h.example")
        return TLSClient().handshake(hello, server)

    def test_staple_delivered_when_requested(self):
        result = self.run([0, int(ExtensionType.STATUS_REQUEST)],
                          lambda _s: b"staple-bytes")
        assert result.ocsp_staple == b"staple-bytes"

    def test_no_staple_without_request(self):
        result = self.run([0], lambda _s: b"staple-bytes")
        assert result.ocsp_staple is None

    def test_no_staple_without_provider(self):
        result = self.run([0, int(ExtensionType.STATUS_REQUEST)], None)
        assert result.ocsp_staple is None

    def test_empty_staple_omitted(self):
        result = self.run([0, int(ExtensionType.STATUS_REQUEST)],
                          lambda _s: None)
        assert result.ocsp_staple is None


class TestStudyStapling:
    def test_some_servers_staple(self, study, certificates):
        stapled = [r for r in certificates.results_at().values()
                   if r.stapled]
        reachable = len(certificates.reachable_fqdns())
        # Partial adoption: a meaningful minority, never everyone.
        assert 0.15 * reachable < len(stapled) < 0.6 * reachable

    def test_private_ca_servers_never_staple(self, study, certificates):
        from repro.core.issuers import leaf_issuer_org
        for result in certificates.results_at().values():
            if result.stapled:
                org = leaf_issuer_org(result.leaf)
                assert study.ecosystem.is_public_trust(org)

    def test_staples_verify_against_issuer(self, study, certificates):
        checked = 0
        for result in certificates.results_at().values():
            if not result.stapled or checked >= 20:
                continue
            response = OCSPResponse.from_bytes(result.ocsp_staple)
            ca = study.ecosystem.issuer(response.responder_name)
            response.verify(ca.signing_key.public)
            assert response.serial == result.leaf.serial
            assert response.produced_at <= PROBE_TIME \
                <= response.next_update
            assert response.status == CertStatus.GOOD
            checked += 1
        assert checked == 20

    def test_staple_roundtrip(self, certificates):
        result = next(r for r in certificates.results_at().values()
                      if r.stapled)
        response = OCSPResponse.from_bytes(result.ocsp_staple)
        assert OCSPResponse.from_bytes(response.to_bytes()) == response

    def test_stapling_deterministic(self, study):
        first = {f for f in study.network.endpoints
                 if study.network.server_staples(f)}
        second = {f for f in study.network.endpoints
                  if study.network.server_staples(f)}
        assert first == second
