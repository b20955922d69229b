"""The simulated Internet: SNI → TLS endpoint with real certificates.

Materializes the world's :class:`~repro.inspector.generator.ServerSpec`
records into endpoints: every server gets a real certificate chain issued
by its CA (public or private), including all the paper's misconfiguration
behaviours — omitted roots and intermediates, bare-leaf chains, expired
and self-signed certificates, CN/SAN mismatches, certificate sharing
across FQDNs and IPs, per-geography CDN variants, and CT logging (or the
deliberate absence of it).

Connections run the real handshake from :mod:`repro.tlslib.handshake`:
the prober's ClientHello bytes are parsed by a :class:`TLSServer`, which
answers with ServerHello + Certificate records carrying DER blobs.
"""

from dataclasses import dataclass, field

from repro.inspector.generator import ServerSpec
from repro.inspector.stacks import stable_rng
from repro.inspector.timeline import (
    PROBE_TIME,
    WORLD_EPOCH,
    days,
    parse_date,
)
from repro.probing.authorities import AuthorityEcosystem
from repro.tlslib.alerts import Alert, AlertDescription
from repro.tlslib.ciphersuites import codes_by_names
from repro.tlslib.errors import TLSHandshakeError
from repro.tlslib.handshake import ServerConfig, TLSServer
from repro.tlslib.versions import TLSVersion
from repro.x509.certificate import sign_certificate
from repro.x509.ct import CTLogSet
from repro.x509.keys import KeyPool
from repro.x509.revocation import RevocationAuthority
from repro.x509.names import DistinguishedName

#: Servers that died between capture and the April 2022 probe stop
#: answering after this instant.
UNREACHABLE_AFTER = parse_date("2021-01-01")

#: Geographic regions with potentially distinct CDN certificates.
REGIONS = ("us", "eu", "asia")

#: Broad server-side suite support (servers accept what clients offer).
_SERVER_SUITES = tuple(codes_by_names([
    "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384",
    "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
    "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256",
    "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA384",
    "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA256",
    "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA",
    "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA",
    "TLS_DHE_RSA_WITH_AES_256_GCM_SHA384",
    "TLS_DHE_RSA_WITH_AES_128_GCM_SHA256",
    "TLS_DHE_RSA_WITH_AES_256_CBC_SHA",
    "TLS_DHE_RSA_WITH_AES_128_CBC_SHA",
    "TLS_RSA_WITH_AES_256_GCM_SHA384",
    "TLS_RSA_WITH_AES_128_GCM_SHA256",
    "TLS_RSA_WITH_AES_256_CBC_SHA256",
    "TLS_RSA_WITH_AES_128_CBC_SHA256",
    "TLS_RSA_WITH_AES_256_CBC_SHA",
    "TLS_RSA_WITH_AES_128_CBC_SHA",
    "TLS_RSA_WITH_3DES_EDE_CBC_SHA",
    "TLS_RSA_WITH_RC4_128_SHA",
]))

_SERVER_VERSIONS = frozenset({TLSVersion.TLS_1_0, TLSVersion.TLS_1_1,
                              TLSVersion.TLS_1_2})


class UnreachableError(ConnectionError):
    """Raised when a probed host no longer answers."""


@dataclass
class Endpoint:
    """One resolved server: its spec, per-region chains, and IPs."""

    spec: ServerSpec
    ips: tuple
    #: region → list of Certificate (leaf first) actually *presented*.
    chains: dict = field(default_factory=dict)
    #: region → leaf Certificate.
    leaves: dict = field(default_factory=dict)

    @property
    def fqdn(self):
        return self.spec.fqdn

    def leaf(self, region="us"):
        return self.leaves[region]

    def chain(self, region="us"):
        return list(self.chains[region])


class SimulatedNetwork:
    """All endpoints of the world, with a handshake-level ``connect``."""

    def __init__(self, world, ecosystem=None):
        self.seed = world.seed
        self.world = world
        self.ecosystem = ecosystem or AuthorityEcosystem(seed=self.seed)
        self.ct_logs = CTLogSet()
        self._key_pool = KeyPool()
        self.endpoints = {}
        self._historical_cache = {}
        self._revocation = {}
        self._build()

    # --- construction --------------------------------------------------------------

    def _build(self):
        shared_certs = {}     # share id → (leaf, chain kind ingredients)
        shared_ip_pools = {}  # share id → tuple of IPs
        rng = stable_rng(self.seed, "network")
        for spec in self.world.servers:
            ips = self._assign_ips(spec, shared_ip_pools, rng)
            chains, leaves = {}, {}
            for region in REGIONS:
                leaf, presented = self._materialize(spec, region,
                                                    shared_certs)
                chains[region] = presented
                leaves[region] = leaf
            self.endpoints[spec.fqdn] = Endpoint(spec=spec, ips=ips,
                                                 chains=chains,
                                                 leaves=leaves)

    def _assign_ips(self, spec, shared_pools, rng):
        if spec.share:
            pool = shared_pools.get(spec.share)
            if pool is None:
                pool_size = min(93, max(spec.ip_count * 3, 2))
                pool = tuple(self._make_ip(spec.share, i)
                             for i in range(pool_size))
                shared_pools[spec.share] = pool
            count = min(len(pool), max(1, spec.ip_count))
            start = rng.randrange(len(pool))
            return tuple(pool[(start + i) % len(pool)] for i in range(count))
        return tuple(self._make_ip(spec.fqdn, i)
                     for i in range(max(1, spec.ip_count)))

    @staticmethod
    def _make_ip(scope, index):
        rng = stable_rng("ip", scope, index)
        return (f"{rng.randint(11, 223)}.{rng.randint(0, 255)}"
                f".{rng.randint(0, 255)}.{rng.randint(1, 254)}")

    def _materialize(self, spec, region, shared_certs):
        """Issue (or reuse) the certificate chain one endpoint presents."""
        effective_region = region if spec.geo_variant else "us"
        if spec.share:
            key = (spec.share, effective_region)
            if key not in shared_certs:
                shared_certs[key] = self._issue(spec, effective_region,
                                                shared=True)
            leaf, presented = shared_certs[key]
            return leaf, presented
        return self._issue(spec, effective_region, shared=False)

    def _issue(self, spec, region, *, shared):
        """Issue the leaf and assemble the *presented* chain for a spec."""
        rng = stable_rng(self.seed, "issue", spec.share or spec.fqdn, region)
        if spec.chain == "self_signed":
            leaf = self._self_signed(spec, rng)
            return leaf, [leaf]
        issuer = self.ecosystem.issuer(spec.issuer)
        validity = spec.validity_days or issuer.policy.validity_days
        not_before, not_after_override = self._validity_window(
            spec, issuer, validity, rng)
        names = self._subject_names(spec, shared)
        ct_logs = None
        if getattr(issuer, "is_public_trust", False) \
                and issuer.policy.logs_to_ct and not spec.ct_absent:
            ct_logs = self.ct_logs
        leaf, _key = issuer.issue_leaf(
            names[0], now=not_before, san_dns_names=tuple(names),
            validity_days=validity, omit_names=spec.cn_mismatch,
            subject_organization=spec.owner, ct_logs=ct_logs,
            subject_key=self._key_pool.take())
        presented = self._presented_chain(spec, issuer, leaf)
        return leaf, presented

    def _validity_window(self, spec, issuer, validity, rng):
        if spec.expired_not_after:
            not_after = parse_date(spec.expired_not_after)
            return not_after - days(validity), not_after
        if validity >= 3000:
            # Long-lived private certificates installed once, never rotated
            # (Figure 6): issued around world creation.
            return WORLD_EPOCH + days(rng.randint(0, 400)), None
        # Publicly-issued certs rotate; the probed one is mid-lifetime.
        age = days(int(validity * rng.uniform(0.2, 0.8)))
        return PROBE_TIME - age, None

    def _subject_names(self, spec, shared):
        if spec.share and spec.share.startswith("wildcard:"):
            sld = spec.share.split(":", 1)[1]
            return [f"*.{sld}", sld]
        if spec.share:
            members = sorted(s.fqdn for s in self.world.servers
                             if s.share == spec.share)
            return members
        return [spec.fqdn]

    def _self_signed(self, spec, rng):
        key = self._key_pool.take()
        subject = DistinguishedName(
            common_name=f"*.{spec.sld}", organization=spec.issuer)
        validity = spec.validity_days or 3650
        not_before = WORLD_EPOCH + days(rng.randint(0, 400))
        return sign_certificate(
            serial=rng.getrandbits(40), subject=subject, issuer=subject,
            issuer_keypair=key, not_before=not_before,
            not_after=not_before + days(validity),
            public_key=key.public,
            san_dns_names=() if spec.cn_mismatch else (f"*.{spec.sld}",))

    @staticmethod
    def _presented_chain(spec, issuer, leaf):
        """Assemble what the server sends, per the spec's chain kind."""
        if spec.chain == "leaf_only":
            return [leaf]
        if spec.chain == "duplicate_leaf":
            return [leaf, leaf]
        if spec.chain == "with_root":
            return issuer.chain_for(leaf, include_root=True)
        if spec.chain == "no_intermediate":
            full = issuer.chain_for(leaf, include_root=True)
            return [full[0]] + full[2:] if len(full) > 2 else [full[0]]
        # "ok": leaf + intermediates, root omitted (RFC 5246 norm).
        return issuer.chain_for(leaf, include_root=False)

    # --- runtime --------------------------------------------------------------------

    def endpoint(self, fqdn):
        return self.endpoints[fqdn]

    def reachable(self, fqdn, at=PROBE_TIME):
        endpoint = self.endpoints.get(fqdn)
        if endpoint is None:
            return False
        return not (endpoint.spec.unreachable and at >= UNREACHABLE_AFTER)

    def chain_at(self, fqdn, region="us", at=PROBE_TIME):
        """The chain presented at time ``at`` (historical reissue aware).

        Short-lived public certificates rotate; when the requested instant
        predates the current certificate, a historical predecessor with
        identical issuer and validity length is issued deterministically —
        which is exactly why the lab dataset cross-check (Appendix C.4.2)
        finds consistent issuers despite the time gap.
        """
        endpoint = self.endpoints[fqdn]
        spec = endpoint.spec
        effective_region = region if spec.geo_variant else "us"
        chain = endpoint.chains[effective_region]
        leaf = chain[0] if chain else None
        if leaf is None or spec.expired_not_after or leaf.is_time_valid(at):
            return list(chain)
        validity_seconds = max(1, int(leaf.not_after - leaf.not_before))
        era = (at - leaf.not_before) // validity_seconds
        cache_key = (fqdn, effective_region, era)
        if cache_key not in self._historical_cache:
            issuer = self.ecosystem.issuer(spec.issuer)
            not_before = leaf.not_before + era * validity_seconds
            historical, _key = issuer.issue_leaf(
                leaf.subject.common_name, now=not_before,
                san_dns_names=leaf.san_dns_names,
                validity_days=validity_seconds / 86400,
                omit_names=spec.cn_mismatch,
                subject_organization=spec.owner,
                subject_key=self._key_pool.take(),
                ct_logs=self.ct_logs if getattr(
                    issuer, "is_public_trust", False)
                and issuer.policy.logs_to_ct and not spec.ct_absent
                else None)
            self._historical_cache[cache_key] = \
                [historical] + list(chain[1:])
        return list(self._historical_cache[cache_key])

    def revocation_authority(self, issuer_org):
        """Lazily-built revocation authority for one issuer organization."""
        if issuer_org not in self._revocation:
            self._revocation[issuer_org] = RevocationAuthority(
                self.ecosystem.issuer(issuer_org))
        return self._revocation[issuer_org]

    def server_staples(self, fqdn):
        """Whether this endpoint staples OCSP (RFC 6066).

        Stapling is a server-operator choice; a deterministic minority of
        public-CA endpoints enable it (real-world adoption is partial),
        and the private vendor CAs run no OCSP responder at all — the
        revocation gap the paper's Section 5.3 warns about.
        """
        spec = self.endpoints[fqdn].spec
        if spec.issuer not in self.ecosystem.public:
            return False
        return stable_rng(self.seed, "staple", fqdn).random() < 0.35

    def _staple_for(self, fqdn, region, at):
        endpoint = self.endpoints[fqdn]
        effective_region = region if endpoint.spec.geo_variant else "us"
        leaf = endpoint.leaves[effective_region]
        authority = self.revocation_authority(endpoint.spec.issuer)
        authority.register(leaf)
        return authority.ocsp_response(leaf, at=at).to_bytes()

    def connect(self, fqdn, client_hello_bytes, region="us", at=PROBE_TIME):
        """Handshake with a host; returns the server flight's wire bytes.

        Raises :class:`UnreachableError` for dead hosts and propagates
        :class:`~repro.tlslib.errors.TLSHandshakeError` on negotiation
        failures, as a live probe would observe.
        """
        if not self.reachable(fqdn, at=at):
            raise UnreachableError(f"{fqdn} does not answer")
        chain = self.chain_at(fqdn, region=region, at=at)
        der_chain = [certificate.to_der() for certificate in chain]
        staple_provider = None
        if self.server_staples(fqdn):
            staple_provider = lambda _sni: self._staple_for(fqdn, region, at)
        server = TLSServer(ServerConfig(
            supported_versions=_SERVER_VERSIONS,
            supported_suites=_SERVER_SUITES,
            chain_provider=lambda _sni: der_chain,
            staple_provider=staple_provider))
        try:
            return server.handle(client_hello_bytes)
        except TLSHandshakeError as exc:
            # Real servers answer failed negotiations with an alert record.
            description = AlertDescription.from_snake_name(exc.alert)
            return Alert.fatal(description).to_record_bytes(
                TLSVersion.TLS_1_0)
