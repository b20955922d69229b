"""Section 6 — case studies: smart TVs and PKI on the local network.

These use lab-captured traffic rather than IoT Inspector, so they come
with their own miniature worlds:

- **Smart TVs** (Section 6.1, Figure 7, Table 17): traffic of Amazon and
  Roku TV devices in 2019.  Third-party channel servers mostly use
  public-trust certificates but frequently present incomplete chains or
  expired certificates; the vendor-owned servers are vendor-signed —
  Amazon with ~400-day CT-logged certificates, Roku with ~5,000-day
  certificates never logged.
- **Local network** (Section 6.2): Amazon Echo/Fire TV and Google
  Chromecast/Home speak TLS to each other with self-signed or private
  "Cast Root CA" certificates, 1–22-year validity, in no trust store and
  no CT log.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.core.issuers import leaf_issuer_org
from repro.inspector.generator import ServerSpec
from repro.inspector.timeline import days, parse_date
from repro.probing.network import SimulatedNetwork
from repro.probing.prober import Prober
from repro.probing.vantage import PRIMARY_VANTAGE
from repro.x509.certificate import sign_certificate
from repro.x509.keys import generate_keypair
from repro.x509.names import DistinguishedName
from repro.x509.validation import ChainStatus

#: Reference time of the TV lab capture.
TV_CAPTURE_TIME = parse_date("2019-06-15")


def _tv(fqdn, sld, owner, issuer, *, chain="ok", validity=None,
        expired=None, group="roku"):
    return ServerSpec(fqdn=fqdn, sld=sld, owner=owner, issuer=issuer,
                      chain=chain, validity_days=validity,
                      expired_not_after=expired,
                      audience=f"tv:{group}")


#: The smart-TV server catalog (Table 17's domains, with FQDN counts).
def tv_server_specs():
    specs = []

    def many(count, sld, owner, issuer, **kwargs):
        for i in range(count):
            specs.append(_tv(f"ch{i}.{sld}", sld, owner, issuer, **kwargs))

    # --- visited by the Amazon TV group ------------------------------------
    many(5, "netflix.com", "Netflix", "Netflix", chain="ok",
         validity=8150, group="amazon")
    many(2, "playstation.net", "Sony", "DigiCert", chain="no_intermediate",
         group="amazon")
    many(1, "tremorvideo.com", "Tremor", "Sectigo", chain="no_intermediate",
         group="amazon")
    many(1, "hsn.com", "HSN", "DigiCert", chain="no_intermediate",
         group="amazon")
    many(2, "roku.com", "Roku", "Roku", chain="with_root", validity=5000,
         group="amazon")
    many(1, "clikia.com", "Clikia", "GoDaddy", expired="2018-11-20",
         group="amazon")
    specs.append(_tv("arcus-uswest.amazon.com", "amazon.com", "Amazon",
                     "Amazon", expired="2019-03-02", group="amazon-own"))
    # Amazon-owned infrastructure: vendor-signed, ~400 days, in CT.
    many(6, "amazon-device-cloud.com", "Amazon", "Amazon", validity=400,
         group="amazon-own")
    many(4, "amazon-tv-api.com", "Amazon", "DigiCert", validity=397,
         group="amazon-own")
    # --- visited by the Roku TV group ----------------------------------------
    many(12, "netflix.com", "Netflix", "Netflix", chain="ok",
         validity=8150, group="roku")
    many(6, "roku-channel.com", "Roku", "Roku", chain="ok", validity=5000,
         group="roku-own")
    many(2, "vvond.net", "Vudu", "DigiCert", chain="no_intermediate",
         group="roku")
    for sld, owner in (("tremorvideo.com", "Tremor"), ("cymtv.com", "CYM"),
                       ("rhythmxchange.com", "RhythmOne"),
                       ("rubiconproject.com", "Rubicon"),
                       ("contextweb.com", "PulsePoint"),
                       ("sonyentertainmentnetwork.com", "Sony"),
                       ("otherworlds.tv", "OtherWorlds"),
                       ("spotxchange.com", "SpotX")):
        many(1, sld, owner, "Sectigo", chain="no_intermediate", group="roku")
    many(1, "roku.com", "Roku", "Roku", chain="with_root", validity=5000,
         group="roku-own")
    many(1, "netflix.net", "Netflix", "Netflix", chain="with_root",
         validity=8150, group="roku")
    many(1, "rokutime.com", "Roku", "Roku", chain="with_root",
         validity=4748, group="roku-own")
    for sld, owner in (("altitude-arena.com", "Altitude"),
                       ("saddleback.com", "Saddleback"),
                       ("smartott.com", "SmartOTT"),
                       ("yumenetworks.com", "YuMe")):
        many(1, sld, owner, "GoDaddy", expired="2019-01-05", group="roku")
    # Roku-owned services signed by a mix of CAs (Figure 7's spread).
    many(3, "roku-cloud-api.com", "Roku", "Amazon", validity=395,
         group="roku-own")
    many(3, "roku-cdn.net", "Roku", "DigiCert", validity=397,
         group="roku-own")
    many(2, "roku-ads.com", "Roku", "Let's Encrypt", validity=90,
         group="roku-own")
    many(4, "roku-device-api.com", "Roku", "Roku", validity=5000,
         group="roku-own")
    return specs


@dataclass
class SmartTVStudy:
    """Results of the Section 6.1 case study."""

    #: group label → fqdn → ValidationReport
    validations: dict = field(default_factory=dict)
    #: group label → list of (issuer org, validity days, in CT) per leaf
    vendor_infrastructure: dict = field(default_factory=dict)

    def status_table(self):
        """Table 17 — domain lists per chain issue, per TV group."""
        table = {}
        for group, reports in self.validations.items():
            buckets = {}
            for fqdn, report in reports.items():
                if report.status is ChainStatus.INCOMPLETE_CHAIN:
                    key = "Incomplete chain"
                elif report.status in (ChainStatus.UNTRUSTED_ROOT,
                                       ChainStatus.SELF_SIGNED):
                    key = "Untrusted root CA"
                elif report.expired:
                    key = "Expired certificate"
                else:
                    continue
                buckets.setdefault(key, []).append(fqdn)
            table[group] = {key: sorted(fqdns)
                            for key, fqdns in buckets.items()}
        return table


def smart_tv_study(ecosystem=None, seed=2023):
    """Run the smart-TV case study end to end."""
    specs = tv_server_specs()
    shim = SimpleNamespace(seed=seed, servers=specs,
                           reachable_servers=lambda: specs)
    network = SimulatedNetwork(shim, ecosystem=ecosystem)
    prober = Prober(network)
    study = SmartTVStudy()
    from repro.x509.validation import ChainValidator
    validator = ChainValidator(network.ecosystem.union_store)
    groups = {}
    for spec in specs:
        groups.setdefault(spec.audience.split(":", 1)[1], []).append(spec)
    for group, members in groups.items():
        reports = {}
        infra = []
        for spec in members:
            result = prober.probe_one(spec.fqdn, PRIMARY_VANTAGE,
                                      at=TV_CAPTURE_TIME)
            if not result.chain:
                continue
            reports[spec.fqdn] = validator.validate(
                result.chain, at=TV_CAPTURE_TIME, hostname=spec.fqdn)
            leaf = result.leaf
            infra.append((leaf_issuer_org(leaf), leaf.validity_days,
                          network.ct_logs.query(leaf)))
        study.validations[group] = reports
        study.vendor_infrastructure[group] = infra
    return study


# --- Section 6.2: PKI on the local network -----------------------------------


@dataclass(frozen=True)
class LocalConnection:
    """One observed local TLS connection."""

    client: str
    server: str
    port: int
    tls_version: str
    chain: tuple          # certificates, leaf first; empty when encrypted
    chain_extractable: bool

    @property
    def leaf(self):
        return self.chain[0] if self.chain else None


@dataclass
class LocalPKIStudy:
    connections: list = field(default_factory=list)

    def extractable(self):
        return [c for c in self.connections if c.chain_extractable]


def local_pki_study(seed=2023, now=None):
    """Build the Section 6.2 local-network observations.

    Returns a :class:`LocalPKIStudy` whose certificates reproduce the
    paper's findings: Echo's one-year self-signed certificate with its IP
    as CN; Chromecast/Home chains ending at "Cast Root CA" intermediates
    with 20–22-year validity; and the TLS 1.3 connection whose
    certificates cannot be extracted.
    """
    from repro.inspector.stacks import stable_rng
    now = now or parse_date("2020-02-01")
    rng = stable_rng(seed, "localpki")

    def keypair():
        return generate_keypair(512, rng=rng)

    # Amazon Echo: self-signed leaf, CN = its LAN IP, one year validity.
    echo_key = keypair()
    echo_subject = DistinguishedName(common_name="192.168.7.52")
    echo_cert = sign_certificate(
        serial=rng.getrandbits(32), subject=echo_subject,
        issuer=echo_subject, issuer_keypair=echo_key,
        not_before=now, not_after=now + days(365),
        public_key=echo_key.public)

    # Cast PKI: a private "Cast Root CA" signs per-product-line ICAs with
    # 20–22 year validity; device leafs carry serial-number CNs.
    cast_root_key = keypair()
    cast_root_subject = DistinguishedName(common_name="Cast Root CA",
                                          organization="Google")
    ica12_key = keypair()
    ica12 = sign_certificate(
        serial=rng.getrandbits(32),
        subject=DistinguishedName(common_name="Chromecast ICA 12",
                                  organization="Google"),
        issuer=cast_root_subject, issuer_keypair=cast_root_key,
        not_before=now - days(365), not_after=now + days(22 * 365),
        public_key=ica12_key.public, is_ca=True)
    ica16_key = keypair()
    ica16 = sign_certificate(
        serial=rng.getrandbits(32),
        subject=DistinguishedName(
            common_name="Chromecast ICA 16 (Audio Assist 4)",
            organization="Google"),
        issuer=cast_root_subject, issuer_keypair=cast_root_key,
        not_before=now - days(365), not_after=now + days(20 * 365),
        public_key=ica16_key.public, is_ca=True)

    def cast_leaf(ica_key, ica_cert):
        key = keypair()
        serial_cn = format(rng.getrandbits(64), "016X")
        return sign_certificate(
            serial=rng.getrandbits(32),
            subject=DistinguishedName(common_name=serial_cn),
            issuer=ica_cert.subject, issuer_keypair=ica_key,
            not_before=now - days(30), not_after=now + days(730),
            public_key=key.public)

    chromecast_leaf = cast_leaf(ica12_key, ica12)
    home_leaf = cast_leaf(ica16_key, ica16)

    study = LocalPKIStudy()
    study.connections.extend([
        LocalConnection(client="Amazon Fire TV", server="Amazon Echo",
                        port=55443, tls_version="TLS 1.2",
                        chain=(echo_cert,), chain_extractable=True),
        LocalConnection(client="Google Home", server="Google Chromecast",
                        port=10101, tls_version="TLS 1.2",
                        chain=(chromecast_leaf, ica12),
                        chain_extractable=True),
        LocalConnection(client="Pixel 5", server="Google Chromecast",
                        port=8443, tls_version="TLS 1.2",
                        chain=(chromecast_leaf, ica12),
                        chain_extractable=True),
        LocalConnection(client="Pixel 5", server="Google Home",
                        port=8443, tls_version="TLS 1.2",
                        chain=(home_leaf, ica16), chain_extractable=True),
        LocalConnection(client="MacBook", server="Google Chromecast",
                        port=32245, tls_version="TLS 1.3",
                        chain=(), chain_extractable=False),
    ])
    return study
