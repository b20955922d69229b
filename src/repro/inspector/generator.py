"""Seeded synthesis of the full IoT ecosystem (the "world").

The :class:`WorldGenerator` builds, from a single integer seed:

1. the server catalog — explicit domains (:mod:`repro.inspector.catalog`)
   plus auto-generated vendor domains and filler third-party domains,
   flattened into :class:`ServerSpec` records totalling the paper's 1,194
   SNIs (1,151 reachable at probe time, 43 dead by 2022);
2. the TLS stack population — supply-chain pool stacks, SDK stacks, a
   commodity-build pool (identical builds that independently land on
   multiple vendors' devices — the source of coincidentally shared
   fingerprints), vendor base stacks, device-type stacks, per-device
   stacks, and the small set of *exact* library stacks that produce the
   paper's ~2.5% known-library matches;
3. 2,014 devices across 721 users, with user labels that survive the
   identification pipeline (plus funnel extras that do not);
4. the ClientHello capture: every record holds what a capture tool
   parses from the hello's wire bytes (version, suites, extension types,
   SNI), built straight from the device's stack and the destination.
"""

from collections import Counter
from dataclasses import dataclass, field

from repro.inspector import catalog, labels, sdks, timeline
from repro.inspector.model import ClientHelloRecord, Device, TLSStack, User
from repro.inspector.stacks import StackFactory, stable_rng
from repro.inspector.vendors import SHARED_POOLS, VENDOR_PROFILES
from repro.libraries import curl as curl_lib
from repro.libraries import mbedtls as mbedtls_lib
from repro.libraries import openssl as openssl_lib
from repro.libraries import wolfssl as wolfssl_lib
from repro.tlslib.clienthello import captured_fields
from repro.tlslib.extensions import ExtensionType as Ext
from repro.tlslib.versions import TLSVersion

#: Study-level targets (paper Sections 3 and 5.1).
TARGET_SNI_COUNT = 1194
TARGET_SLD_COUNT = 357
TARGET_UNREACHABLE = 43
TARGET_USERS = 721

#: Size of the commodity-build pool (identical third-party builds found
#: across unrelated vendors — busybox/libcurl images, Android components).
COMMODITY_POOL_SIZE = 210

#: Library era → candidate base versions (variation across vendor builds).
LIBRARY_BASES = {
    "openssl-1.0.0": [("openssl", v) for v in ("1.0.0t", "1.0.0q")],
    "openssl-1.0.1": [("openssl", v) for v in ("1.0.1u", "1.0.1r",
                                               "1.0.1l")],
    "openssl-1.0.2": [("openssl", v) for v in ("1.0.2u", "1.0.2m", "1.0.2f",
                                               "1.0.2")],
    "openssl-1.1.0": [("openssl", v) for v in ("1.1.0l", "1.1.0-pre3")],
    "wolfssl-2": [("wolfssl", v) for v in ("2.9.0", "2.6.0")],
    "wolfssl-3": [("wolfssl", v) for v in ("3.15.3-stable", "3.12.0-stable",
                                           "3.9.0")],
    "mbedtls-1.3": [("mbedtls", v) for v in ("1.3.22", "1.3.16", "1.3.10")],
    "mbedtls-2": [("mbedtls", v) for v in ("2.16.4", "2.7.10", "2.4.2")],
}

_LIB_MODULES = {"openssl": openssl_lib, "wolfssl": wolfssl_lib,
                "mbedtls": mbedtls_lib}

#: Mutations (and weights) used when deriving non-exact stacks.
_MUTATIONS = ("custom", "component", "reorder", "similar", "extensions")
_MUTATION_WEIGHTS = (0.46, 0.06, 0.01, 0.36, 0.11)

#: Visit probability of the big common domains, tuned toward Table 15's
#: device-reach column.
_COMMON_VISIT_P = {
    "amazon.com": 0.26, "google.com": 0.24, "googleapis.com": 0.19,
    "gstatic.com": 0.15, "amazonaws.com": 0.11, "doubleclick.net": 0.105,
    "cloudfront.net": 0.065, "googleusercontent.com": 0.066,
    "media-amazon.com": 0.042, "amcs-tachyon.com": 0.038,
    "sentry-cdn.com": 0.034, "ssl-images-amazon.com": 0.032,
    "google-analytics.com": 0.028, "ggpht.com": 0.045,
}
_DEFAULT_COMMON_P = 0.015

#: FQDN host-name tokens cycled per SLD.
_HOST_TOKENS = ("api", "www", "cdn", "iot", "app", "data", "time", "ota",
                "log", "push", "sync", "events", "device", "cloud", "a2",
                "edge", "mqtt", "auth", "media", "img")

#: Vendors whose TLS stacks never coincide with other vendors' — their
#: whole fingerprint set is unique (the DoC_vendor = 1 cohort, ~20% of
#: vendors in Figure 2).
STANDALONE_VENDORS = frozenset({
    "Canary", "ecobee", "Withings", "Vera", "Nanoleaf", "Fing", "Obihai",
    "Tuya", "Sleep number", "VMware", "Yamaha", "Amcrest", "Belkin",
    # One company / one platform: their stack sets must coincide exactly
    # (Table 4's Jaccard 1.0 and [0.7, 1) pairs), so no commodity noise.
    "SiliconDust", "HDHomeRun", "Sharp", "TCL",
})

#: Org names the private vendor CAs sign under (Section 5.2 footnote 5).
PRIVATE_CA_ORGS = {
    "Roku": "Roku",
    "Samsung": "Samsung Electronics",
    "Nintendo": "Nintendo",
    "Sony": "Sony Computer Entertainment",
    "Tesla": "Tesla Motor Services",
    "Google": "Nest Labs",
    "Sense": "Sense Labs",
    "DirecTV": "ATT Mobility and Entertainment",
    "LG": "LG Electronics",
    "Canary": "Canary Connect",
    "Philips": "Philips",
    "Obihai": "Obihai Technology",
    "Dish Network": "EchoStar",
    "Tuya": "Tuya",
    "ecobee": "ecobee",
}


@dataclass(frozen=True)
class ServerSpec:
    """One fully resolved server endpoint (an SNI) in the world."""

    fqdn: str
    sld: str
    owner: str
    issuer: str
    chain: str = "ok"
    validity_days: float = None
    expired_not_after: str = None
    cn_mismatch: bool = False
    ct_absent: bool = False
    share: str = None
    sdk_stack: str = None
    unreachable: bool = False
    geo_variant: bool = False
    ip_count: int = 2
    audience: str = "common"

    def replace(self, **changes):
        return ServerSpec(**{**self.__dict__, **changes})


@dataclass
class World:
    """Everything the analyses and the prober consume."""

    seed: int
    profiles: tuple
    users: list = field(default_factory=list)
    devices: list = field(default_factory=list)
    records: list = field(default_factory=list)
    servers: list = field(default_factory=list)
    sdk_stacks: dict = field(default_factory=dict)
    funnel: dict = field(default_factory=dict)

    def servers_by_sld(self):
        by_sld = {}
        for spec in self.servers:
            by_sld.setdefault(spec.sld, []).append(spec)
        return by_sld

    def reachable_servers(self):
        return [spec for spec in self.servers if not spec.unreachable]

    def device_by_id(self):
        return {device.device_id: device for device in self.devices}

    def vendor_names(self):
        return [profile.name for profile in self.profiles]

    def profile_by_name(self):
        return {profile.name: profile for profile in self.profiles}


class WorldGenerator:
    """Builds a :class:`World` deterministically from a seed."""

    def __init__(self, seed=2023):
        self.seed = seed
        self._factory = StackFactory(seed=seed)
        self._commodity = None

    # --- public entry ---------------------------------------------------------

    def generate(self):
        world = World(seed=self.seed, profiles=VENDOR_PROFILES)
        self._build_servers(world)
        self._commodity = self._build_commodity_pool()
        pool_stacks = self._build_pool_stacks()
        world.sdk_stacks = self._build_sdk_stacks()
        vendor_stacks = self._build_vendor_stacks(pool_stacks)
        self._build_devices(world, vendor_stacks, pool_stacks)
        self._assign_users(world)
        self._emit_records(world)
        self._apply_rare_sni_filter(world)
        return world

    # --- stack derivation helpers ----------------------------------------------

    def _base_fingerprint(self, library_key, rng):
        if library_key == "curl-openssl":
            builds = curl_lib.openssl_build_fingerprints(limit=400)
            return rng.choice(builds)
        family, version = rng.choice(LIBRARY_BASES[library_key])
        return _LIB_MODULES[family].fingerprint_for(version)

    def _derive(self, library_key, name, *, mutation, hygiene, scope,
                profile=None, rng=None, allow_severe=False):
        rng = rng or stable_rng(self.seed, "derive", name, scope)
        base = self._base_fingerprint(library_key, rng)
        grease = bool(profile and rng.random() < profile.grease_rate)
        ocsp = bool(profile and rng.random() < profile.ocsp_rate)
        fallback = bool(profile and allow_severe
                        and rng.random() < profile.fallback_rate)
        stack = self._factory.derive(
            base, name, mutation=mutation, hygiene=hygiene, scope=scope,
            grease=grease, ocsp=ocsp, fallback_scsv=fallback,
            allow_severe=allow_severe)
        return self._ensure_sni(stack)

    @staticmethod
    def _ensure_sni(stack):
        """Devices always send SNI; the extension list must reflect that."""
        if int(Ext.SERVER_NAME) in stack.extensions:
            return stack
        return TLSStack(
            name=stack.name, tls_version=stack.tls_version,
            ciphersuites=stack.ciphersuites,
            extensions=(int(Ext.SERVER_NAME),) + stack.extensions,
            origin_library=stack.origin_library, mutation=stack.mutation)

    def _pick_mutation(self, rng, shared=False):
        """Pick a mutation kind.

        ``shared`` stacks (vendor bases, pools, SDKs) avoid the
        ``extensions``/``reorder`` mutations: a widely deployed stack whose
        suite list equals a library default would multiply "exact"
        semantic matches across every device carrying it (Appendix B.2's
        unit is the {device, suite list} tuple).
        """
        mutations, weights = _MUTATIONS, _MUTATION_WEIGHTS
        if shared:
            mutations = ("custom", "component", "similar", "extensions",
                         "reorder")
            weights = (0.50, 0.08, 0.28, 0.12, 0.02)
        roll, acc = rng.random(), 0.0
        for mutation, weight in zip(mutations, weights):
            acc += weight
            if roll < acc:
                return mutation
        return mutations[0]

    # --- servers ------------------------------------------------------------------

    def _build_servers(self, world):
        rng = stable_rng(self.seed, "servers")
        domains = list(catalog.EXPLICIT_DOMAINS)
        explicit_slds = {d.sld for d in domains}
        for profile in VENDOR_PROFILES:
            for sld in profile.domains:
                if sld in explicit_slds:
                    continue
                issuer = self._default_issuer(profile, rng)
                chain = "leaf_only" if profile.exclusive_ca else "ok"
                validity = None
                if issuer in PRIVATE_CA_ORGS.values() and profile.ca_validity_days:
                    validity = profile.ca_validity_days[0]
                domains.append(catalog.DomainSpec(
                    sld=sld, owner=profile.name, issuer=issuer,
                    groups=(catalog.FqdnGroup(
                        count=rng.randint(1, 3), chain=chain,
                        validity_days=validity),),
                    audience=f"vendor:{profile.name}"))
                explicit_slds.add(sld)
        filler_count = TARGET_SLD_COUNT - len(domains)
        filler_names = catalog.filler_domain_names(max(filler_count, 0))
        current_fqdns = sum(d.fqdn_count for d in domains)
        remaining = max(TARGET_SNI_COUNT - current_fqdns, filler_count)
        base_each = max(1, remaining // max(filler_count, 1))
        leftover = remaining - base_each * filler_count
        for i, sld in enumerate(filler_names):
            count = base_each + (1 if i < leftover else 0)
            domains.append(catalog.DomainSpec(
                sld=sld, owner=catalog.filler_org(i),
                issuer=self._weighted_issuer(rng),
                groups=(catalog.FqdnGroup(count=count,
                                          wildcard=rng.random() < 0.24,
                                          ips=rng.choice((1, 1, 1, 2, 3))),),
                audience="apps"))
        specs = []
        for domain in domains:
            index = 0
            for group in domain.groups:
                for _ in range(group.count):
                    if group.cn_mismatch:
                        fqdn = f"a2.{domain.sld}"
                    else:
                        token = _HOST_TOKENS[index % len(_HOST_TOKENS)]
                        suffix = "" if index < len(_HOST_TOKENS) else str(
                            index // len(_HOST_TOKENS))
                        fqdn = f"{token}{suffix}.{domain.sld}"
                    share = group.share
                    if share is None and group.wildcard:
                        share = f"wildcard:{domain.sld}"
                    specs.append(ServerSpec(
                        fqdn=fqdn, sld=domain.sld, owner=domain.owner,
                        issuer=group.issuer or domain.issuer,
                        chain=group.chain,
                        validity_days=group.validity_days,
                        expired_not_after=group.expired_not_after,
                        cn_mismatch=group.cn_mismatch,
                        ct_absent=group.ct_absent,
                        share=share, sdk_stack=group.sdk_stack,
                        unreachable=group.unreachable,
                        geo_variant=group.geo_variant,
                        ip_count=group.ips, audience=domain.audience))
                    index += 1
        specs = specs[:TARGET_SNI_COUNT]
        unreachable = sum(1 for s in specs if s.unreachable)
        mutable = [i for i, s in enumerate(specs)
                   if not s.unreachable and s.audience == "apps"]
        rng.shuffle(mutable)
        for i in mutable[:max(0, TARGET_UNREACHABLE - unreachable)]:
            specs[i] = specs[i].replace(unreachable=True)
        world.servers = specs

    @staticmethod
    def _default_issuer(profile, rng):
        if profile.exclusive_ca:
            return PRIVATE_CA_ORGS.get(profile.name, profile.name)
        if profile.own_ca and rng.random() < 0.5:
            org = PRIVATE_CA_ORGS.get(profile.name)
            if org:
                return org
        return WorldGenerator._weighted_issuer(rng)

    @staticmethod
    def _weighted_issuer(rng):
        total = sum(w for _n, w in catalog.FILLER_ISSUER_WEIGHTS)
        roll = rng.uniform(0, total)
        acc = 0.0
        for name, weight in catalog.FILLER_ISSUER_WEIGHTS:
            acc += weight
            if roll < acc:
                return name
        return catalog.FILLER_ISSUER_WEIGHTS[0][0]

    # --- stacks --------------------------------------------------------------------

    def _build_commodity_pool(self):
        """Commodity builds shipped verbatim on devices of several vendors.

        Identical third-party builds (httpd/libcurl images, chipset SDKs,
        Android components) land on unrelated vendors\' devices and produce
        the paper\'s *shared non-standard fingerprints* (Table 2\'s degree
        distribution).  Each build is assigned to a vendor group up front:
        ~85 builds shared by exactly two vendors, ~60 by small groups of
        3–5, and ~22 ubiquitous builds reaching 6+ vendors.
        """
        rng = stable_rng(self.seed, "commodity-groups")
        library_keys = [key for key in LIBRARY_BASES
                        if key != "openssl-1.0.0"]
        # Commodity builds concentrate on high-volume vendors; small
        # brands ship single-purpose firmware, so their pairwise overlaps
        # stay driven by explicit supply-chain pools (Table 4).
        members_pool = [p for p in VENDOR_PROFILES
                        if p.name not in STANDALONE_VENDORS
                        and p.devices >= 25]
        vendor_names = [p.name for p in members_pool]
        vendor_weights = [p.devices ** 0.5 for p in members_pool]
        group_sizes = [2] * 100 + [rng.randint(3, 5) for _ in range(70)] \
            + [rng.randint(6, 12) for _ in range(17)]
        assignments = []
        for i, size in enumerate(group_sizes):
            build_rng = stable_rng(self.seed, "commodity", i)
            library_key = library_keys[i % len(library_keys)]
            stack = self._derive(
                library_key, f"commodity/{i}",
                mutation=self._pick_mutation(build_rng, shared=True),
                hygiene=0.45, scope=("commodity", i), rng=build_rng)
            members = set()
            while len(members) < size:
                members.add(rng.choices(vendor_names,
                                        weights=vendor_weights, k=1)[0])
            assignments.append((stack, frozenset(members)))
        return assignments

    def _exact_device_plan(self):
        """vendor → {device index → [stack]} for exact library stacks.

        Only a handful of devices run an unmodified known-library client
        (the paper's 23 matched fingerprints across 2,014 devices), so
        exact stacks attach to specific devices instead of joining the
        vendor-wide base rotation.  Corpus keys are handed out without
        repetition so each exact stack is a distinct matched fingerprint.
        """
        rng = stable_rng(self.seed, "exact-keys")
        curl_pool = {}
        for build in curl_lib.openssl_build_fingerprints(limit=3000):
            if build.tls_version != TLSVersion.TLS_1_3:
                curl_pool.setdefault(build.key(), build)
        curl_queue = sorted(curl_pool.values(), key=lambda b: b.version)
        rng.shuffle(curl_queue)
        mbed_queue = [mbedtls_lib.fingerprint_for(v)
                      for v in ("2.16.4", "1.3.22", "2.7.10", "1.2.19")]
        plan = {}
        for profile in VENDOR_PROFILES:
            for i in range(profile.exact_stacks):
                library = profile.exact_library or profile.library
                if library == "mbedtls" and mbed_queue:
                    base = mbed_queue.pop(0)
                elif library == "openssl":
                    base = openssl_lib.fingerprint_for("1.0.2u")
                elif curl_queue:
                    base = curl_queue.pop(0)
                else:
                    base = self._exact_base(library, profile.name, i)
                stack = self._factory.derive(
                    base, f"{profile.name}/exact/{i}", mutation="exact",
                    scope=(profile.name, "exact", i))
                attach_rng = stable_rng(self.seed, "exact-attach",
                                        profile.name, i)
                for _ in range(attach_rng.randint(1, 3)):
                    index = attach_rng.randrange(profile.devices)
                    plan.setdefault(profile.name, {}).setdefault(
                        index, []).append(stack)
        return plan

    def _commodity_device_plan(self):
        """vendor → {device index → [stack]} for commodity attachments."""
        plan = {}
        for i, (stack, members) in enumerate(self._commodity):
            for vendor in members:
                rng = stable_rng(self.seed, "commodity-attach", i, vendor)
                profile = next(p for p in VENDOR_PROFILES
                               if p.name == vendor)
                count = 1 if profile.devices < 30 else rng.randint(1, 3)
                for _ in range(count):
                    index = rng.randrange(profile.devices)
                    plan.setdefault(vendor, {}).setdefault(
                        index, []).append(stack)
        return plan

    def _build_pool_stacks(self):
        pools = {}
        for pool_name, config in SHARED_POOLS.items():
            stacks = []
            for i in range(config["stacks"]):
                rng = stable_rng(self.seed, "pool", pool_name, i)
                stacks.append(self._derive(
                    config["library"], f"pool/{pool_name}/{i}",
                    mutation=self._pick_mutation(rng),
                    hygiene=0.45, scope=(pool_name, i), rng=rng))
            pools[pool_name] = stacks
        return pools

    def _build_sdk_stacks(self):
        built = {}
        for sdk in sdks.SDKS.values():
            for stack_spec in sdk.stacks:
                rng = stable_rng(self.seed, "sdk", stack_spec.key)
                built[stack_spec.key] = self._derive(
                    stack_spec.library, f"sdk/{stack_spec.key}",
                    mutation=self._pick_mutation(rng, shared=True),
                    hygiene=stack_spec.hygiene,
                    scope=(stack_spec.key,), rng=rng)
        return built

    def _build_vendor_stacks(self, pool_stacks):
        """Vendor-wide stacks: base stacks, exact stacks, pool memberships."""
        vendor_stacks = {}
        for profile in VENDOR_PROFILES:
            rng = stable_rng(self.seed, "vendor", profile.name)
            stacks = []
            for i in range(profile.base_stacks):
                stacks.append(self._derive(
                    profile.library, f"{profile.name}/base/{i}",
                    mutation=self._pick_mutation(rng, shared=True),
                    hygiene=profile.hygiene, scope=(profile.name, i),
                    profile=profile, rng=rng))
            for pool_name in profile.pools:
                stacks.extend(pool_stacks[pool_name])
            vendor_stacks[profile.name] = stacks
        return vendor_stacks

    def _exact_base(self, library_key, vendor, index):
        """Pick a known-library fingerprint for an exact stack."""
        rng = stable_rng(self.seed, "exact", vendor, index)
        if library_key == "curl-openssl":
            builds = curl_lib.openssl_build_fingerprints(limit=3000)
            distinct = {}
            for build in builds:
                if build.tls_version == TLSVersion.TLS_1_3:
                    continue
                distinct.setdefault(build.key(), build)
            choices = sorted(distinct.values(), key=lambda b: b.version)
            return choices[rng.randrange(len(choices))]
        if library_key == "openssl":
            return openssl_lib.fingerprint_for("1.0.2u")
        if library_key == "mbedtls":
            return mbedtls_lib.fingerprint_for(
                rng.choice(["2.16.4", "1.3.22"]))
        return self._base_fingerprint(library_key, rng)

    # --- devices -------------------------------------------------------------------

    def _type_app_plan(self, world):
        """(vendor, dtype) → (stacks, routing) for type-specific apps.

        Applications installed per product line each carry their own TLS
        stack and talk to their own backend SLD — producing Section 4.4's
        *server-specific fingerprints*: every device of the type exhibits
        the app's fingerprint exactly when visiting the app's servers.
        """
        fqdns_by_sld = {}
        for spec in world.reachable_servers():
            if spec.audience == "apps":
                fqdns_by_sld.setdefault(spec.sld, []).append(spec.fqdn)
        slds = sorted(fqdns_by_sld)
        plan = {}
        for profile in VENDOR_PROFILES:
            if profile.exclusive_ca:
                continue  # their devices only talk to vendor servers
            if profile.base_stacks == 0:
                continue  # platform-only brands ship no per-type apps
            if profile.name in STANDALONE_VENDORS:
                continue  # per-device builds: nothing shared across units
            for dtype in profile.types:
                rng = stable_rng(self.seed, "typeapps", profile.name, dtype)
                if rng.random() > 0.50 or not slds:
                    continue
                stacks, routing = {}, {}
                for sld in rng.sample(slds, min(len(slds),
                                                rng.randint(1, 2))):
                    key = f"app/{sld}"
                    stacks[key] = self._derive(
                        profile.library,
                        f"{profile.name}/app/{dtype}/{sld}",
                        mutation=self._pick_mutation(rng),
                        hygiene=profile.hygiene,
                        scope=(profile.name, dtype, sld),
                        profile=profile, rng=rng)
                    for fqdn in fqdns_by_sld[sld]:
                        routing[fqdn] = key
                plan[(profile.name, dtype)] = (stacks, routing)
        return plan

    def _build_devices(self, world, vendor_stacks, pool_stacks):
        sdk_fqdn_routes = self._sdk_fqdn_routes(world)
        vendor_names = labels.VendorLexicon(world.vendor_names())
        commodity_plan = self._commodity_device_plan()
        exact_plan = self._exact_device_plan()
        type_app_plan = self._type_app_plan(world)
        devices = []
        for profile in VENDOR_PROFILES:
            type_stacks = self._type_stacks(profile)
            vendor_commodity = commodity_plan.get(profile.name, {})
            vendor_exact = exact_plan.get(profile.name, {})
            ssl3_budget = profile.ssl3_devices
            for i in range(profile.devices):
                rng = stable_rng(self.seed, "device", profile.name, i)
                device_id = f"{profile.name.lower().replace(' ', '-')}-{i:04d}"
                dtype = profile.types[i % len(profile.types)]
                stacks, routing = {}, {}
                base_pool = vendor_stacks[profile.name] or \
                    pool_stacks[profile.pools[0]]
                if profile.name in STANDALONE_VENDORS \
                        and not profile.pools:
                    # Standalone small vendors build per-device firmware:
                    # no two devices share a stack, so the whole vendor has
                    # completely disjoint per-device fingerprint sets —
                    # Figure 2's DoC_device = 1 cohort (~20% of vendors).
                    stacks["base"] = self._derive(
                        profile.library,
                        f"{profile.name}/devbase/{device_id}",
                        mutation=self._pick_mutation(rng),
                        hygiene=profile.hygiene,
                        scope=(device_id, "base"),
                        profile=profile, rng=rng)
                elif profile.base_stacks == 0:
                    # Platform-only brands: cycle the platform stacks so the
                    # whole shared set surfaces even from a handful of
                    # devices (keeps e.g. HDHomeRun ≡ SiliconDust).
                    stacks["base"] = base_pool[i % len(base_pool)]
                else:
                    stacks["base"] = rng.choice(base_pool)
                for key, stack in type_stacks.get(dtype, {}).items():
                    stacks[key] = stack
                app_stacks, app_routing = type_app_plan.get(
                    (profile.name, dtype), ({}, {}))
                stacks.update(app_stacks)
                routing.update(app_routing)
                n_own = self._own_stack_count(profile, rng)
                for k in range(n_own):
                    if rng.random() < 0.09:
                        # A long-lived firmware image still pinned to an
                        # SSL-era library and TLS 1.0/1.1 (Table 12's tail).
                        old = self._derive(
                            "openssl-1.0.0",
                            f"{profile.name}/old/{device_id}/{k}",
                            mutation="reorder", hygiene=profile.hygiene,
                            scope=(device_id, k, "old"), rng=rng)
                        if rng.random() < 0.15:
                            old = TLSStack(
                                name=old.name,
                                tls_version=TLSVersion.TLS_1_1,
                                ciphersuites=old.ciphersuites,
                                extensions=old.extensions,
                                origin_library=old.origin_library,
                                mutation=old.mutation)
                        stacks[f"own{k}"] = old
                    else:
                        stacks[f"own{k}"] = self._derive(
                            profile.library,
                            f"{profile.name}/dev/{device_id}/{k}",
                            mutation=self._pick_mutation(rng),
                            hygiene=profile.hygiene, scope=(device_id, k),
                            profile=profile, rng=rng, allow_severe=True)
                for c, commodity_stack in enumerate(
                        vendor_commodity.get(i, ())):
                    stacks[f"commodity{c}"] = commodity_stack
                for e, exact_stack in enumerate(vendor_exact.get(i, ())):
                    stacks[f"exact{e}"] = exact_stack
                if ssl3_budget > 0 and rng.random() < (
                        ssl3_budget / max(1, profile.devices - i)):
                    ssl3_budget -= 1
                    stacks["legacy"] = self._legacy_stack(profile, device_id)
                member_sdks = set(profile.sdks)
                for sdk_name, members in sdks.IMPLICIT_SDK_MEMBERS.items():
                    if profile.name in members:
                        member_sdks.add(sdk_name)
                for sdk_name in sorted(member_sdks):
                    if sdk_name in profile.sdks and rng.random() > 0.8:
                        continue  # not every unit carries every app
                    for fqdn, stack_key in sdk_fqdn_routes.get(sdk_name, ()):
                        routing[fqdn] = stack_key
                        stacks.setdefault(stack_key,
                                          world.sdk_stacks[stack_key])
                label = labels.label_identifiable(
                    rng, profile.name, dtype, vendor_names)
                devices.append(Device(
                    device_id=device_id, vendor=profile.name,
                    device_type=dtype, user_id="", label=label,
                    stacks=stacks, routing=routing))
        world.devices = devices

    #: Global damping of per-device stack production; the per-vendor rates
    #: set relative scale (Table 3 ordering), this sets the absolute level
    #: that lands the study at ~900 distinct fingerprints.
    OWN_STACK_FACTOR = 0.48

    @classmethod
    def _own_stack_count(cls, profile, rng):
        """Number of device-specific stacks (firmware revisions, apps)."""
        rate = profile.device_stack_rate * cls.OWN_STACK_FACTOR
        count = 1 if rng.random() < rate else 0
        extra_mean = max(0.0, profile.stacks_per_device - 1.2) \
            * cls.OWN_STACK_FACTOR
        while extra_mean > 0:
            if rng.random() < min(extra_mean, 1.0) * 0.5:
                count += 1
            extra_mean -= 1.0
        return count

    def _type_stacks(self, profile):
        """Stacks shared by all devices of one type (Figure 3 clusters)."""
        per_type = {}
        if profile.name in STANDALONE_VENDORS:
            return per_type  # per-device builds only; nothing shared
        if profile.base_stacks == 0:
            # Platform-only brands (Roku TVs, tuner boxes): every stack
            # comes from the shared platform, none from the brand.
            return per_type
        for j, dtype in enumerate(profile.types):
            rng = stable_rng(self.seed, "type", profile.name, dtype)
            if profile.devices < 40 and rng.random() < 0.5:
                per_type[dtype] = {}
                continue
            count = 1 if profile.devices < 40 else rng.randint(1, 2)
            per_type[dtype] = {}
            for k in range(count):
                if True:
                    per_type[dtype][f"type/{j}/{k}"] = self._derive(
                        profile.library, f"{profile.name}/type/{dtype}/{k}",
                        mutation=self._pick_mutation(rng),
                        hygiene=profile.hygiene,
                        scope=(profile.name, dtype, k),
                        profile=profile, rng=rng)
        return per_type

    def _legacy_stack(self, profile, device_id):
        rng = stable_rng(self.seed, "legacy", device_id)
        stack = self._derive(
            "openssl-1.0.0", f"{profile.name}/legacy/{device_id}",
            mutation="reorder", hygiene=0.1, scope=(device_id, "ssl3"),
            rng=rng)
        return TLSStack(
            name=stack.name, tls_version=TLSVersion.SSL_3_0,
            ciphersuites=stack.ciphersuites, extensions=stack.extensions,
            origin_library=stack.origin_library, mutation="custom")

    def _sdk_fqdn_routes(self, world):
        """sdk name → list of (fqdn, stack_key) from the server catalog."""
        routes = {}
        stack_to_sdk = {}
        for sdk in sdks.SDKS.values():
            for stack in sdk.stacks:
                stack_to_sdk[stack.key] = sdk.name
        for spec in world.servers:
            if spec.sdk_stack and not spec.unreachable:
                sdk_name = stack_to_sdk[spec.sdk_stack]
                routes.setdefault(sdk_name, []).append(
                    (spec.fqdn, spec.sdk_stack))
        return routes

    # --- users ---------------------------------------------------------------------

    def _assign_users(self, world):
        rng = stable_rng(self.seed, "users")
        regions = ["us"] * 6 + ["eu"] * 3 + ["asia"] * 1
        users = [User(user_id=f"user-{i:04d}", region=rng.choice(regions))
                 for i in range(TARGET_USERS)]
        world.users = users
        devices = list(world.devices)
        rng.shuffle(devices)
        # Every user owns at least one device; extra devices skew toward a
        # smaller set of multi-device "enthusiast" homes.
        for user, device in zip(users, devices[:len(users)]):
            device.user_id = user.user_id
        for device in devices[len(users):]:
            if rng.random() < 0.55:
                device.user_id = users[rng.randrange(len(users) // 4)].user_id
            else:
                device.user_id = users[rng.randrange(len(users))].user_id

    # --- capture --------------------------------------------------------------------

    @staticmethod
    def _destination_pools(world):
        """The reachable servers ``_pick_destinations`` draws from.

        Returns ``(common, common_per_sld, by_category, by_vendor, apps)``
        in that method's argument order; ``common_per_sld`` counts the
        common servers of each SLD, once per world.
        """
        reachable = world.reachable_servers()
        common = [s for s in reachable
                  if s.audience == "common" and not s.sdk_stack]
        apps = [s for s in reachable if s.audience == "apps"]
        by_category, by_vendor = {}, {}
        for spec in reachable:
            if spec.audience.startswith("category:"):
                by_category.setdefault(
                    spec.audience.split(":", 1)[1], []).append(spec)
            elif spec.audience.startswith("vendor:"):
                by_vendor.setdefault(
                    spec.audience.split(":", 1)[1], []).append(spec)
        common_per_sld = Counter(spec.sld for spec in common)
        return common, common_per_sld, by_category, by_vendor, apps

    def _emit_records(self, world):
        common, common_per_sld, by_category, by_vendor, apps = \
            self._destination_pools(world)
        profile_by_name = world.profile_by_name()
        records = []
        for device in world.devices:
            rng = stable_rng(self.seed, "traffic", device.device_id)
            profile = profile_by_name[device.vendor]
            destinations = self._pick_destinations(
                device, profile, rng, common, common_per_sld, by_category,
                by_vendor, apps)
            routed_keys = set(device.routing.values())
            plain_keys = [k for k in device.stacks
                          if k not in routed_keys and k != "legacy"]
            if "legacy" in device.stacks and destinations:
                # SSL 3.0 proposals are rare one-off events (Table 12).
                records.append(self._capture(
                    device, device.stacks["legacy"],
                    destinations[0], rng))
                if rng.random() < 0.2 and len(destinations) > 1:
                    records.append(self._capture(
                        device, device.stacks["legacy"],
                        destinations[1], rng))
            plain_index = 0
            for fqdn in destinations:
                if fqdn in device.routing:
                    stack = device.stacks[device.routing[fqdn]]
                elif plain_keys:
                    # Cycle the device's non-SDK stacks across destinations
                    # so every installed stack surfaces in the capture.
                    key = plain_keys[plain_index % len(plain_keys)]
                    plain_index += 1
                    stack = device.stacks[key]
                else:
                    stack = device.stacks["base"]
                records.append(self._capture(device, stack, fqdn, rng))
                if rng.random() < 0.06:
                    records.append(self._capture(device, stack, fqdn, rng))
        # Coverage pass: the paper's SNI list comes from the capture, so
        # every reachable server must be seen from ≥ 3 users.
        records.extend(self._ensure_coverage(world, records, by_vendor))
        # A handful of niche hosts observed from ≤ 2 users; the funnel
        # filter removes them (and their devices contribute nothing else).
        rare_rng = stable_rng(self.seed, "rare")
        for i in range(24):
            device = world.devices[rare_rng.randrange(len(world.devices))]
            fqdn = f"app.rare-service-{i}.com"
            records.append(self._capture(
                device, device.stacks["base"], fqdn, rare_rng))
        records.sort(key=lambda r: (r.timestamp, r.device_id))
        world.records = records

    def _pick_destinations(self, device, profile, rng, common,
                           common_per_sld, by_category, by_vendor, apps):
        destinations = []
        own = by_vendor.get(profile.name, [])
        if own and (profile.exclusive_ca or rng.random() < 0.35):
            k = min(len(own), rng.randint(1, 2))
            destinations.extend(s.fqdn for s in rng.sample(own, k))
        if profile.exclusive_ca:
            # Canary/Tuya/Obihai devices talk only to vendor-signed
            # servers (Section 5.2).
            return destinations
        if device.routing:
            routed = sorted(device.routing)
            k = min(len(routed), rng.randint(2, 3))
            destinations.extend(rng.sample(routed, k))
        for spec in common:
            p = _COMMON_VISIT_P.get(spec.sld, _DEFAULT_COMMON_P)
            if rng.random() < (p / common_per_sld[spec.sld]) * 1.1:
                destinations.append(spec.fqdn)
        for spec in by_category.get(profile.category, []):
            if rng.random() < 0.06:
                destinations.append(spec.fqdn)
        # Occasional background chatter to other application servers
        # (with whatever stack the round-robin assigns — no server tie).
        for spec in apps:
            if rng.random() < 0.004:
                destinations.append(spec.fqdn)
        seen, out = set(), []
        for fqdn in destinations:
            if fqdn not in seen:
                seen.add(fqdn)
                out.append(fqdn)
        if not out:
            # Every device phones home at least once during 15 months.
            fallback_pool = own or common
            if fallback_pool:
                out.append(rng.choice(fallback_pool).fqdn)
        return out

    def _ensure_coverage(self, world, records, by_vendor):
        """Add visits so each reachable SNI is observed from ≥ 3 users."""
        rng = stable_rng(self.seed, "coverage")
        users_by_sni = {}
        for record in records:
            users_by_sni.setdefault(record.sni, set()).add(record.user_id)
        devices_by_vendor, devices_by_category = {}, {}
        devices_by_routed_sld = {}
        profile_by_name = world.profile_by_name()
        spec_by_fqdn = {spec.fqdn: spec for spec in world.servers}
        for device in world.devices:
            devices_by_vendor.setdefault(device.vendor, []).append(device)
            category = profile_by_name[device.vendor].category
            devices_by_category.setdefault(category, []).append(device)
            for routed_fqdn in device.routing:
                routed = spec_by_fqdn.get(routed_fqdn)
                if routed is not None:
                    devices_by_routed_sld.setdefault(
                        routed.sld, set()).add(device.device_id)
        device_by_id = world.device_by_id()
        extra = []
        for spec in world.reachable_servers():
            seen_users = users_by_sni.get(spec.fqdn, set())
            if len(seen_users) >= 3:
                continue
            if spec.audience.startswith("vendor:"):
                pool = devices_by_vendor.get(
                    spec.audience.split(":", 1)[1], [])
            elif spec.audience.startswith("category:"):
                pool = devices_by_category.get(
                    spec.audience.split(":", 1)[1], [])
            elif spec.sdk_stack:
                pool = [d for d in world.devices if spec.fqdn in d.routing]
            elif spec.audience == "sdk":
                # Platform-owned hosts without an explicit SDK stack (e.g.
                # roku.com's with-root group) are still only visited by
                # devices of the platform's member vendors; domains no SDK
                # routes (rokutime.com) fall back to the owner's devices.
                member_ids = devices_by_routed_sld.get(spec.sld, set())
                pool = [device_by_id[i] for i in sorted(member_ids)] or \
                    devices_by_vendor.get(spec.owner, [])
            else:
                routed = [d for d in world.devices
                          if spec.fqdn in d.routing]
                pool = routed or [
                    d for d in world.devices
                    if not profile_by_name[d.vendor].exclusive_ca]
            candidates = [d for d in pool if d.user_id not in seen_users]
            rng.shuffle(candidates)
            distinct_users = set()
            for device in candidates:
                if len(seen_users) + len(distinct_users) >= 3:
                    break
                if device.user_id in distinct_users:
                    continue
                distinct_users.add(device.user_id)
                stack_key = device.routing.get(spec.fqdn,
                                               device.default_stack)
                stack = device.stacks.get(stack_key,
                                          device.stacks["base"])
                extra.append(self._capture(device, stack, spec.fqdn, rng))
        return extra

    def _capture(self, device, stack, fqdn, rng):
        """One capture record of ``stack`` saying hello to ``fqdn``.

        The record holds what parsing the hello's wire bytes gives back
        (:func:`~repro.tlslib.clienthello.captured_fields`), built from
        the stack and the SNI without encoding them.  The hello's 32
        client-random bytes are still drawn, so the RNG stream, and with
        it every later draw of the world, is the same as when each hello
        went through the codec.
        """
        timestamp = rng.randint(timeline.CAPTURE_START, timeline.CAPTURE_END)
        for _ in range(32):
            rng.getrandbits(8)
        version, suites, extensions, sni = captured_fields(
            stack.tls_version, stack.ciphersuites, stack.extensions, fqdn)
        return ClientHelloRecord(
            device_id=device.device_id, vendor=device.vendor,
            device_type=device.device_type, user_id=device.user_id,
            timestamp=timestamp, tls_version=version,
            ciphersuites=suites, extensions=extensions, sni=sni)

    # --- funnel ---------------------------------------------------------------------

    def _apply_rare_sni_filter(self, world):
        """Reproduce the Section 3 funnel: drop unidentifiable labels and
        SNIs observed from two or fewer users."""
        rng = stable_rng(self.seed, "funnel")
        vendor_names = labels.VendorLexicon(world.vendor_names())
        unidentifiable = [
            "upstairs thing", "device", "mystery box", "john's iphone",
            "work laptop", "old android tablet", "media pc",
            "basement gadget", "???", "smart thing",
        ]
        dropped = sum(
            1 for i in range(180)
            if labels.identify(rng.choice(unidentifiable), vendor_names)[0]
            is None)
        users_by_sni = {}
        for record in world.records:
            users_by_sni.setdefault(record.sni, set()).add(record.user_id)
        rare = {sni for sni, us in users_by_sni.items() if len(us) <= 2}
        kept = [r for r in world.records if r.sni not in rare]
        world.funnel = {
            "unidentified_labels_dropped": dropped,
            "rare_snis_filtered": len(rare),
            "records_before_filter": len(world.records),
            "records_after_filter": len(kept),
        }
        world.records = kept
