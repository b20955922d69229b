"""Tests of the world generator's internal planning helpers."""

from collections import Counter

import pytest

from repro.inspector.generator import (
    _COMMON_VISIT_P,
    _DEFAULT_COMMON_P,
    LIBRARY_BASES,
    PRIVATE_CA_ORGS,
    STANDALONE_VENDORS,
    WorldGenerator,
)
from repro.inspector.stacks import stable_rng
from repro.inspector.vendors import PROFILES_BY_NAME, VENDOR_PROFILES


@pytest.fixture(scope="module")
def generator():
    return WorldGenerator(seed=2023)


class TestIssuerSampling:
    def test_weighted_issuer_distribution(self, generator):
        rng = stable_rng(0, "issuer-test")
        counts = Counter(generator._weighted_issuer(rng)
                         for _ in range(4000))
        # DigiCert dominates, per the Figure 5 calibration.
        assert counts.most_common(1)[0][0] == "DigiCert"
        assert 0.40 <= counts["DigiCert"] / 4000 <= 0.62

    def test_exclusive_vendor_issuer_is_own_org(self, generator):
        rng = stable_rng(0, "issuer-test-2")
        profile = PROFILES_BY_NAME["Tuya"]
        for _ in range(10):
            assert generator._default_issuer(profile, rng) == "Tuya"


class TestOwnStackCounts:
    def test_zero_rate_zero_stacks(self):
        profile = PROFILES_BY_NAME["Sharp"]  # platform-only
        rng = stable_rng(0, "own-test")
        counts = [WorldGenerator._own_stack_count(profile, rng)
                  for _ in range(200)]
        assert all(count == 0 for count in counts)

    def test_high_rate_vendor_produces_stacks(self):
        profile = PROFILES_BY_NAME["Synology"]
        rng = stable_rng(0, "own-test-2")
        counts = [WorldGenerator._own_stack_count(profile, rng)
                  for _ in range(400)]
        assert sum(counts) > 100          # prolific customizer
        assert max(counts) >= 2           # multi-stack devices exist


class TestExactPlan:
    def test_exact_keys_distinct(self, generator):
        plan = generator._exact_device_plan()
        keys = []
        for vendor_plan in plan.values():
            for stacks in vendor_plan.values():
                keys.extend(stack.fingerprint() for stack in stacks)
        # Each planned exact stack carries a distinct corpus fingerprint
        # (Wyze's OpenSSL stack may coincide with a curl build).
        assert len(set(keys)) >= len(set(
            stack.name for vendor_plan in plan.values()
            for stacks in vendor_plan.values() for stack in stacks)) - 3

    def test_exact_stacks_are_exact(self, generator):
        plan = generator._exact_device_plan()
        for vendor_plan in plan.values():
            for stacks in vendor_plan.values():
                for stack in stacks:
                    assert stack.mutation == "exact"
                    assert stack.origin_library


class TestCommodityPlan:
    def test_group_membership_respects_standalone(self, generator):
        generator._commodity = generator._build_commodity_pool()
        for _stack, members in generator._commodity:
            assert not members & STANDALONE_VENDORS

    def test_group_sizes(self, generator):
        generator._commodity = generator._build_commodity_pool()
        sizes = Counter(len(members)
                        for _stack, members in generator._commodity)
        assert sizes[2] == 100
        assert sum(count for size, count in sizes.items()
                   if 3 <= size <= 5) == 70
        assert sum(count for size, count in sizes.items() if size >= 6) \
            == 17

    def test_members_are_real_vendors(self, generator):
        generator._commodity = generator._build_commodity_pool()
        names = {p.name for p in VENDOR_PROFILES}
        for _stack, members in generator._commodity:
            assert members <= names


class TestPrivateCAOrgMap:
    def test_fifteen_vendor_orgs(self):
        assert len(PRIVATE_CA_ORGS) == 15
        assert PRIVATE_CA_ORGS["Google"] == "Nest Labs"
        assert PRIVATE_CA_ORGS["Dish Network"] == "EchoStar"

    def test_every_mapped_vendor_exists(self):
        for vendor in PRIVATE_CA_ORGS:
            assert vendor in PROFILES_BY_NAME


class TestLibraryBases:
    def test_versions_resolve(self):
        from repro.libraries import mbedtls, openssl, wolfssl
        modules = {"openssl": openssl, "wolfssl": wolfssl,
                   "mbedtls": mbedtls}
        for key, bases in LIBRARY_BASES.items():
            for family, version in bases:
                fingerprint = modules[family].fingerprint_for(version)
                assert fingerprint.ciphersuites

    def test_no_export_bases_remain(self):
        # Severe suites must only come from the explicit low-hygiene path.
        from repro.libraries import mbedtls, openssl, wolfssl
        from repro.tlslib.ciphersuites import suite_by_code
        modules = {"openssl": openssl, "wolfssl": wolfssl,
                   "mbedtls": mbedtls}
        for key, bases in LIBRARY_BASES.items():
            for family, version in bases:
                fingerprint = modules[family].fingerprint_for(version)
                for code in fingerprint.ciphersuites:
                    suite = suite_by_code(code)
                    assert not suite.is_export, (key, version, suite.name)
                    assert not suite.is_anon, (key, version, suite.name)


def _pick_destinations_quadratic(device, profile, rng, common, by_category,
                                 by_vendor, apps):
    """``_pick_destinations`` with its per-spec recount of ``per_sld``.

    The generator counts each SLD's common servers once per world; this
    copy recounts them over the whole ``common`` list for every spec, as
    the generator once did, and is the oracle that the hoisted count
    keeps the same destinations and RNG draws.
    """
    destinations = []
    own = by_vendor.get(profile.name, [])
    if own and (profile.exclusive_ca or rng.random() < 0.35):
        k = min(len(own), rng.randint(1, 2))
        destinations.extend(s.fqdn for s in rng.sample(own, k))
    if profile.exclusive_ca:
        return destinations
    if device.routing:
        routed = sorted(device.routing)
        k = min(len(routed), rng.randint(2, 3))
        destinations.extend(rng.sample(routed, k))
    for spec in common:
        per_sld = max(1, sum(1 for s in common if s.sld == spec.sld))
        p = _COMMON_VISIT_P.get(spec.sld, _DEFAULT_COMMON_P)
        if rng.random() < (p / per_sld) * 1.1:
            destinations.append(spec.fqdn)
    for spec in by_category.get(profile.category, []):
        if rng.random() < 0.06:
            destinations.append(spec.fqdn)
    for spec in apps:
        if rng.random() < 0.004:
            destinations.append(spec.fqdn)
    seen, out = set(), []
    for fqdn in destinations:
        if fqdn not in seen:
            seen.add(fqdn)
            out.append(fqdn)
    if not out:
        fallback_pool = own or common
        if fallback_pool:
            out.append(rng.choice(fallback_pool).fqdn)
    return out


class TestPickDestinations:
    def test_hoisted_count_equals_per_spec_recount(self, generator, study):
        assert generator.seed == study.seed
        world = study.world
        common, common_per_sld, by_category, by_vendor, apps = \
            generator._destination_pools(world)
        assert sum(common_per_sld.values()) == len(common)
        profiles = world.profile_by_name()
        for device in world.devices:
            profile = profiles[device.vendor]
            rng = stable_rng(world.seed, "traffic", device.device_id)
            oracle_rng = stable_rng(world.seed, "traffic", device.device_id)
            picked = generator._pick_destinations(
                device, profile, rng, common, common_per_sld, by_category,
                by_vendor, apps)
            expected = _pick_destinations_quadratic(
                device, profile, oracle_rng, common, by_category, by_vendor,
                apps)
            assert picked == expected, device.device_id
            assert rng.getstate() == oracle_rng.getstate(), device.device_id
