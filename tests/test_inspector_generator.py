"""Unit tests for the world generator (structure and determinism)."""

import pytest

from repro.inspector import generator
from repro.inspector.generator import STANDALONE_VENDORS, WorldGenerator
from repro.inspector.io import load_records, save_records
from repro.inspector.vendors import PROFILES_BY_NAME, VENDOR_PROFILES
from repro.tlslib.clienthello import ClientHello, captured_fields
from repro.tlslib.extensions import ExtensionType
from repro.verify.canonical import digest


class TestStructure:
    def test_every_device_has_base_stack(self, study):
        for device in study.world.devices:
            assert "base" in device.stacks

    def test_every_device_emits_records(self, study, dataset):
        emitting = {record.device_id for record in dataset.records}
        built = {device.device_id for device in study.world.devices}
        assert built == emitting

    def test_device_vendor_matches_profile(self, study):
        for device in study.world.devices:
            assert device.vendor in PROFILES_BY_NAME

    def test_per_vendor_device_counts(self, study):
        from collections import Counter
        counts = Counter(d.vendor for d in study.world.devices)
        for profile in VENDOR_PROFILES:
            assert counts[profile.name] == profile.devices

    def test_labels_identify_as_vendor(self, study):
        from repro.inspector.labels import identify
        names = study.world.vendor_names()
        for device in study.world.devices[::37]:
            assert identify(device.label, names)[0] == device.vendor

    def test_routing_points_at_existing_stacks(self, study):
        for device in study.world.devices:
            for stack_key in device.routing.values():
                assert stack_key in device.stacks

    def test_all_stacks_carry_sni_extension(self, study):
        for device in study.world.devices[::51]:
            for stack in device.stacks.values():
                assert int(ExtensionType.SERVER_NAME) in stack.extensions


class TestServers:
    def test_fqdn_uniqueness(self, study):
        fqdns = [spec.fqdn for spec in study.world.servers]
        assert len(fqdns) == len(set(fqdns))

    def test_fqdn_belongs_to_sld(self, study):
        for spec in study.world.servers:
            assert spec.fqdn.endswith(spec.sld)

    def test_cn_mismatch_host_named_a2(self, study):
        mismatches = [spec for spec in study.world.servers
                      if spec.cn_mismatch]
        assert any(spec.fqdn == "a2.tuyaus.com" for spec in mismatches)

    def test_every_reachable_sni_observed_from_3_users(self, study,
                                                       dataset):
        for spec in study.world.reachable_servers()[::29]:
            assert len(dataset.sni_users(spec.fqdn)) >= 3

    def test_unreachable_not_in_records_requirement(self, study):
        # Unreachable servers were alive during capture; they may appear
        # in records, and the generator keeps the probing failure list at
        # exactly the paper's 43.
        unreachable = [s for s in study.world.servers if s.unreachable]
        assert len(unreachable) == 43


class TestRecords:
    def test_timestamps_within_capture_window(self, dataset):
        from repro.inspector.timeline import CAPTURE_END, CAPTURE_START
        for record in dataset.records[::101]:
            assert CAPTURE_START <= record.timestamp <= CAPTURE_END

    def test_records_sorted_by_time(self, dataset):
        stamps = [record.timestamp for record in dataset.records]
        assert stamps == sorted(stamps)

    def test_sni_always_present(self, dataset):
        assert all(record.sni for record in dataset.records)

    def test_rare_snis_filtered(self, study, dataset):
        assert study.world.funnel["rare_snis_filtered"] > 0
        for record in dataset.records:
            assert "rare-service" not in record.sni


class TestDeterminism:
    def test_same_seed_same_world(self):
        world_a = WorldGenerator(seed=11).generate()
        world_b = WorldGenerator(seed=11).generate()
        records_a = [(r.device_id, r.sni, r.ciphersuites)
                     for r in world_a.records]
        records_b = [(r.device_id, r.sni, r.ciphersuites)
                     for r in world_b.records]
        assert records_a == records_b

    def test_different_seed_different_world(self):
        world_a = WorldGenerator(seed=11).generate()
        world_b = WorldGenerator(seed=12).generate()
        records_a = [(r.device_id, r.sni, r.ciphersuites)
                     for r in world_a.records]
        records_b = [(r.device_id, r.sni, r.ciphersuites)
                     for r in world_b.records]
        assert records_a != records_b


class TestCaptureWithoutCodec:
    """Each capture record is built from the stack and the SNI instead of
    a wire round trip; these tests hold that shortcut to the codec."""

    #: digest of every world record's JSON row, recorded when each record
    #: still went through ``ClientHello.to_bytes`` and ``from_bytes``.
    CODEC_DIGESTS = {
        2023: "d4ada1b9bec9a5803e694c97196d17cf"
              "1191481cebed0a03c131c1fa379f37b2",
        7: "62189dd6ce7c49f9870ea631d397e52d"
           "23cf2cf6ad78a0c8643d642eebd6052d",
        2024: "fe3f2fc7b942b48eeac9291e85e96c7f"
              "5f8108d7781c88e8db138fc33c38dcfb",
    }

    @pytest.mark.parametrize("seed", sorted(CODEC_DIGESTS))
    def test_records_equal_the_codec_round_trip(self, seed, monkeypatch):
        round_trips = {}

        def checked(version, suites, extensions, sni):
            fields = captured_fields(version, suites, extensions, sni)
            key = (version, tuple(suites), tuple(extensions), sni)
            if key not in round_trips:
                parsed = ClientHello.from_bytes(ClientHello(
                    version=version, ciphersuites=list(suites),
                    extensions=list(extensions), sni=sni,
                    random=bytes(32)).to_bytes())
                round_trips[key] = (parsed.version,
                                    tuple(parsed.ciphersuites),
                                    tuple(parsed.extensions), parsed.sni)
            assert fields == round_trips[key]
            assert all(type(code) is int for code in fields[1] + fields[2])
            return fields

        monkeypatch.setattr(generator, "captured_fields", checked)
        world = WorldGenerator(seed=seed).generate()
        assert len(round_trips) > 5000
        rows = [record.to_json() for record in world.records]
        assert digest(rows) == self.CODEC_DIGESTS[seed]


class TestStandaloneVendors:
    def test_standalone_membership(self):
        assert "Tuya" in STANDALONE_VENDORS
        assert "Amazon" not in STANDALONE_VENDORS

    def test_exclusive_vendor_destinations(self, dataset):
        # Canary devices only talk to canaryis.com hosts.
        for device_id in dataset.devices_of_vendor("Canary"):
            for record in dataset.records_of_device(device_id):
                assert record.sni.endswith("canaryis.com")


class TestPersistence:
    def test_jsonl_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "records.jsonl"
        subset = dataset.records[:50]
        save_records(subset, path)
        loaded = load_records(path)
        assert loaded == subset
