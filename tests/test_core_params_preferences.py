"""Unit tests for TLS parameter and preference-order analyses."""

import pytest

from repro.core import params, preferences
from repro.inspector.dataset import InspectorDataset
from repro.tlslib.ciphersuites import FALLBACK_SCSV, suite_by_code
from repro.tlslib.grease import is_grease
from repro.tlslib.versions import TLSVersion
from tests.conftest import make_record


@pytest.fixture
def param_dataset():
    records = [
        make_record(device="d1", vendor="V1",
                    version=TLSVersion.TLS_1_2, suites=(0xC02F,)),
        make_record(device="d1", vendor="V1",
                    version=TLSVersion.SSL_3_0, suites=(0x0005, 0x0035)),
        make_record(device="d2", vendor="V2",
                    version=TLSVersion.TLS_1_0,
                    suites=(0x0035, 0x000A, FALLBACK_SCSV),
                    extensions=(0, 5)),
        make_record(device="d3", vendor="V2",
                    version=TLSVersion.TLS_1_2,
                    suites=(0x0A0A, 0x00FF, 0x000A, 0xC02F),
                    extensions=(0x0A0A, 0, 10)),
    ]
    return InspectorDataset(records)


class TestVersions:
    def test_proposal_counts(self, param_dataset):
        counts = params.version_proposals(param_dataset)
        assert counts[TLSVersion.TLS_1_2] == 2
        assert counts[TLSVersion.SSL_3_0] == 1
        assert counts[TLSVersion.TLS_1_0] == 1
        assert counts[TLSVersion.TLS_1_3] == 0

    def test_ssl3_devices(self, param_dataset):
        devices, vendors = params.ssl3_devices(param_dataset)
        assert devices == {"d1": 1}
        assert vendors == {"V1": 1}

    def test_multi_version_devices(self, param_dataset):
        assert params.multi_version_devices(param_dataset) == ["d1"]

    def test_no_tls13_in_study(self, dataset):
        counts = params.version_proposals(dataset)
        assert counts[TLSVersion.TLS_1_3] == 0
        assert counts[TLSVersion.TLS_1_2] > 0

    def test_ssl3_study_counts(self, dataset):
        devices, vendors = params.ssl3_devices(dataset)
        # Paper: 26 devices of Amazon(13)/Synology(5)/Samsung(4)/LG(2)/
        # TP-Link(1)/WD(1).
        assert 18 <= len(devices) <= 30
        assert set(vendors) <= {"Amazon", "Synology", "Samsung", "LG",
                                "TP-Link", "Western Digital"}


class TestSCSVAndExtensions:
    def test_fallback_detection(self, param_dataset):
        devices, vendors = params.fallback_scsv_usage(param_dataset)
        assert devices == ["d2"]
        assert vendors == ["V2"]

    def test_ocsp_detection(self, param_dataset):
        devices, vendors = params.ocsp_usage(param_dataset)
        assert devices == ["d2"]

    def test_grease_detection(self, param_dataset):
        usage = params.grease_usage(param_dataset)
        assert usage["suite_devices"] == ["d3"]
        assert usage["extension_devices"] == ["d3"]
        assert usage["extension_only_devices"] == []

    def test_extension_usage_names(self, param_dataset):
        usage = params.extension_usage(param_dataset)
        assert usage["server_name"] == 3
        assert usage["status_request"] == 1

    def test_extension_divergence(self, dataset, corpus):
        divergence = params.extension_divergence(dataset, corpus)
        assert divergence["cases"] >= 0
        # Added extensions are reported by name.
        for name in divergence["added"]:
            assert isinstance(name, str)


class TestPreferences:
    def test_lowest_vulnerable_index(self, param_dataset):
        indexes = preferences.lowest_vulnerable_index(param_dataset)
        # d1's SSL3 list: RC4 first → index 0.
        assert 0 in indexes["V1"]
        # d2: 3DES at real-suite index 1; d3: GREASE+SCSV skipped → 0.
        assert sorted(indexes["V2"]) == [0, 1]

    def test_clean_vendor_absent(self, param_dataset):
        clean = preferences.vendors_without_vulnerable(param_dataset)
        assert clean == []  # both vendors propose vulnerable suites

    def test_vulnerable_first_vendors(self, param_dataset):
        first = preferences.vendors_preferring_vulnerable_first(
            param_dataset)
        assert "V1" in first   # RC4 leads d1's SSL3 list
        assert "V2" in first   # d3's first real suite is 3DES

    def test_preferred_components(self, param_dataset):
        shares = preferences.preferred_components(param_dataset)
        assert shares["cipher"]["V1"]["AES_128_GCM"] == 1
        assert shares["cipher"]["V1"]["RC4_128"] == 1
        # d2's first suite is AES_256_CBC; d3 leads with the renegotiation
        # SCSV (after GREASE) and is therefore excluded, as in the paper.
        assert shares["cipher"]["V2"]["AES_256_CBC"] == 1
        assert sum(shares["cipher"]["V2"].values()) == 1

    def test_study_has_both_clean_and_dirty_vendors(self, dataset):
        clean = preferences.vendors_without_vulnerable(dataset)
        dirty = preferences.vendors_preferring_vulnerable_first(dataset)
        assert 2 <= len(clean) <= 20           # paper: 7
        assert 5 <= len(dirty) <= 30           # paper: 13

    def test_synology_prefers_vulnerable(self, dataset):
        dirty = preferences.vendors_preferring_vulnerable_first(dataset)
        assert "Synology" in dirty or "Belkin" in dirty


# Per-tuple oracles: each classifies every {device, suite list} tuple
# on its own, as the analyses did before they classified each distinct
# list once.


def _lowest_vulnerable_index_per_tuple(dataset):
    indexes = {}
    for (_device, suites), vendor in preferences._tuples(dataset).items():
        position = 0
        for code in suites:
            suite = suite_by_code(code)
            if is_grease(code) or suite.is_signaling:
                continue
            if suite.vulnerable_components():
                indexes.setdefault(vendor, []).append(position)
                break
            position += 1
    return indexes


def _vendors_without_vulnerable_per_tuple(dataset):
    tuples = preferences._tuples(dataset)
    vulnerable = {vendor for (_device, suites), vendor in tuples.items()
                  if any(suite_by_code(code).vulnerable_components()
                         for code in suites)}
    return sorted(set(tuples.values()) - vulnerable)


def _vendors_preferring_vulnerable_first_per_tuple(dataset):
    vendors = set()
    for (_device, suites), vendor in preferences._tuples(dataset).items():
        for code in suites:
            suite = suite_by_code(code)
            if is_grease(code) or suite.is_signaling:
                continue
            if suite.vulnerable_components():
                vendors.add(vendor)
            break
    return sorted(vendors)


class TestPerListEqualsPerTuple:
    @pytest.fixture(params=["study", "hand-built"])
    def any_dataset(self, request, param_dataset):
        if request.param == "study":
            return request.getfixturevalue("dataset")
        return param_dataset

    def test_lowest_vulnerable_index(self, any_dataset):
        assert preferences.lowest_vulnerable_index(any_dataset) == \
            _lowest_vulnerable_index_per_tuple(any_dataset)

    def test_vendors_without_vulnerable(self, any_dataset):
        assert preferences.vendors_without_vulnerable(any_dataset) == \
            _vendors_without_vulnerable_per_tuple(any_dataset)

    def test_vendors_preferring_vulnerable_first(self, any_dataset):
        assert preferences.vendors_preferring_vulnerable_first(
            any_dataset) == \
            _vendors_preferring_vulnerable_first_per_tuple(any_dataset)

    def test_suite_tags_are_computed_once(self):
        suite = suite_by_code(0x000A)
        assert suite.vulnerable_components() == ["3DES"]
        assert suite.vulnerable_components() is not \
            suite.vulnerable_components()
        assert suite._vulnerable_tags is suite._vulnerable_tags
