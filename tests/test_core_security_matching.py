"""Unit tests for security classification and library matching analyses."""

import pytest

from repro.core import matching, security
from repro.inspector.dataset import InspectorDataset
from repro.match import shared_engine
from repro.tlslib.ciphersuites import SecurityLevel
from repro.tlslib.versions import TLSVersion
from tests.conftest import make_record


class TestFingerprintSecurity:
    def test_vulnerable_components_aggregated(self):
        fp = (int(TLSVersion.TLS_1_2), (0x000A, 0x0005, 0xC02F), (0,))
        assert security.fingerprint_vulnerable_components(fp) == \
            ["3DES", "RC4"]

    def test_clean_fingerprint(self):
        fp = (int(TLSVersion.TLS_1_2), (0xC02F, 0xC030), (0,))
        assert security.fingerprint_vulnerable_components(fp) == []

    def test_worst_level_wins(self):
        optimal = (int(TLSVersion.TLS_1_2), (0xC02F,), (0,))
        mixed = (int(TLSVersion.TLS_1_2), (0xC02F, 0x0035), (0,))
        bad = (int(TLSVersion.TLS_1_2), (0xC02F, 0x000A), (0,))
        assert security.fingerprint_security_level(optimal) == \
            SecurityLevel.OPTIMAL
        assert security.fingerprint_security_level(mixed) == \
            SecurityLevel.SUBOPTIMAL
        assert security.fingerprint_security_level(bad) == \
            SecurityLevel.VULNERABLE


class TestVulnerabilityReport:
    @pytest.fixture
    def vuln_dataset(self):
        records = [
            make_record(device="d1", vendor="V1", suites=(0x000A, 0xC02F)),
            make_record(device="d2", vendor="V1", suites=(0x000A, 0xC02F)),
            make_record(device="d3", vendor="V2", suites=(0xC02F,)),
            make_record(device="d4", vendor="V3",
                        suites=(0x0034, 0x0003)),  # anon + export
        ]
        return InspectorDataset(records)

    def test_counts(self, vuln_dataset):
        report = security.vulnerability_report(vuln_dataset)
        assert report.total_fingerprints == 3
        assert report.vulnerable_fingerprints == 2
        assert report.multi_device_vulnerable == 1
        assert report.component_counts["3DES"] == 1
        assert report.component_counts["ANON"] == 1

    def test_severe_tracking(self, vuln_dataset):
        report = security.vulnerability_report(vuln_dataset)
        assert report.severe_fingerprints == 1
        assert report.severe_devices == {"d4"}
        assert report.severe_vendors == {"V3"}

    def test_flows_unit_is_device_list_tuple(self, vuln_dataset):
        flows = security.vendor_vulnerability_flows(vuln_dataset)
        # V1: two devices, same list → two flow units under ("3DES",).
        assert flows["V1"][("3DES",)] == 2
        assert flows["V2"][()] == 1


class TestMatching:
    def test_mini_dataset_no_matches(self, mini_dataset, corpus):
        report = shared_engine().match_report(mini_dataset, corpus)
        assert report.matched_count == 0
        assert report.matched_fraction == 0.0

    def test_crafted_exact_match(self, corpus):
        from repro.libraries import openssl
        library = openssl.fingerprint_for("1.0.2u")
        record = make_record(device="wyze-1", vendor="Wyze",
                             version=library.tls_version,
                             suites=library.ciphersuites,
                             extensions=library.extensions)
        ds = InspectorDataset([record])
        report = shared_engine().match_report(ds, corpus)
        assert report.matched_count == 1
        assert report.matched_devices() == 1
        [library_match] = report.matched.values()
        assert "1.0.2u" in library_match.version

    def test_case_study_wyze(self, dataset, corpus):
        # The generator gives Wyze an exact OpenSSL 1.0.2u stack, matching
        # the paper's validation case.
        matches = matching.validate_case_study(dataset, corpus, "Wyze")
        assert any("1.0.2u" in name for name in matches)

    def test_full_dataset_unsupported_dominates(self, dataset, corpus):
        report = shared_engine().match_report(dataset, corpus)
        assert report.matched_count > 0
        assert len(report.unsupported_libraries()) >= \
            0.8 * len(report.matched_libraries())
