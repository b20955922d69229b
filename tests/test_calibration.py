"""Study-level calibration: the paper's headline numbers must hold in shape.

Each assertion uses a tolerance band around the value the paper reports;
absolute equality is expected only where the generator pins the quantity
exactly (population sizes).
"""

import pytest

from repro.core import customization, security, sharing
from repro.core.issuers import issuer_report
from repro.core.matching import match_report
from repro.core.tables import percent


class TestPopulations:
    def test_device_count(self, dataset):
        assert dataset.device_count == 2014

    def test_vendor_count(self, dataset):
        assert dataset.vendor_count == 65

    def test_user_count(self, dataset):
        assert dataset.user_count == 721

    def test_sni_counts(self, study):
        assert len(study.world.servers) == 1194
        assert len(study.world.reachable_servers()) == 1151

    def test_unreachable_at_probe(self, certificates):
        assert len(certificates.unreachable_fqdns()) == 43

    def test_sld_count(self, study):
        assert len(study.world.servers_by_sld()) == 357


class TestClientSideShape:
    def test_fingerprint_count_near_903(self, dataset):
        assert 800 <= dataset.fingerprint_count <= 1010

    def test_match_rate_near_2_55_percent(self, dataset, corpus):
        report = match_report(dataset, corpus)
        assert 0.012 <= report.matched_fraction <= 0.042
        # ~98% of fingerprints do NOT match known libraries.
        assert report.matched_fraction < 0.05

    def test_matched_libraries_mostly_unsupported(self, dataset, corpus):
        report = match_report(dataset, corpus)
        libraries = report.matched_libraries()
        unsupported = report.unsupported_libraries()
        assert len(unsupported) >= 0.8 * len(libraries)

    def test_matched_families(self, dataset, corpus):
        report = match_report(dataset, corpus)
        families = report.libraries_by_family()
        # The paper's matches resolve to curl+OpenSSL and Mbed TLS.
        assert families.get("curl+OpenSSL", 0) >= 10
        assert families.get("Mbed TLS", 0) >= 1

    def test_degree_distribution(self, dataset):
        distribution = customization.degree_distribution(dataset)
        assert 0.70 <= distribution["1"] <= 0.83       # paper: 77.47%
        assert 0.07 <= distribution["2"] <= 0.17       # paper: 11.43%
        assert 0.04 <= distribution["3-5"] <= 0.13     # paper: 8.32%
        assert 0.005 <= distribution[">5"] <= 0.06     # paper: 2.78%

    def test_vulnerable_share(self, dataset):
        report = security.vulnerability_report(dataset)
        assert 0.33 <= report.vulnerable_fraction <= 0.55  # paper: 44.63%
        assert 0.30 <= report.component_fraction("3DES") <= 0.52
        # 3DES is the most common vulnerable component.
        assert report.component_counts["3DES"] == max(
            report.component_counts.values())

    def test_severe_suites_limited(self, dataset):
        report = security.vulnerability_report(dataset)
        # Paper: 31 fingerprints / 27 devices / 14 vendors.
        assert 8 <= report.severe_fingerprints <= 60
        assert 10 <= len(report.severe_devices) <= 60
        assert 4 <= len(report.severe_vendors) <= 20

    def test_doc_vendor_shape(self, dataset):
        values = list(customization.doc_vendor_all(dataset).values())
        with_unique = sum(1 for v in values if v > 0) / len(values)
        fully_unique = sum(1 for v in values if v == 1) / len(values)
        assert with_unique > 0.70     # paper: "over 70% of vendors"
        assert 0.10 <= fully_unique <= 0.35   # paper: ~20%

    def test_supply_chain_pairs(self, dataset):
        pairs = sharing.vendor_similarity_pairs(dataset)
        as_dict = {(a, b): s for s, a, b in pairs}
        assert as_dict.get(("HDHomeRun", "SiliconDust")) == 1.0
        assert as_dict.get(("Sharp", "TCL"), 0) >= 0.5
        assert as_dict.get(("Arlo", "NETGEAR"), 0) >= 0.2

    def test_server_ties_near_17_percent(self, dataset, corpus):
        fraction, ties = sharing.server_specific_fingerprints(dataset,
                                                              corpus)
        assert 0.08 <= fraction <= 0.30    # paper: 17.42%
        vendors_seen = {v for tie in ties for v in tie.vendors}
        # Cross-vendor ties exist and include the Roku-platform brands.
        assert {"Roku", "TCL"} <= vendors_seen


class TestServerSideShape:
    def test_leaf_and_org_counts(self, study, dataset, certificates):
        report = issuer_report(dataset, certificates, study.ecosystem)
        assert 700 <= report.leaf_count <= 900     # paper: 842
        assert report.issuer_org_count == 33

    def test_digicert_share(self, study, dataset, certificates):
        report = issuer_report(dataset, certificates, study.ecosystem)
        assert 0.40 <= report.issuer_share("DigiCert") <= 0.54  # 47.26%

    def test_private_ca_share(self, study, dataset, certificates):
        report = issuer_report(dataset, certificates, study.ecosystem)
        assert 0.06 <= report.private_leaf_share() <= 0.14      # 9.86%

    def test_self_signing_vendors(self, study, dataset, certificates):
        report = issuer_report(dataset, certificates, study.ecosystem)
        self_signing = report.vendors_self_signing()
        assert 12 <= len(self_signing) <= 16       # paper: 16
        for vendor in ("Roku", "Samsung", "Tuya", "Canary"):
            assert vendor in self_signing

    def test_exclusive_vendor_ca_usage(self, study, dataset, certificates):
        report = issuer_report(dataset, certificates, study.ecosystem)
        exclusive = report.vendors_exclusively_self_signed()
        assert set(exclusive) == {"Canary", "Obihai", "Tuya"}
