"""Unit tests for the DoC metrics on the hand-built mini dataset."""

import pytest

from repro.core import customization


class TestDegreeDistribution:
    def test_mini_distribution(self, mini_dataset):
        distribution = customization.degree_distribution(mini_dataset)
        # 1 unique fingerprint, 2 shared by both vendors.
        assert distribution["1"] == pytest.approx(1 / 3)
        assert distribution["2"] == pytest.approx(2 / 3)
        assert distribution["3-5"] == 0
        assert distribution[">5"] == 0

    def test_buckets_sum_to_one(self, dataset):
        distribution = customization.degree_distribution(dataset)
        assert sum(distribution.values()) == pytest.approx(1.0)


class TestDoCVendor:
    def test_values(self, mini_dataset):
        # Acme: 1 of 3 fingerprints is unique → 1/3.
        assert customization.doc_vendor(mini_dataset, "Acme") == \
            pytest.approx(1 / 3)
        # Bolt: both fingerprints shared with Acme → 0.
        assert customization.doc_vendor(mini_dataset, "Bolt") == 0.0

    def test_unknown_vendor(self, mini_dataset):
        assert customization.doc_vendor(mini_dataset, "Ghost") == 0.0

    def test_all_vendors(self, mini_dataset):
        values = customization.doc_vendor_all(mini_dataset)
        assert set(values) == {"Acme", "Bolt"}

    def test_range_invariant(self, dataset):
        for value in customization.doc_vendor_all(dataset).values():
            assert 0.0 <= value <= 1.0


class TestDoCDevice:
    def test_per_device(self, mini_dataset):
        # dev-a1's one fingerprint is unique within Acme → DoC 1.
        assert customization.doc_device(mini_dataset, "dev-a1") == 1.0
        # dev-a2's two fingerprints are unique *within Acme* (dev-a1
        # doesn't use them) → DoC 1 as well.
        assert customization.doc_device(mini_dataset, "dev-a2") == 1.0

    def test_vendor_mean(self, mini_dataset):
        assert customization.doc_device_vendor(mini_dataset, "Acme") == 1.0

    def test_within_vendor_scoping(self):
        from repro.inspector.dataset import InspectorDataset
        from tests.conftest import make_record
        # Two Acme devices sharing one fingerprint → both DoC 0.
        shared = dict(suites=(0x0035,), extensions=(0,))
        records = [
            make_record(device="a", vendor="Acme", **shared),
            make_record(device="b", vendor="Acme", **shared),
        ]
        ds = InspectorDataset(records)
        assert customization.doc_device(ds, "a") == 0.0
        assert customization.doc_device_vendor(ds, "Acme") == 0.0

    def test_distribution_structure(self, mini_dataset):
        dist = customization.doc_distribution(mini_dataset)
        assert len(dist["Acme"]) == 2
        assert len(dist["Bolt"]) == 1


class TestHeterogeneity:
    def test_mini_rows(self, mini_dataset):
        row = customization.vendor_heterogeneity(mini_dataset, "Acme")
        assert row.fingerprint_count == 3
        assert row.shared_by_10_or_more == 0.0
        assert row.used_by_one_device == 1.0

    def test_empty_vendor(self, mini_dataset):
        row = customization.vendor_heterogeneity(mini_dataset, "Ghost")
        assert row.fingerprint_count == 0

    def test_top_sorted_by_count(self, dataset):
        rows = customization.top_vendor_heterogeneity(dataset, top=10)
        counts = [row.fingerprint_count for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert len(rows) == 10

    def test_amazon_leads(self, dataset):
        rows = customization.top_vendor_heterogeneity(dataset, top=3)
        assert rows[0].vendor == "Amazon"


def _doc_device_per_pair(dataset, device_id):
    """Per-device DoC rebuilding each fingerprint's vendor device set."""
    fingerprints = dataset.device_fingerprints(device_id)
    if not fingerprints:
        return 0.0
    vendor = dataset.device_vendor(device_id)
    solely = sum(1 for fp in fingerprints
                 if {d for d in dataset.fingerprint_devices(fp)
                     if dataset.device_vendor(d) == vendor} == {device_id})
    return solely / len(fingerprints)


class TestSetsBuiltOncePerVendor:
    """The per-vendor fingerprint device sets give the per-pair values."""

    @pytest.fixture(params=["study", "mini"])
    def any_dataset(self, request):
        name = "dataset" if request.param == "study" else "mini_dataset"
        return request.getfixturevalue(name)

    def test_doc_device_all_and_distribution(self, any_dataset):
        per_vendor = {vendor: [_doc_device_per_pair(any_dataset, d)
                               for d in any_dataset.devices_of_vendor(vendor)]
                      for vendor in any_dataset.vendor_names()}
        assert customization.doc_distribution(any_dataset) == per_vendor
        assert customization.doc_device_all(any_dataset) == {
            vendor: sum(docs) / len(docs)
            for vendor, docs in per_vendor.items()}
        for device_id in any_dataset.device_ids()[::7]:
            assert customization.doc_device(any_dataset, device_id) == \
                _doc_device_per_pair(any_dataset, device_id)

    def test_heterogeneity(self, any_dataset):
        for vendor in any_dataset.vendor_names():
            fps = any_dataset.vendor_fingerprints(vendor)
            sizes = [len({d for d in any_dataset.fingerprint_devices(fp)
                          if any_dataset.device_vendor(d) == vendor})
                     for fp in fps]
            row = customization.vendor_heterogeneity(any_dataset, vendor)
            assert row.shared_by_10_or_more == \
                sum(size >= 10 for size in sizes) / len(fps)
            assert row.used_by_one_device == \
                sum(size == 1 for size in sizes) / len(fps)
