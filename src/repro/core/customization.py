"""Sections 4.2–4.3 — customization metrics across vendors and devices.

Implements the paper's degree-of-customization metrics:

- fingerprint *degree* (number of vendors using it) and the Table 2
  distribution;
- ``DoC_vendor`` — fraction of a vendor's fingerprints used by no other
  vendor (Figure 2, red);
- per-device ``DoC`` — fraction of a device's fingerprints used by no
  other device *of the same vendor* — and its vendor mean ``DoC_device``
  (Figure 2, blue; Figure 10);
- Table 3's per-vendor heterogeneity statistics.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass


def degree_distribution(dataset):
    """Table 2 — fraction of fingerprints per degree bucket."""
    buckets = Counter()
    for fp in dataset.fingerprints():
        degree = dataset.fingerprint_degree(fp)
        if degree == 1:
            buckets["1"] += 1
        elif degree == 2:
            buckets["2"] += 1
        elif degree <= 5:
            buckets["3-5"] += 1
        else:
            buckets[">5"] += 1
    total = max(1, sum(buckets.values()))
    return {key: buckets[key] / total for key in ("1", "2", "3-5", ">5")}


def doc_vendor(dataset, vendor):
    """``DoC_vendor`` — #fingerprints solely used by this vendor over
    #fingerprints used by this vendor."""
    fingerprints = dataset.vendor_fingerprints(vendor)
    if not fingerprints:
        return 0.0
    solely = sum(1 for fp in fingerprints
                 if dataset.fingerprint_degree(fp) == 1)
    return solely / len(fingerprints)


def doc_vendor_all(dataset):
    """vendor → DoC_vendor for every vendor (Figure 2 red CDF input)."""
    return {vendor: doc_vendor(dataset, vendor)
            for vendor in dataset.vendor_names()}


def _vendor_fingerprint_devices(dataset, vendor):
    """fingerprint → the devices of ``vendor`` proposing it.

    Built once per vendor, so the per-device and per-fingerprint
    metrics below read each set instead of rebuilding it for every
    (device, fingerprint) pair.
    """
    devices = defaultdict(set)
    for device_id in dataset.devices_of_vendor(vendor):
        for fp in dataset.device_fingerprints(device_id):
            devices[fp].add(device_id)
    return devices


def _device_doc(dataset, device_id, fingerprint_devices):
    fingerprints = dataset.device_fingerprints(device_id)
    if not fingerprints:
        return 0.0
    solely = sum(1 for fp in fingerprints
                 if fingerprint_devices[fp] == {device_id})
    return solely / len(fingerprints)


def doc_device(dataset, device_id):
    """Per-device ``DoC`` within its vendor (Section 4.3)."""
    if not dataset.device_fingerprints(device_id):
        return 0.0
    vendor = dataset.device_vendor(device_id)
    return _device_doc(dataset, device_id,
                       _vendor_fingerprint_devices(dataset, vendor))


def _vendor_device_docs(dataset, vendor):
    """Per-device DoC of each of the vendor's devices, in device order."""
    fingerprint_devices = _vendor_fingerprint_devices(dataset, vendor)
    return [_device_doc(dataset, device_id, fingerprint_devices)
            for device_id in dataset.devices_of_vendor(vendor)]


def doc_device_vendor(dataset, vendor):
    """``DoC_device`` — mean per-device DoC across a vendor's devices."""
    docs = _vendor_device_docs(dataset, vendor)
    if not docs:
        return 0.0
    return sum(docs) / len(docs)


def doc_device_all(dataset):
    """vendor → DoC_device (Figure 2 blue CDF input)."""
    return {vendor: doc_device_vendor(dataset, vendor)
            for vendor in dataset.vendor_names()}


def doc_distribution(dataset):
    """Figure 10 — vendor → list of per-device DoC values."""
    return {vendor: _vendor_device_docs(dataset, vendor)
            for vendor in dataset.vendor_names()}


@dataclass(frozen=True)
class VendorHeterogeneity:
    """One Table 3 row."""

    vendor: str
    fingerprint_count: int
    shared_by_10_or_more: float   # fraction of fingerprints on ≥10 devices
    used_by_one_device: float     # fraction of fingerprints on exactly 1


def vendor_heterogeneity(dataset, vendor):
    """Compute one vendor's Table 3 row."""
    fingerprints = dataset.vendor_fingerprints(vendor)
    if not fingerprints:
        return VendorHeterogeneity(vendor, 0, 0.0, 0.0)
    fingerprint_devices = _vendor_fingerprint_devices(dataset, vendor)
    shared10 = single = 0
    for fp in fingerprints:
        devices = fingerprint_devices[fp]
        if len(devices) >= 10:
            shared10 += 1
        if len(devices) == 1:
            single += 1
    total = len(fingerprints)
    return VendorHeterogeneity(vendor, total, shared10 / total,
                               single / total)


def top_vendor_heterogeneity(dataset, top=10):
    """Table 3 — the ``top`` vendors by fingerprint count."""
    rows = [vendor_heterogeneity(dataset, vendor)
            for vendor in dataset.vendor_names()]
    rows.sort(key=lambda row: row.fingerprint_count, reverse=True)
    return rows[:top]
