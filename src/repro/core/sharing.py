"""Section 4.4 — shared fingerprints across vendors.

Two analyses explain why non-standard fingerprints recur across vendors:

- **Jaccard vendor similarity** (Table 4): pairwise similarity of vendor
  fingerprint sets; high-similarity pairs expose shared supply chains
  (HDHomeRun/SiliconDust are one company, Sharp/TCL ship the same TV
  platform, ...).
- **Servers as a proxy for applications** (Table 5): SNIs tied to a
  *server-specific* fingerprint — devices only exhibit that fingerprint
  when talking to that server — reveal per-application TLS stacks; when
  the devices span multiple vendors, the application is a shared SDK.

Table 4 runs on :class:`repro.match.SimilarityIndex` (inverted-index
pruning, exact rescoring); plain-set Jaccard lives at
:func:`repro.match.set_jaccard`.
"""

from collections import defaultdict
from dataclasses import dataclass

from repro.core.security import fingerprint_vulnerable_components
from repro.match.index import SimilarityIndex
from repro.x509.names import second_level_domain


def vendor_index(dataset):
    """The :class:`SimilarityIndex` of every vendor's fingerprint set."""
    index = SimilarityIndex()
    for vendor in dataset.vendor_names():
        index.add(vendor, dataset.vendor_fingerprints(vendor))
    return index


def vendor_similarity_pairs(dataset, threshold=0.2):
    """Table 4 — vendor pairs with Jaccard similarity ≥ ``threshold``.

    Returns ``[(similarity, vendor_a, vendor_b), ...]`` sorted by
    ``(-similarity, vendor_a, vendor_b)``.
    """
    return vendor_index(dataset).all_pairs(threshold)


def similarity_bands(pairs):
    """Group Table 4 pairs into the paper's similarity bands."""
    bands = {"1": [], "[0.7, 1)": [], "[0.4, 0.7)": [], "[0.3, 0.4)": [],
             "[0.2, 0.3)": []}
    for similarity, vendor_a, vendor_b in pairs:
        if similarity >= 1.0:
            bands["1"].append((vendor_a, vendor_b))
        elif similarity >= 0.7:
            bands["[0.7, 1)"].append((vendor_a, vendor_b))
        elif similarity >= 0.4:
            bands["[0.4, 0.7)"].append((vendor_a, vendor_b))
        elif similarity >= 0.3:
            bands["[0.3, 0.4)"].append((vendor_a, vendor_b))
        else:
            bands["[0.2, 0.3)"].append((vendor_a, vendor_b))
    return bands


@dataclass(frozen=True)
class ServerFingerprintTie:
    """One Table 5 row: a {second-level domain, fingerprint} tie."""

    sld: str
    fingerprint: tuple
    fqdn_count: int
    device_count: int
    vendors: tuple
    vulnerable_components: tuple


def server_specific_fingerprints(dataset, corpus=None):
    """Find SNIs tied to server-specific fingerprints (Section 4.4).

    A fingerprint is *server-specific* for an SNI when every device that
    exhibits it does so only toward that server's hosts.  Fingerprints
    matching known libraries are excluded (the paper's analysis targets
    non-standard stacks).

    Returns ``(fraction_of_snis_tied, ties)`` where ``ties`` covers ties
    involving devices of multiple vendors and at least two devices
    (Table 5's filtering), aggregated per {SLD, fingerprint}.
    """
    # For each (device, fp): the set of SLDs it was seen toward.
    slds_by_device_fp = defaultdict(set)
    for record in dataset.records:
        if record.sni:
            slds_by_device_fp[(record.device_id, record.fingerprint())].add(
                second_level_domain(record.sni))
    tied_snis = set()
    # (sld, fp) -> (set of fqdns, set of devices)
    aggregates = defaultdict(lambda: (set(), set()))
    total_snis = 0
    for sni in dataset.snis():
        total_snis += 1
        sld = second_level_domain(sni)
        for fp in dataset.sni_fingerprints(sni):
            if corpus is not None and corpus.match(*fp) is not None:
                continue
            devices = {d for d, f in dataset.sni_device_fingerprints(sni)
                       if f == fp}
            if not devices:
                continue
            # Server-specific: each such device uses fp only toward this
            # SLD, and multiple devices share the behaviour.
            if len(devices) >= 2 and all(
                    slds_by_device_fp[(d, fp)] == {sld} for d in devices):
                tied_snis.add(sni)
                fqdns, all_devices = aggregates[(sld, fp)]
                fqdns.add(sni)
                all_devices.update(devices)
    ties = []
    for (sld, fp), (fqdns, devices) in aggregates.items():
        if len(devices) < 2:
            continue  # exclude single-device outliers (paper's rule)
        vendors = tuple(sorted({dataset.device_vendor(d) for d in devices}))
        if len(vendors) < 2:
            continue  # Table 5 reports cross-vendor ties
        ties.append(ServerFingerprintTie(
            sld=sld, fingerprint=fp, fqdn_count=len(fqdns),
            device_count=len(devices), vendors=vendors,
            vulnerable_components=tuple(
                fingerprint_vulnerable_components(fp))))
    ties.sort(key=lambda tie: (-tie.device_count, tie.sld))
    fraction = len(tied_snis) / max(1, total_snis)
    return fraction, ties
