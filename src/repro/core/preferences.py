"""Appendix B.7 / B.8 — ciphersuite preference-order analyses.

Many servers honor the client's preference order, so the *position* of
vulnerable suites matters:

- B.7 (Figure 11): the lowest index of a vulnerable suite in each
  {device, ciphersuite list} tuple, aggregated per vendor;
- B.8 (Figure 12): the component algorithms (kx+auth, cipher, MAC) of the
  *first* suite in each list, per vendor — surfacing vendors that prefer
  RC4 or even anonymous/export key exchange first.
"""

from collections import Counter, defaultdict

from repro.tlslib.ciphersuites import suite_by_code
from repro.tlslib.grease import is_grease


def _tuples(dataset):
    """Distinct {device, ciphersuite list} tuples with vendor attribution."""
    seen = {}
    for record in dataset.records:
        seen.setdefault((record.device_id, record.ciphersuites),
                        record.vendor)
    return seen


def _lowest_vulnerable_position(suites):
    """Index, among the real (non-GREASE, non-signaling) suites, of the
    first vulnerable one; ``None`` when no suite is vulnerable."""
    position = 0
    for code in suites:
        suite = suite_by_code(code)
        if is_grease(code) or suite.is_signaling:
            continue
        if suite.vulnerable_components():
            return position
        position += 1
    return None


def _vendor_positions(dataset):
    """``(vendor, lowest vulnerable position)`` per tuple, in tuple order.

    The capture's thousands of tuples hold under a thousand distinct
    suite lists, so each list is classified once.
    """
    tuples = _tuples(dataset)
    positions = {suites: _lowest_vulnerable_position(suites)
                 for suites in {suites for _device_id, suites in tuples}}
    return [(vendor, positions[suites])
            for (_device_id, suites), vendor in tuples.items()]


def lowest_vulnerable_index(dataset):
    """Figure 11 — vendor → list of lowest vulnerable-suite indexes.

    Each element corresponds to one {device, ciphersuite list} tuple; the
    index counts real (non-GREASE, non-signaling) suites; tuples without
    any vulnerable suite contribute nothing.
    """
    indexes = defaultdict(list)
    for vendor, position in _vendor_positions(dataset):
        if position is not None:
            indexes[vendor].append(position)
    return dict(indexes)


def vendors_without_vulnerable(dataset):
    """Vendors none of whose tuples contain any vulnerable suite."""
    pairs = _vendor_positions(dataset)
    vulnerable = {vendor for vendor, position in pairs
                  if position is not None}
    return sorted({vendor for vendor, _position in pairs} - vulnerable)


def vendors_preferring_vulnerable_first(dataset):
    """Vendors with at least one tuple whose first real suite is vulnerable."""
    return sorted({vendor for vendor, position in _vendor_positions(dataset)
                   if position == 0})


def preferred_components(dataset):
    """Figure 12 — per-vendor usage share of first-suite components.

    Returns ``{"kx": {vendor: Counter}, "cipher": ..., "mac": ...}``.
    Tuples whose first entry is a signaling value (e.g. the empty
    renegotiation SCSV) are excluded, as in the paper.
    """
    shares = {"kx": defaultdict(Counter), "cipher": defaultdict(Counter),
              "mac": defaultdict(Counter)}
    for (device_id, suites), vendor in _tuples(dataset).items():
        first = None
        for code in suites:
            if is_grease(code):
                continue
            first = suite_by_code(code)
            break
        if first is None or first.is_signaling:
            continue
        shares["kx"][vendor][first.kx] += 1
        shares["cipher"][vendor][first.cipher] += 1
        shares["mac"][vendor][first.mac] += 1
    return {component: dict(by_vendor)
            for component, by_vendor in shares.items()}
