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

Both analyses execute on :class:`repro.match.MatchEngine`; this module
keeps the result types (:class:`ServerFingerprintTie`,
:func:`similarity_bands`) and free functions that delegate to the
process engine.  Plain-set Jaccard lives at
:func:`repro.match.set_jaccard`.
"""

from dataclasses import dataclass


def vendor_similarity_pairs(dataset, threshold=0.2):
    """Table 4 — vendor pairs with Jaccard similarity ≥ ``threshold``.

    Returns a list of ``(similarity, vendor_a, vendor_b)`` sorted by
    similarity, descending.  Delegates to the process
    :class:`repro.match.MatchEngine` (inverted-index pruning, exact
    rescoring).
    """
    from repro.match.engine import shared_engine
    return shared_engine().vendor_similarity_pairs(dataset,
                                                   threshold=threshold)


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
    (Table 5's filtering), aggregated per {SLD, fingerprint}.  The
    algorithm body lives on :class:`repro.match.MatchEngine`.
    """
    from repro.match.engine import shared_engine
    return shared_engine().server_specific_fingerprints(dataset,
                                                        corpus=corpus)
