"""Section 4.1 — matching device fingerprints to known libraries.

Compares every distinct device fingerprint against the known-library
corpus and summarizes the results the way the paper reports them: how
many fingerprints match (23 of 903, 2.55%), how many distinct libraries
they resolve to (16: 14 curl+OpenSSL, 2 Mbed TLS), and how many of those
libraries were already unsupported in 2020 (14 of 16).

The analysis itself lives on :class:`repro.match.MatchEngine`
(``repro.match.shared_engine().match_report``); this module keeps the
:class:`MatchReport` result type and the case-study helper.
"""

from dataclasses import dataclass, field


@dataclass
class MatchReport:
    """Outcome of the corpus-matching analysis."""

    total_fingerprints: int
    matched: dict = field(default_factory=dict)   # fp key → LibraryFingerprint
    device_counts: dict = field(default_factory=dict)  # fp key → #devices

    @property
    def matched_count(self):
        return len(self.matched)

    @property
    def matched_fraction(self):
        if not self.total_fingerprints:
            return 0.0
        return self.matched_count / self.total_fingerprints

    def matched_libraries(self):
        """Distinct libraries (full names) the matches resolve to."""
        return sorted({library.full_name for library in self.matched.values()})

    def libraries_by_family(self):
        """family → count of distinct matched library versions."""
        families = {}
        for library in set(self.matched.values()):
            families.setdefault(library.library, set()).add(library.version)
        return {family: len(versions)
                for family, versions in sorted(families.items())}

    def unsupported_libraries(self):
        """Matched libraries whose branch was unsupported as of 2020."""
        return sorted({library.full_name
                       for library in self.matched.values()
                       if not library.supported_in_2020})

    def matched_devices(self):
        """Total devices whose fingerprints matched a known library."""
        return sum(self.device_counts.get(fp, 0) for fp in self.matched)


def validate_case_study(dataset, corpus, vendor):
    """Fingerprinting validation for one vendor (the Wyze/Enphase case).

    Returns the matched library names observed for devices of ``vendor``,
    which can be checked against the vendor's open-source disclosures.
    """
    from repro.match.engine import shared_engine
    return shared_engine().validate_case_study(dataset, corpus, vendor)
