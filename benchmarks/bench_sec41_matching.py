"""Section 4.1 — matching fingerprints to known libraries.

Paper: 903 fingerprints; 23 (2.55%) match 16 known libraries (14
curl+OpenSSL, 2 Mbed TLS); 14 of 16 unsupported as of 2020.
"""

from repro.core.matching import match_report, validate_case_study
from repro.core.tables import percent, render_table


def test_section41_matching(benchmark, dataset, corpus, emit):
    report = benchmark(match_report, dataset, corpus)
    rows = [
        ["distinct device fingerprints", report.total_fingerprints, "903"],
        ["matched fingerprints", report.matched_count, "23"],
        ["matched share", percent(report.matched_fraction), "2.55%"],
        ["distinct libraries", len(report.matched_libraries()), "16"],
        ["unsupported as of 2020", len(report.unsupported_libraries()),
         "14"],
        ["matched devices", report.matched_devices(), "—"],
    ]
    families = ", ".join(f"{family}: {count}" for family, count
                         in report.libraries_by_family().items())
    table = render_table(
        ["quantity", "measured", "paper"], rows,
        title="Section 4.1 — library matching")
    table += f"\nfamilies: {families} (paper: curl+OpenSSL 14, Mbed TLS 2)"
    wyze = validate_case_study(dataset, corpus, "Wyze")
    table += f"\nWyze case study match: {wyze} (paper: OpenSSL 1.0.2u)"
    emit("sec41_matching", table)
    assert report.matched_fraction < 0.05
