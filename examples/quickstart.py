#!/usr/bin/env python
"""Quickstart: build the study world and reproduce the headline findings.

Runs the whole pipeline — generate the synthetic IoT ecosystem, capture
ClientHellos, probe every server from three vantage points — then prints
the paper's three key findings next to the measured values.

Usage::

    python examples/quickstart.py [seed]
"""

import sys

from repro.core.customization import degree_distribution, doc_vendor_all
from repro.core.issuers import issuer_report
from repro.core.matching import match_report
from repro.core.tables import percent, render_table
from repro.study import StudyConfig, get_study


def main(seed=2023):
    print(f"Building the study world (seed={seed})...")
    study = get_study(StudyConfig(seed=seed))
    dataset = study.dataset
    print(f"  devices: {dataset.device_count}, "
          f"vendors: {dataset.vendor_count}, "
          f"users: {dataset.user_count}, "
          f"ClientHellos: {len(dataset)}")
    print(f"  servers: {len(study.world.servers)} SNIs "
          f"({len(study.world.reachable_servers())} reachable at probe)")

    print("\nProbing all servers from three vantage points...")
    certificates = study.certificates
    print(f"  leaf certificates: "
          f"{len(certificates.leaf_certificates())}")

    # Finding 1: heterogeneity — most fingerprints are vendor-unique.
    match = match_report(dataset, study.corpus)
    degrees = degree_distribution(dataset)
    doc = doc_vendor_all(dataset)
    unique_only = sum(1 for v in doc.values() if v == 1.0) / len(doc)

    # Finding 3: vendor-signed certificates escape public monitoring.
    issuers = issuer_report(dataset, certificates, study.ecosystem)

    rows = [
        ["fingerprints matching known libraries",
         percent(match.matched_fraction), "2.55%"],
        ["fingerprints used by a single vendor", percent(degrees["1"]),
         "77.47%"],
        ["vendors with only unique fingerprints", percent(unique_only),
         "~20%"],
        ["leaf certs signed by private CAs",
         percent(issuers.private_leaf_share()), "9.86%"],
        ["DigiCert's share of leaf certs",
         percent(issuers.issuer_share("DigiCert")), "47.26%"],
        ["vendors signing their own servers",
         len(issuers.vendors_self_signing()), "16"],
    ]
    print()
    print(render_table(["key finding", "measured", "paper"], rows,
                       title="Headline findings vs. the paper"))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2023)
