"""Server measurement substrate.

Builds the server side of the world — a CA ecosystem
(:mod:`repro.probing.authorities`), a simulated Internet of TLS endpoints
with real certificate issuance (:mod:`repro.probing.network`) — and probes
it the way the paper does: TLS connections to every SNI from three global
vantage points (:mod:`repro.probing.prober`), captured into a
:class:`~repro.probing.certdataset.CertificateDataset`.
"""

from repro.probing.authorities import AuthorityEcosystem
from repro.probing.engine import LatencyModel, ProbeEngine
from repro.probing.network import SimulatedNetwork
from repro.probing.prober import Prober, ProbeResult
from repro.probing.certdataset import CertificateDataset
from repro.probing.vantage import VANTAGE_POINTS, VantagePoint

__all__ = [
    "AuthorityEcosystem",
    "SimulatedNetwork",
    "Prober",
    "ProbeResult",
    "ProbeEngine",
    "LatencyModel",
    "CertificateDataset",
    "VANTAGE_POINTS",
    "VantagePoint",
]
