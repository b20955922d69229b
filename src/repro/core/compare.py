"""Compare two study runs (different seeds, or code revisions).

Used for the seed-stability ablation and for regression-checking a
calibrated world after generator changes: computes both studies' headline
metrics and their deltas, flagging any that moved outside a tolerance.
"""

from dataclasses import dataclass

from repro.core.customization import degree_distribution, doc_vendor_all
from repro.core.matching import match_report
from repro.core.security import vulnerability_report


@dataclass(frozen=True)
class Headline:
    """One comparable metric: name, value, and its tolerance band."""

    name: str
    value: float
    tolerance: float


def client_headlines(dataset, corpus):
    """The headline client-side metrics with their stability tolerances."""
    match = match_report(dataset, corpus)
    degrees = degree_distribution(dataset)
    vulnerability = vulnerability_report(dataset)
    doc = list(doc_vendor_all(dataset).values())
    return [
        Headline("fingerprints", dataset.fingerprint_count, 120),
        Headline("library_match_share", match.matched_fraction, 0.02),
        Headline("degree_one_share", degrees["1"], 0.08),
        Headline("vulnerable_share",
                 vulnerability.vulnerable_fraction, 0.10),
        Headline("vendors_with_unique_fp",
                 sum(1 for v in doc if v > 0) / len(doc), 0.10),
        Headline("fully_unique_vendors",
                 sum(1 for v in doc if v == 1) / len(doc), 0.10),
    ]


@dataclass(frozen=True)
class HeadlineDelta:
    name: str
    baseline: float
    candidate: float
    tolerance: float

    @property
    def delta(self):
        return self.candidate - self.baseline

    @property
    def within_tolerance(self):
        return abs(self.delta) <= self.tolerance


def compare_headlines(baseline, candidate):
    """Pair up two headline lists; raises on mismatched metric sets."""
    base_by_name = {headline.name: headline for headline in baseline}
    cand_by_name = {headline.name: headline for headline in candidate}
    if set(base_by_name) != set(cand_by_name):
        raise ValueError("headline sets differ: "
                         f"{set(base_by_name) ^ set(cand_by_name)}")
    deltas = []
    for name in sorted(base_by_name):
        deltas.append(HeadlineDelta(
            name=name, baseline=base_by_name[name].value,
            candidate=cand_by_name[name].value,
            tolerance=base_by_name[name].tolerance))
    return deltas


def compare_datasets(dataset_a, dataset_b, corpus):
    """Full comparison of two captures; returns the delta list."""
    return compare_headlines(client_headlines(dataset_a, corpus),
                             client_headlines(dataset_b, corpus))


def drifted(deltas):
    """The deltas outside their tolerance band."""
    return [delta for delta in deltas if not delta.within_tolerance]
