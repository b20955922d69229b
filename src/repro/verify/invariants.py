"""Paper invariants: declarative ties between outputs and the paper.

Golden baselines catch *any* change; they cannot say whether the
recorded numbers were ever right.  This module pins the reproduction to
the paper's published anchors (Dong et al., IMC 2023, Sections 3-5):
the 6,891-fingerprint library corpus, the 1,151 probed SNIs, the ~2.55%
corpus match rate, bounded DoC/Jaccard ratios, issuer-share and
validity-distribution sanity.  Each anchor is one :class:`Invariant`
whose check runs over the finished pipeline results; the verify CLI
evaluates them all and emits the verdicts into the
:class:`~repro.obs.manifest.RunManifest` (``invariants`` field), so an
artifact's provenance records not just *how* it was produced but that
it still quantitatively resembles the paper.

Tolerances: the reproduction's world is synthetic, so rate-style
anchors get a band around the paper's point estimate (e.g. the match
rate's 2.55% allows 1.5%-4%) while structural anchors (corpus size,
SNI count, probability bounds) are exact.
"""

from dataclasses import dataclass

#: Accepted band around the paper's ~2.55% corpus match rate (Sec. 4.1).
MATCH_RATE_BAND = (0.015, 0.04)

#: Probability-style quantities (DoC ratios, Jaccard, issuer shares)
#: must lie in the unit interval.
UNIT_INTERVAL = (0.0, 1.0)

#: The 100-year vendor-signed validity extreme the paper reports
#: (Sec. 5.4), in days — the upper bound for any leaf validity.
VALIDITY_MAX_DAYS = 100 * 365


@dataclass(frozen=True)
class Invariant:
    """One declarative assertion over the finished study.

    ``check(study, results)`` returns the observed value;
    ``accept(observed)`` judges it.  Keeping observation separate from
    judgement lets reports show the measured number even when it fails.
    """

    name: str
    expected: str
    check: object
    accept: object

    def evaluate(self, study, results):
        try:
            observed = self.check(study, results)
            ok = bool(self.accept(observed))
        except Exception as exc:  # a crash is a failed invariant
            observed = f"error: {type(exc).__name__}: {exc}"
            ok = False
        return {"name": self.name, "ok": ok,
                "observed": _jsonable(observed),
                "expected": self.expected}


def _jsonable(value):
    if isinstance(value, (type(None), bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item)
                for key, item in sorted(value.items(), key=lambda kv:
                                        str(kv[0]))}
    return repr(value)


def _bounded_unit(values):
    return all(0.0 <= value <= 1.0 for value in values)


def _match_rate(study, results):
    return round(results["client"]["matching"].matched_fraction, 6)


def _doc_values(results):
    return (list(results["client"]["doc_vendor"].values())
            + list(results["client"]["doc_device"].values()))


def _validity_range(study, results):
    """(min, max) leaf validity in days over the CT-report points."""
    days = [point.validity_days
            for point in results["server"]["ct"].points]
    return (round(min(days), 2), round(max(days), 2))


PAPER_INVARIANTS = (
    Invariant(
        "corpus-size",
        expected="6891 known-library fingerprints (Sec. 4.1)",
        check=lambda study, results: len(study.corpus),
        accept=lambda n: n == 6891),
    # Counted from the certificate dataset (one result per contacted
    # SNI per vantage), so a warm store answers it without the world.
    Invariant(
        "sni-count",
        expected="1151 reachable SNIs at probe time (Sec. 5.1; "
                 "1194 contacted, 43 dead)",
        check=lambda study, results: [
            len(study.certificates.reachable_fqdns()),
            len(study.certificates.results_at())],
        accept=lambda pair: pair == [1151, 1194]),
    Invariant(
        "probe-coverage",
        expected="every contacted SNI probed from every vantage point",
        check=lambda study, results: sorted(
            {(len({r.fqdn for r in study.certificates.results
                   if r.vantage == v}))
             for v in study.certificates.vantages()}),
        accept=lambda counts: counts == [1194]),
    Invariant(
        "match-rate",
        expected="~2.55% of fingerprints match the corpus "
                 "(Sec. 4.1; accepted band 1.5%-4%)",
        check=_match_rate,
        accept=lambda rate:
            MATCH_RATE_BAND[0] <= rate <= MATCH_RATE_BAND[1]),
    Invariant(
        "doc-bounds",
        expected="every DoC_vendor / DoC_device ratio in [0, 1] "
                 "(Sec. 4.2)",
        check=lambda study, results: [
            round(min(_doc_values(results)), 6),
            round(max(_doc_values(results)), 6)],
        accept=lambda lohi: 0.0 <= lohi[0] and lohi[1] <= 1.0),
    Invariant(
        "jaccard-bounds",
        expected="every vendor-pair Jaccard similarity in [0, 1] "
                 "(Sec. 4.3)",
        check=lambda study, results: [
            round(similarity, 6) for similarity, _a, _b
            in results["client"]["jaccard_pairs"]],
        accept=_bounded_unit),
    Invariant(
        "issuer-shares",
        expected="issuer leaf shares sum to 1 and each lies in [0, 1] "
                 "(Sec. 5.2)",
        check=lambda study, results: round(sum(
            results["server"]["issuers"].issuer_share(org)
            for org in results["server"]["issuers"].issuer_orgs), 6),
        accept=lambda total: abs(total - 1.0) < 1e-6),
    Invariant(
        "survey-coverage",
        expected="one validation verdict per reachable chain "
                 "(Sec. 5.3)",
        check=lambda study, results: [
            len(results["server"]["survey"].reports),
            len(study.certificates.reachable_fqdns())],
        accept=lambda pair: pair[0] == pair[1] and pair[0] > 0),
    Invariant(
        "validity-distribution",
        expected="leaf validity positive, bounded by the 100-year "
                 "vendor-signed extreme the paper reports (Sec. 5.4)",
        check=_validity_range,
        accept=lambda lohi: 0 < lohi[0] <= lohi[1] <= VALIDITY_MAX_DAYS),
)


def check_invariants(study, results, invariants=PAPER_INVARIANTS):
    """Evaluate every invariant; returns the list of verdict dicts."""
    return [invariant.evaluate(study, results)
            for invariant in invariants]


def invariant_summary(study, results, invariants=PAPER_INVARIANTS):
    """The ``RunManifest.invariants`` payload: overall ok + verdicts."""
    checks = check_invariants(study, results, invariants)
    return {"ok": all(check["ok"] for check in checks),
            "checks": checks}


def render_invariants(summary):
    """Human-readable table of an :func:`invariant_summary`."""
    lines = []
    for check in summary["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(f"{mark} {check['name']:16s} "
                     f"observed={check['observed']!r}  "
                     f"[{check['expected']}]")
    verdict = "all invariants hold" if summary["ok"] \
        else "PAPER INVARIANT VIOLATION"
    lines.append(verdict)
    return "\n".join(lines)
