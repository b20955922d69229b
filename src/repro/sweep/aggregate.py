"""Aggregating a campaign: variance bands around every paper anchor.

The paper's headline numbers are point estimates from one crowdsourced
snapshot; a sweep re-runs the entire study across many seeds, and this
module turns the per-unit results into a :class:`SweepReport`:

- **scalar statistics** — mean/stddev/min/max/n for every key analysis
  scalar (match rate, DoC means, validity extremes, per-org issuer
  shares), the variance band the single-run invariants cannot provide;
- **invariant pass rates** — how many units each of the nine paper
  invariants held for (a single failing seed flags a fragile anchor
  even when the default seed passes);
- **calibrated band checks** — the aggregate mean *and* every per-unit
  value must stay inside the bands :mod:`repro.verify.invariants` pins
  to the paper (match-rate band, unit interval, the 100-year validity
  extreme), so the sweep strengthens the per-seed checks instead of
  merely averaging over them.
"""

import math
from dataclasses import dataclass, field

from repro.schema import versioned
from repro.verify.invariants import (MATCH_RATE_BAND, UNIT_INTERVAL,
                                     VALIDITY_MAX_DAYS)

#: the learned-attribution acceptance floor: held-out macro-F1 must
#: beat the ~2.55% exact-match coverage by >= 10x on every seed
#: (observed range across seeds 2023-2026: 0.75-0.95).
ML_MACRO_F1_BAND = (0.255, 1.0)

#: calibrated bands per aggregated scalar — each ties back to a paper
#: anchor enforced by :data:`repro.verify.invariants.PAPER_INVARIANTS`
#: (or, for the ``ml_*`` scalars, to the learned-attribution gate).
SCALAR_BANDS = {
    "match_rate": MATCH_RATE_BAND,
    "doc_vendor_mean": UNIT_INTERVAL,
    "doc_device_mean": UNIT_INTERVAL,
    "validity_min_days": (1e-9, VALIDITY_MAX_DAYS),
    "validity_max_days": (1e-9, VALIDITY_MAX_DAYS),
    "ml_macro_f1": ML_MACRO_F1_BAND,
    "ml_heldout_accuracy": (0.9, 1.0),
    "ml_attribution_coverage": (0.8, 1.0),
}


@dataclass(frozen=True)
class ScalarStats:
    """Summary statistics of one scalar across campaign units."""

    n: int
    mean: float
    stddev: float
    min: float
    max: float

    @classmethod
    def of(cls, values):
        values = [float(value) for value in values]
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            variance = sum((value - mean) ** 2
                           for value in values) / (n - 1)
        else:
            variance = 0.0
        return cls(n=n, mean=round(mean, 9),
                   stddev=round(math.sqrt(variance), 9),
                   min=round(min(values), 9),
                   max=round(max(values), 9))

    def to_json(self):
        return {"n": self.n, "mean": self.mean, "stddev": self.stddev,
                "min": self.min, "max": self.max}


@dataclass
class SweepReport:
    """The campaign's aggregate verdict (JSON round-trippable)."""

    campaign_id: str
    stage: str
    units_total: int
    units_completed: int
    #: ``(unit name, error string)`` for units recorded as failed.
    failures: list = field(default_factory=list)
    #: scalar name → :class:`ScalarStats`.
    scalars: dict = field(default_factory=dict)
    #: issuer org → :class:`ScalarStats` of its leaf share.
    issuer_shares: dict = field(default_factory=dict)
    #: invariant name → ``{"passed": int, "n": int, "ok": bool}``.
    invariants: dict = field(default_factory=dict)
    #: calibrated band verdicts, one per entry of :data:`SCALAR_BANDS`.
    bands: list = field(default_factory=list)
    #: per-unit summary rows (name, seed, digests, wall seconds).
    units: list = field(default_factory=list)

    @property
    def ok(self):
        """No failures, every invariant held everywhere, bands respected."""
        return (not self.failures
                and self.units_completed == self.units_total
                and all(entry["ok"] for entry in self.invariants.values())
                and all(entry["ok"] for entry in self.bands))

    def to_json(self):
        return versioned({
            "ok": self.ok,
            "campaign_id": self.campaign_id,
            "stage": self.stage,
            "units_total": self.units_total,
            "units_completed": self.units_completed,
            "failures": [list(pair) for pair in self.failures],
            "scalars": {name: stats.to_json()
                        for name, stats in self.scalars.items()},
            "issuer_shares": {org: stats.to_json()
                              for org, stats in
                              self.issuer_shares.items()},
            "invariants": dict(self.invariants),
            "bands": list(self.bands),
            "units": list(self.units),
        })

    def render(self):
        """Human-readable campaign summary."""
        lines = [f"sweep campaign {self.campaign_id[:12]} "
                 f"({self.stage} stage): "
                 f"{self.units_completed}/{self.units_total} units "
                 f"completed"]
        for name, error in self.failures:
            lines.append(f"  FAILED {name}: {error}")
        if self.scalars:
            lines.append("scalar bands across units "
                         "(mean +/- stddev [min, max], n):")
            for name, stats in self.scalars.items():
                lines.append(
                    f"  {name:20s} {stats.mean:.6f} +/- "
                    f"{stats.stddev:.6f} [{stats.min:.6f}, "
                    f"{stats.max:.6f}] n={stats.n}")
        if self.invariants:
            lines.append("paper invariants across units:")
            for name, entry in sorted(self.invariants.items()):
                mark = "ok  " if entry["ok"] else "FAIL"
                lines.append(f"  {mark} {name:22s} "
                             f"{entry['passed']}/{entry['n']} units")
        if self.bands:
            lines.append("calibrated bands (repro.verify.invariants):")
            for entry in self.bands:
                mark = "ok  " if entry["ok"] else "FAIL"
                low, high = entry["band"]
                lines.append(f"  {mark} {entry['scalar']:20s} within "
                             f"[{low}, {high}] (mean and every unit)")
        lines.append("sweep OK" if self.ok else "SWEEP CHECK FAILED")
        # Names and errors come from ledgers and worker reports: any
        # JSON string, including a lone surrogate no terminal encodes.
        return "\n".join(lines).encode(
            "utf-8", "backslashreplace").decode("utf-8")


class SweepAggregator:
    """Builds a :class:`SweepReport` from campaign results."""

    def __init__(self, results, campaign_id="", stage=None,
                 units_total=None, failures=()):
        self.results = [result for result in results if result]
        self.campaign_id = campaign_id
        self.stage = stage if stage is not None else (
            self.results[0].get("stage", "full") if self.results
            else "full")
        self.units_total = units_total if units_total is not None \
            else len(self.results)
        self.failures = [tuple(pair) for pair in failures]

    @classmethod
    def from_index(cls, index):
        """Aggregate a campaign ledger (completed + failed units)."""
        by_key = {unit["key"]: unit for unit in index.units}
        failures = [(by_key.get(key, {}).get("name", key[:12]), error)
                    for key, error in sorted(index.failed.items())]
        return cls(index.results(), campaign_id=index.campaign_id,
                   stage=index.stage, units_total=len(index.units),
                   failures=failures)

    # -- the aggregation ------------------------------------------------------

    def _scalar_values(self):
        values = {}
        for result in self.results:
            for name, value in (result.get("scalars") or {}).items():
                if value is not None:
                    values.setdefault(name, []).append(value)
        return values

    def _issuer_values(self):
        values = {}
        for result in self.results:
            for org, share in (result.get("issuer_shares")
                               or {}).items():
                values.setdefault(org, []).append(share)
        return values

    def _invariant_tallies(self):
        tallies = {}
        for result in self.results:
            checks = (result.get("invariants") or {}).get("checks", ())
            for check in checks:
                entry = tallies.setdefault(
                    check["name"], {"passed": 0, "n": 0, "ok": True})
                entry["n"] += 1
                if check["ok"]:
                    entry["passed"] += 1
                else:
                    entry["ok"] = False
        return tallies

    def _band_checks(self, scalar_values, scalar_stats):
        checks = []
        for name, band in SCALAR_BANDS.items():
            if name not in scalar_stats:
                continue
            low, high = band
            stats = scalar_stats[name]
            mean_ok = low <= stats.mean <= high
            units_ok = all(low <= value <= high
                           for value in scalar_values[name])
            checks.append({"scalar": name, "band": [low, high],
                           "mean_ok": mean_ok, "units_ok": units_ok,
                           "ok": mean_ok and units_ok})
        return checks

    def _unit_rows(self):
        return [{
            "name": result.get("name"),
            "seed": result.get("seed"),
            "config_digest": result.get("config_digest"),
            "artifact_digest": result.get("artifact_digest"),
            "wall_seconds": result.get("wall_seconds"),
            "invariants_ok": (result.get("invariants") or {}).get("ok"),
        } for result in self.results]

    def report(self):
        """The aggregate :class:`SweepReport`."""
        scalar_values = self._scalar_values()
        scalar_stats = {name: ScalarStats.of(values)
                        for name, values in scalar_values.items()}
        issuer_stats = {org: ScalarStats.of(values)
                        for org, values in
                        sorted(self._issuer_values().items())}
        return SweepReport(
            campaign_id=self.campaign_id,
            stage=self.stage,
            units_total=self.units_total,
            units_completed=len(self.results),
            failures=list(self.failures),
            scalars=scalar_stats,
            issuer_shares=issuer_stats,
            invariants=self._invariant_tallies(),
            bands=self._band_checks(scalar_values, scalar_stats),
            units=self._unit_rows(),
        )
