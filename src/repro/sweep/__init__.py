"""``repro.sweep`` — the resumable multi-seed sweep engine.

The paper's headline numbers (2.55% fingerprint match rate, DoC
distributions, issuer shares) are point estimates from one crowdsourced
snapshot; the generative substitute lets the reproduction do what the
paper could not — re-run the *entire* study across many seeds and
trust stores, and report variance bands around every paper anchor:

- :mod:`repro.sweep.grid` — :class:`~repro.sweep.grid.SweepUnit` (one
  config plus sweep-only knobs, content-addressed) and
  :func:`~repro.sweep.grid.expand_grid` (seed grids, trust-store
  ablations, learned-attribution units);
- :mod:`repro.sweep.runner` — :class:`~repro.sweep.runner.SweepRunner`,
  the campaign runner: one worker runs the units inline, N > 1 hand
  them to a one-host :mod:`repro.fabric` cluster (a coordinator plus N
  spawned worker processes, one study per process — the GIL caps
  thread-based sweeps) with byte-identical per-config digests; every
  finished unit lands in the atomic
  :class:`~repro.store.campaign.CampaignIndex` ledger, so killed
  campaigns resume by re-running only incomplete configs;
- :mod:`repro.sweep.worker` — the JSON-in/JSON-out per-unit entry point
  every unit runs through (digests, scalars, invariant verdicts);
- :mod:`repro.sweep.aggregate` —
  :class:`~repro.sweep.aggregate.SweepAggregator` /
  :class:`~repro.sweep.aggregate.SweepReport`: per-scalar
  mean/stddev/min/max, invariant pass rates, and calibrated-band checks
  against :mod:`repro.verify.invariants`.

CLI: ``repro sweep run|resume|report`` with
``--seeds/--workers/--grid/--out`` plus ``--store-backend {local,http}``.
"""

from repro.sweep.aggregate import (SCALAR_BANDS, ScalarStats,
                                   SweepAggregator, SweepReport)
from repro.sweep.grid import (GRID_AXES, STAGES, SweepUnit, expand_grid,
                              parse_grid)
from repro.sweep.runner import CampaignResult, SweepRunner, campaign_units
from repro.sweep.worker import run_unit

__all__ = [
    "CampaignResult", "GRID_AXES", "SCALAR_BANDS",
    "STAGES", "ScalarStats", "SweepAggregator", "SweepReport",
    "SweepRunner", "SweepUnit", "campaign_units", "expand_grid",
    "parse_grid", "run_unit",
]
