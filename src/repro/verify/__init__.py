"""Differential conformance: golden baselines, equivalence, invariants.

The repository's determinism claims (serial == parallel, cold == warm,
fault-injected-with-retries == clean, trust-store order irrelevant) and
its fidelity claims (outputs quantitatively resemble the paper) are
enforced here rather than spot-checked per feature:

- :mod:`repro.verify.canonical` — the deterministic canonical-JSON
  encoding and digest every comparison reduces to;
- :mod:`repro.verify.baseline` — golden snapshots of every pipeline
  artifact, ``repro verify record`` / ``repro verify check``;
- :mod:`repro.verify.matrix` — the execution-mode equivalence matrix;
- :mod:`repro.verify.invariants` — declarative paper anchors emitted
  into the :class:`~repro.obs.manifest.RunManifest`.
"""

from repro.verify.baseline import (CheckReport, Divergence,
                                   VOLATILE_NODES, check_baseline,
                                   collect_snapshots, load_baseline,
                                   record_baseline, run_and_snapshot)
from repro.verify.canonical import (VOLATILE_KEYS, canonical_bytes,
                                    canonicalize, digest,
                                    first_divergence)
from repro.verify.invariants import (MATCH_RATE_BAND, PAPER_INVARIANTS,
                                     UNIT_INTERVAL, VALIDITY_MAX_DAYS,
                                     Invariant, check_invariants,
                                     invariant_summary,
                                     render_invariants)
from repro.verify.matrix import (EquivalenceMatrix, ExecutionMode,
                                 MatrixReport, ModeResult,
                                 compare_results, default_modes)

__all__ = [
    "CheckReport", "Divergence", "EquivalenceMatrix", "ExecutionMode",
    "Invariant", "MATCH_RATE_BAND", "MatrixReport", "ModeResult",
    "PAPER_INVARIANTS", "UNIT_INTERVAL",
    "VALIDITY_MAX_DAYS",
    "VOLATILE_KEYS", "VOLATILE_NODES", "canonical_bytes",
    "canonicalize", "check_baseline", "check_invariants",
    "collect_snapshots", "compare_results", "default_modes", "digest",
    "first_divergence",
    "invariant_summary", "load_baseline", "record_baseline",
    "render_invariants", "run_and_snapshot",
]
