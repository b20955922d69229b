"""Study configuration: one frozen value object drives everything.

A :class:`StudyConfig` pins every knob a study run has — the world seed,
the probing vantage points, the probe engine's concurrency and retry
policy, and which major trust stores the validator unions — so a study is
reproducible from its config alone.  It is hashable (all-frozen fields),
which is what lets :func:`repro.study.get_study` memoize per config.

Construction is config-first everywhere: :func:`repro.study.get_study`
and :class:`repro.study.Study` take a config (or nothing, for the
default), never a bare seed.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.probing.engine import RetryPolicy
from repro.probing.vantage import VANTAGE_POINTS

DEFAULT_SEED = 2023

#: The three synthetic major root programs (paper Section 5.3).
MAJOR_STORES = ("mozilla", "apple", "microsoft")


@dataclass(frozen=True)
class StudyConfig:
    """Everything that parameterizes one study run."""

    seed: int = DEFAULT_SEED
    #: vantage points the prober scans from (paper: NY/Frankfurt/SG).
    vantages: tuple = VANTAGE_POINTS
    #: worker threads for the probe engine; 1 = the serial reference path.
    probe_jobs: int = 1
    #: retry/backoff/timeout policy for every probe.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: which major stores the chain validator unions (Zeek-style).
    trust_stores: tuple = MAJOR_STORES

    def __post_init__(self):
        if self.probe_jobs < 1:
            raise ValueError("probe_jobs must be >= 1")
        if not self.vantages:
            raise ValueError("at least one vantage point is required")
        unknown = set(self.trust_stores) - set(MAJOR_STORES)
        if unknown:
            raise ValueError(f"unknown trust stores: {sorted(unknown)}")
        if not self.trust_stores:
            raise ValueError("at least one trust store is required")
        if len(set(self.trust_stores)) != len(tuple(self.trust_stores)):
            raise ValueError("duplicate trust stores")
        # Normalize list arguments so equal configs hash equally.  Trust
        # stores are a *set* (the validator unions them, and union is
        # commutative), so their order is canonicalized too: two configs
        # naming the same stores in any order compare, hash, and digest
        # identically.
        object.__setattr__(self, "vantages", tuple(self.vantages))
        object.__setattr__(self, "trust_stores",
                           tuple(sorted(self.trust_stores)))

    def with_seed(self, seed):
        """This config with a different world seed."""
        return StudyConfig(seed=seed, vantages=self.vantages,
                           probe_jobs=self.probe_jobs, retry=self.retry,
                           trust_stores=self.trust_stores)

    def digest(self):
        """A stable content hash of every field (run-manifest identity).

        Two configs digest equally iff they compare equal; the digest is
        stable across processes (canonical JSON, not ``hash()``), which
        is what lets a :class:`~repro.obs.manifest.RunManifest` written
        by one run be checked against a config built by another.
        """
        payload = {
            "seed": self.seed,
            "vantages": [asdict(vantage) for vantage in self.vantages],
            "probe_jobs": self.probe_jobs,
            "retry": asdict(self.retry),
            "trust_stores": list(self.trust_stores),
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def artifact_digest(self):
        """A content hash of the *result-determining* fields only.

        The artifact store (:mod:`repro.store`) keys cached artifacts by
        this digest: two configs that can only differ in wall-clock —
        ``probe_jobs`` is pure concurrency, documented to never change
        output bytes — share every artifact, so ``repro probe --jobs 8``
        followed by ``repro report`` (jobs 1) is a cache hit.  Everything
        that *can* change bytes (seed, vantages, retry budget, trust-store
        selection) stays in.
        """
        payload = {
            "seed": self.seed,
            "vantages": [asdict(vantage) for vantage in self.vantages],
            "retry": asdict(self.retry),
            "trust_stores": list(self.trust_stores),
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
