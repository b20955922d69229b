"""Study configuration: one frozen value object drives everything.

A :class:`StudyConfig` pins every knob a study run has — the world seed
and which major trust stores the validator unions — so a study is
reproducible from its config alone.  It is hashable (all-frozen
fields), which is what lets :func:`repro.study.get_study` memoize per
config.

Construction is config-first everywhere: :func:`repro.study.get_study`
and :class:`repro.study.Study` take a config (or nothing, for the
default), never a bare seed.
"""

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 2023

#: The three synthetic major root programs (paper Section 5.3).
MAJOR_STORES = ("mozilla", "apple", "microsoft")

#: Retired config fields at the only values any study ever used: the
#: probe retry policy and the three vantage points.  Config digests
#: still hash them, so every store key, sweep unit key and the ML
#: feature seed stay what they were.
_RETIRED_FIELDS = {
    "retry": {"attempt_timeout": 5.0, "backoff_base": 0.1,
              "backoff_factor": 2.0, "jitter": 0.5, "max_attempts": 3},
    "vantages": [
        {"city": "New York, US", "name": "new-york", "region": "us"},
        {"city": "Frankfurt, DE", "name": "frankfurt", "region": "eu"},
        {"city": "Singapore, SG", "name": "singapore", "region": "asia"},
    ],
}


@dataclass(frozen=True)
class StudyConfig:
    """Everything that parameterizes one study run."""

    seed: int = DEFAULT_SEED
    #: which major stores the chain validator unions (Zeek-style).
    trust_stores: tuple = MAJOR_STORES

    def __post_init__(self):
        unknown = set(self.trust_stores) - set(MAJOR_STORES)
        if unknown:
            raise ValueError(f"unknown trust stores: {sorted(unknown)}")
        if not self.trust_stores:
            raise ValueError("at least one trust store is required")
        if len(set(self.trust_stores)) != len(tuple(self.trust_stores)):
            raise ValueError("duplicate trust stores")
        # Trust stores are a *set* (the validator unions them, and union
        # is commutative), so their order is canonicalized: two configs
        # naming the same stores in any order compare, hash, and digest
        # identically.
        object.__setattr__(self, "trust_stores",
                           tuple(sorted(self.trust_stores)))

    def digest_payload(self):
        """The JSON object every digest of this config hashes."""
        return dict(_RETIRED_FIELDS, seed=self.seed,
                    trust_stores=list(self.trust_stores))

    def artifact_digest(self):
        """A stable content hash of every field.

        Two configs digest equally iff they compare equal; the digest is
        stable across processes (canonical JSON, not ``hash()``).  The
        artifact store (:mod:`repro.store`) keys cached artifacts by it,
        sweep units build their keys on it, the golden baseline records
        it, and a :class:`~repro.obs.manifest.RunManifest` records it as
        the run's config identity.
        """
        canonical = json.dumps(self.digest_payload(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
