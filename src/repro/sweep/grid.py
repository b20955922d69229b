"""Sweep units and grid expansion.

A :class:`SweepUnit` is one independent campaign member: a full
:class:`~repro.config.StudyConfig` (seed, retry budget, trust-store
selection) plus the sweep-only knobs a config deliberately does not
carry — fault-injection rates, the probe latency time scale, and which
pipeline stage to run.  Units are plain JSON values on both sides of the
process boundary (a fabric worker receives a spec dict, never a live
object graph), and each one is content-addressed by :meth:`SweepUnit.key`
so the campaign ledger can skip completed configs on resume.

:func:`expand_grid` turns a base config plus grid axes into the unit
list: a seed grid always, optionally per-store trust ablations
(``"stores"``), a fault-rate ablation (``"faults"``), and a
learned-attribution evaluation (``"ml"``, a ``stage="ml"`` unit) per
seed.
"""

import hashlib
import json
from dataclasses import dataclass, field

from repro.config import MAJOR_STORES, StudyConfig

#: grid axes ``expand_grid`` understands.
GRID_AXES = ("seeds", "stores", "faults", "ml")

#: pipeline stages a unit may run.
STAGES = ("full", "probe", "ml")

#: the fault-rate ablation applied by the ``"faults"`` axis — the same
#: rates the equivalence matrix's ``faults-retried`` mode proves
#: recoverable.
FAULT_ABLATION = (("transient_rate", 0.2), ("reset_rate", 0.1))


@dataclass(frozen=True)
class SweepUnit:
    """One campaign member: a config plus sweep-only execution knobs."""

    name: str
    seed: int
    retries: int = 3
    trust_stores: tuple = MAJOR_STORES
    #: ``((rate name, value), ...)`` handed to the FaultInjector; empty
    #: means clean probing.
    fault_rates: tuple = ()
    #: real seconds slept per simulated network second while probing
    #: (0.0 = no sleeping); output bytes never depend on it.
    time_scale: float = 0.0
    #: ``"full"`` runs every analysis; ``"probe"`` stops after the
    #: certificate dataset (the network-bound half of the study);
    #: ``"ml"`` trains and evaluates the learned-attribution stage
    #: only (``repro.ml``).
    stage: str = "full"

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown sweep stage {self.stage!r}; "
                             f"expected one of {STAGES}")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if self.fault_rates and self.retries < 2:
            raise ValueError("fault-injected units need retries >= 2 "
                             "so every fault is recovered")
        object.__setattr__(self, "trust_stores",
                           tuple(self.trust_stores))
        object.__setattr__(self, "fault_rates",
                           tuple((str(k), float(v))
                                 for k, v in self.fault_rates))

    def study_config(self):
        """The frozen :class:`StudyConfig` this unit executes."""
        from repro.probing.engine import RetryPolicy
        return StudyConfig(seed=self.seed,
                           retry=RetryPolicy(max_attempts=self.retries),
                           trust_stores=self.trust_stores)

    def to_json(self):
        """The spec dict crossing the process boundary (plus the key)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "retries": self.retries,
            "trust_stores": list(self.trust_stores),
            "fault_rates": [list(pair) for pair in self.fault_rates],
            "time_scale": self.time_scale,
            "stage": self.stage,
            "key": self.key(),
        }

    @classmethod
    def from_json(cls, payload):
        return cls(
            name=payload["name"],
            seed=int(payload["seed"]),
            retries=int(payload.get("retries", 3)),
            trust_stores=tuple(payload.get("trust_stores",
                                           MAJOR_STORES)),
            fault_rates=tuple(tuple(pair) for pair
                              in payload.get("fault_rates", ())),
            time_scale=float(payload.get("time_scale", 0.0)),
            stage=payload.get("stage", "full"))

    def key(self):
        """Content digest of everything that selects this unit's work.

        Built on the config's :meth:`StudyConfig.artifact_digest` (the
        result-determining fields) plus the sweep-only knobs, so two
        units doing identical work collide and the campaign ledger
        dedupes them.
        """
        payload = {
            "artifact": self.study_config().artifact_digest(),
            "fault_rates": [list(pair) for pair in self.fault_rates],
            "time_scale": self.time_scale,
            "stage": self.stage,
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_grid(spec):
    """``"seeds,stores"`` → validated axis tuple (``seeds`` implied)."""
    axes = tuple(name.strip() for name in str(spec).split(",")
                 if name.strip())
    unknown = set(axes) - set(GRID_AXES)
    if unknown:
        raise ValueError(f"unknown grid axes {sorted(unknown)}; "
                         f"expected a subset of {list(GRID_AXES)}")
    return axes if "seeds" in axes else ("seeds",) + axes


def expand_grid(base_config, seeds, grid=("seeds",), time_scale=0.0,
                stage="full"):
    """The campaign's unit list for a base config and grid axes.

    ``seeds`` consecutive seeds starting at ``base_config.seed``; per
    seed, the ``"stores"`` axis adds one single-trust-store ablation per
    major store and the ``"faults"`` axis adds one fault-injected run
    (retry budget raised so every fault is recovered and the outputs
    stay byte-identical to the clean unit).
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    axes = parse_grid(",".join(grid)) if not isinstance(grid, str) \
        else parse_grid(grid)
    base_retries = base_config.retry.max_attempts
    units = []
    for offset in range(int(seeds)):
        seed = base_config.seed + offset
        units.append(SweepUnit(
            name=f"seed{seed}", seed=seed, retries=base_retries,
            trust_stores=base_config.trust_stores,
            time_scale=time_scale, stage=stage))
        if "stores" in axes:
            for store in MAJOR_STORES:
                units.append(SweepUnit(
                    name=f"seed{seed}-store-{store}", seed=seed,
                    retries=base_retries, trust_stores=(store,),
                    time_scale=time_scale, stage=stage))
        if "faults" in axes:
            units.append(SweepUnit(
                name=f"seed{seed}-faults", seed=seed,
                retries=max(4, base_retries),
                trust_stores=base_config.trust_stores,
                fault_rates=FAULT_ABLATION,
                time_scale=time_scale, stage=stage))
        if "ml" in axes:
            units.append(SweepUnit(
                name=f"seed{seed}-ml", seed=seed,
                retries=base_retries,
                trust_stores=base_config.trust_stores,
                time_scale=time_scale, stage="ml"))
    return tuple(units)
