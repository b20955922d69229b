"""Sweep units and grid expansion.

A :class:`SweepUnit` is one independent campaign member: a full
:class:`~repro.config.StudyConfig` (seed, trust-store selection) plus
the sweep-only knobs a config deliberately does not carry — the probe
latency time scale and which pipeline stage to run.  Units are plain
JSON values on both sides of the process boundary (a fabric worker
receives a spec dict, never a live object graph), and each one is
content-addressed by :meth:`SweepUnit.key` so the campaign ledger can
skip completed configs on resume.

:func:`expand_grid` turns a base config plus grid axes into the unit
list: a seed grid always, optionally per-store trust ablations
(``"stores"``) and a learned-attribution evaluation (``"ml"``, a
``stage="ml"`` unit) per seed.
"""

import hashlib
import json
from dataclasses import dataclass

from repro.config import MAJOR_STORES, StudyConfig

#: grid axes ``expand_grid`` understands.
GRID_AXES = ("seeds", "stores", "ml")

#: pipeline stages a unit may run.
STAGES = ("full", "probe", "ml")


@dataclass(frozen=True)
class SweepUnit:
    """One campaign member: a config plus sweep-only execution knobs."""

    name: str
    seed: int
    trust_stores: tuple = MAJOR_STORES
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
        object.__setattr__(self, "trust_stores",
                           tuple(self.trust_stores))

    def study_config(self):
        """The frozen :class:`StudyConfig` this unit executes."""
        return StudyConfig(seed=self.seed, trust_stores=self.trust_stores)

    def to_json(self):
        """The spec dict crossing the process boundary (plus the key)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "trust_stores": list(self.trust_stores),
            "time_scale": self.time_scale,
            "stage": self.stage,
            "key": self.key(),
        }

    @classmethod
    def from_json(cls, payload):
        """The unit a spec describes.

        Specs written before the probe retry budget and fault injection
        were retired may carry ``retries`` and ``fault_rates``; only
        their clean values (3 and empty) describe a unit this build
        runs, so any other value raises a one-line ``ValueError``
        instead of being read as its clean twin.
        """
        unit = cls(
            name=payload["name"],
            seed=int(payload["seed"]),
            trust_stores=tuple(payload.get("trust_stores",
                                           MAJOR_STORES)),
            time_scale=float(payload.get("time_scale", 0.0)),
            stage=payload.get("stage", "full"))
        if payload.get("retries", 3) != 3:
            raise ValueError(f"retired field 'retries' must be 3, not "
                             f"{payload['retries']!r}")
        if payload.get("fault_rates"):
            raise ValueError("retired field 'fault_rates' must be empty")
        return unit

    def key(self):
        """Content digest of everything that selects this unit's work.

        Built on the config's :meth:`StudyConfig.artifact_digest` (the
        result-determining fields) plus the sweep-only knobs, so two
        units doing identical work collide and the campaign ledger
        dedupes them.  The payload keeps the retired ``fault_rates``
        at its clean value, so every key stays what it was.
        """
        payload = {
            "artifact": self.study_config().artifact_digest(),
            "fault_rates": [],
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
    major store and the ``"ml"`` axis adds one ``stage="ml"`` unit.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    axes = parse_grid(",".join(grid)) if not isinstance(grid, str) \
        else parse_grid(grid)
    units = []
    for offset in range(int(seeds)):
        seed = base_config.seed + offset
        units.append(SweepUnit(
            name=f"seed{seed}", seed=seed,
            trust_stores=base_config.trust_stores,
            time_scale=time_scale, stage=stage))
        if "stores" in axes:
            for store in MAJOR_STORES:
                units.append(SweepUnit(
                    name=f"seed{seed}-store-{store}", seed=seed,
                    trust_stores=(store,),
                    time_scale=time_scale, stage=stage))
        if "ml" in axes:
            units.append(SweepUnit(
                name=f"seed{seed}-ml", seed=seed,
                trust_stores=base_config.trust_stores,
                time_scale=time_scale, stage="ml"))
    return tuple(units)
