"""Run manifests: the provenance record written alongside artifacts.

A measurement artifact without provenance is unreviewable — the paper's
numbers are only meaningful given the exact capture configuration.  A
:class:`RunManifest` pins everything needed to reproduce (and audit) the
artifact it sits next to:

- the world ``seed`` and the full ``StudyConfig`` content digest
  (:meth:`repro.config.StudyConfig.artifact_digest`),
- the package ``version``,
- per-stage wall-clock ``stage_timings`` from the tracer,
- the deterministic ``metrics`` snapshot,
- the CLI ``command`` and the ``outputs`` it wrote.

Manifests are written as ``<artifact>.manifest.json`` by every CLI
command that writes a file, and also emitted as the final event of a
``--trace`` JSONL stream.
"""

import json
import time
from dataclasses import asdict, dataclass, field

from repro.schema import strip_version, versioned


@dataclass
class RunManifest:
    """Provenance of one pipeline run (JSON round-trippable)."""

    command: str
    seed: int
    config_digest: str
    version: str
    started_at: float
    finished_at: float
    stage_timings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    outputs: tuple = ()
    #: artifact-store traffic (dir, version, hit/miss/write stage lists)
    #: when the run used a cache; empty otherwise.
    cache: dict = field(default_factory=dict)
    #: paper-invariant check results (``repro.verify.invariants``) when
    #: the run evaluated them; empty otherwise.  Shape:
    #: ``{"ok": bool, "checks": [{name, ok, observed, expected}, ...]}``.
    invariants: dict = field(default_factory=dict)

    @property
    def elapsed_seconds(self):
        return round(self.finished_at - self.started_at, 6)

    @classmethod
    def from_run(cls, command, config, obs_ctx, outputs=(),
                 started_at=None, finished_at=None, store=None,
                 invariants=None):
        """Assemble a manifest from a config and a live obs context.

        ``config`` duck-types :class:`repro.config.StudyConfig` (needs
        ``.seed`` and ``.artifact_digest()``); ``obs_ctx`` may be
        disabled, in which case timings and metrics are empty.
        ``store`` is an optional
        :class:`~repro.store.artifact.ArtifactStore` whose
        cache traffic (:meth:`provenance`) the manifest records;
        ``invariants`` an optional paper-invariant result summary
        (:func:`repro.verify.invariants.invariant_summary`).
        """
        from repro import __version__
        now = time.time()
        timings = {}
        metrics = {}
        if obs_ctx is not None and obs_ctx.enabled:
            timings = obs_ctx.tracer.stage_timings()
            metrics = obs_ctx.metrics.snapshot()
        return cls(
            command=command,
            seed=config.seed,
            config_digest=config.artifact_digest(),
            version=__version__,
            started_at=started_at if started_at is not None else now,
            finished_at=finished_at if finished_at is not None else now,
            stage_timings=timings,
            metrics=metrics,
            outputs=tuple(str(path) for path in outputs),
            cache=store.provenance() if store is not None else {},
            invariants=invariants if invariants is not None else {},
        )

    def to_json(self):
        payload = asdict(self)
        payload["outputs"] = list(self.outputs)
        payload["elapsed_seconds"] = self.elapsed_seconds
        return versioned(payload)

    @classmethod
    def from_json(cls, payload):
        fields = strip_version(payload)
        fields.pop("elapsed_seconds", None)
        fields["outputs"] = tuple(fields.get("outputs", ()))
        return cls(**fields)

    def write(self, path):
        """Write the manifest to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


def manifest_path_for(artifact_path):
    """Where the manifest for ``artifact_path`` lives."""
    return f"{artifact_path}.manifest.json"
