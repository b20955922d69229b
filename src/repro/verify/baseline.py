"""Golden baselines: record the pipeline's outputs once, check forever.

A *baseline* is one JSON file snapshotting every pipeline artifact for
one study configuration — each analysis node's canonical tree and
digest, plus the derived artifacts (the anonymized capture, the
certificate summary rows, the markdown report, every figure's data).
The file is keyed by :meth:`repro.config.StudyConfig.artifact_digest`
plus the package version, so a baseline can never be checked against a
config (or code generation) it wasn't recorded for without the mismatch
being called out explicitly.

``repro verify record`` writes the baseline; ``repro verify check``
re-runs the pipeline and compares.  A divergence is reported as the
*first diverging analysis node in paper order* together with the first
diverging path inside that node's canonical tree
(``analysis.client.matching: $.fields.total_fingerprints: 903 != 904``)
— enough to bisect a regression without re-reading the whole snapshot.

Node order matters: nodes are compared in
:func:`repro.core.pipeline.analysis_stage_names` order (Section 4 before
Section 5, paper order within each side), then the derived artifacts.
Telemetry nodes listed in :data:`VOLATILE_NODES` measure the run, not
the study (wall clock always changes, and a store-backed run reports
the telemetry of the run that filled the store), and are recorded but
never compared.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import analysis_stage_names, run_full_study
from repro.verify.canonical import (canonicalize, digest,
                                    first_divergence)

#: current baseline file schema version.
BASELINE_FORMAT = 1

#: the checkout's committed baselines, found from this file so the
#: verify commands read them from any working directory.
_CONFORMANCE_DIR = Path(__file__).resolve().parents[3] / "conformance"

#: the golden baseline `repro verify check` compares against.
DEFAULT_BASELINE = str(_CONFORMANCE_DIR / "baseline.json")

#: the ML eval-report baseline `repro verify ml` checks (defined here,
#: not in :mod:`repro.ml`, so the CLI can name it without numpy).
DEFAULT_ML_BASELINE = str(_CONFORMANCE_DIR / "ml_baseline.json")

#: nodes that are engine telemetry rather than study results: recorded
#: for the curious, excluded from equality (wall-clock always differs).
VOLATILE_NODES = frozenset({"analysis.server.probe_stats"})

#: canonical trees larger than this (serialized) are stored digest-only,
#: keeping the committed baseline reviewable; the node-level digest
#: still catches any change, only the intra-node path is then omitted.
SNAPSHOT_BYTE_LIMIT = 200_000


def run_and_snapshot(study):
    """Run the full pipeline once; returns ``(results, snapshots)``.

    ``results`` is :func:`repro.core.pipeline.run_full_study`'s nested
    mapping (what the invariant checker consumes); ``snapshots`` maps
    node name to canonical tree in paper order: every analysis node
    first (via the pipeline's ``node_observer``, so a run against the
    study's artifact store snapshots cached results identically), then
    the derived artifacts:

    - ``artifact.capture`` — the anonymized ClientHello records
      (``repro generate``'s JSONL rows);
    - ``artifact.certificates`` — the per-server summary rows
      (``repro probe``'s JSONL rows);
    - ``artifact.report`` — the rendered markdown report;
    - ``artifact.figures.<name>`` — each figure's data series.
    """
    from repro.core.figures import figure_payloads
    from repro.core.report import render_report
    observed = {}
    results = run_full_study(study, node_observer=observed.__setitem__)
    snapshots = {}
    for stage in analysis_stage_names():
        snapshots[stage] = canonicalize(observed.pop(stage))
    # Any stage the registry grew that analysis_stage_names missed would
    # be a bug; keep them visible rather than dropping silently.
    for stage in sorted(observed):
        snapshots[stage] = canonicalize(observed[stage])
    snapshots["artifact.capture"] = canonicalize(
        [record.to_json() for record in study.dataset.records])
    snapshots["artifact.certificates"] = canonicalize(
        study.certificates.to_json_rows(
            ct_logs=study.network.ct_logs))
    snapshots["artifact.report"] = canonicalize(
        render_report(results, seed=study.seed))
    for name, payload in figure_payloads(study).items():
        snapshots[f"artifact.figures.{name}"] = canonicalize(payload)
    return results, snapshots


def collect_snapshots(study):
    """Just the ``{node name: canonical tree}`` half of a snapshot run."""
    _results, snapshots = run_and_snapshot(study)
    return snapshots


def _node_entry(tree):
    serialized = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    entry = {"digest": digest(tree)}
    if len(serialized) <= SNAPSHOT_BYTE_LIMIT:
        entry["snapshot"] = tree
    else:
        entry["snapshot_bytes"] = len(serialized)
    return entry


def record_baseline(study, path, snapshots=None):
    """Record the golden baseline for ``study``'s config at ``path``.

    Pass ``snapshots`` (from :func:`run_and_snapshot`) to reuse an
    already-executed run instead of re-running the pipeline.
    """
    from repro import __version__
    if snapshots is None:
        snapshots = collect_snapshots(study)
    payload = {
        "format": BASELINE_FORMAT,
        "artifact_digest": study.config.artifact_digest(),
        "seed": study.seed,
        "version": __version__,
        "volatile_nodes": sorted(VOLATILE_NODES),
        "nodes": {name: _node_entry(tree)
                  for name, tree in snapshots.items()},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(path):
    """Parse a baseline file; raises ``ValueError`` on a bad one."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: "
                         f"{exc}") from exc
    if payload.get("format") != BASELINE_FORMAT:
        raise ValueError(
            f"baseline {path} has format {payload.get('format')!r}; "
            f"this build reads format {BASELINE_FORMAT}")
    return payload


@dataclass
class Divergence:
    """One node whose output no longer matches the baseline."""

    node: str
    detail: str
    path: str = None

    def render(self):
        location = f"{self.node}: {self.path}" if self.path else self.node
        return f"{location}: {self.detail}"


@dataclass
class CheckReport:
    """Outcome of ``repro verify check``."""

    baseline_path: str
    artifact_digest: str
    version_recorded: str
    version_running: str
    nodes_checked: int = 0
    divergences: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.divergences

    @property
    def first_divergent_node(self):
        return self.divergences[0].node if self.divergences else None

    def render(self):
        lines = [f"baseline {self.baseline_path} "
                 f"(artifact {self.artifact_digest[:12]}, recorded at "
                 f"version {self.version_recorded})"]
        lines += [f"warning: {warning}" for warning in self.warnings]
        if self.ok:
            lines.append(f"conformance OK: {self.nodes_checked} nodes "
                         f"byte-identical to the golden baseline")
        else:
            lines.append(f"conformance FAILED: "
                         f"{len(self.divergences)} of "
                         f"{self.nodes_checked} nodes diverged; first "
                         f"divergent node: {self.first_divergent_node}")
            lines += ["  " + entry.render()
                      for entry in self.divergences]
            lines.append("re-record with 'repro verify record' if the "
                         "change is intentional")
        return "\n".join(lines)

    def to_json(self):
        return {
            "ok": self.ok,
            "baseline": self.baseline_path,
            "artifact_digest": self.artifact_digest,
            "version_recorded": self.version_recorded,
            "version_running": self.version_running,
            "nodes_checked": self.nodes_checked,
            "first_divergent_node": self.first_divergent_node,
            "divergences": [{"node": entry.node, "path": entry.path,
                             "detail": entry.detail}
                            for entry in self.divergences],
            "warnings": list(self.warnings),
        }


def check_baseline(study, path, snapshots=None):
    """Re-run the pipeline and compare against the baseline at ``path``.

    Pass ``snapshots`` (from :func:`run_and_snapshot`) to reuse an
    already-executed run.  Raises ``ValueError`` if the baseline cannot
    be compared at all (unreadable, wrong format, or recorded for a
    different config — a config mismatch is a usage error, not a
    divergence).
    """
    from repro import __version__
    payload = load_baseline(path)
    expected_digest = payload.get("artifact_digest", "")
    running_digest = study.config.artifact_digest()
    if expected_digest != running_digest:
        raise ValueError(
            f"baseline {path} was recorded for config artifact "
            f"{expected_digest[:12]}, but this run is "
            f"{running_digest[:12]}; record a baseline for this config "
            f"first")
    report = CheckReport(
        baseline_path=str(path),
        artifact_digest=expected_digest,
        version_recorded=payload.get("version", "?"),
        version_running=__version__)
    if report.version_recorded != report.version_running:
        report.warnings.append(
            f"baseline was recorded at version "
            f"{report.version_recorded}; running "
            f"{report.version_running} — digests are compared across "
            f"versions, re-record to refresh the key")
    volatile = set(payload.get("volatile_nodes", ())) | VOLATILE_NODES
    if snapshots is None:
        snapshots = collect_snapshots(study)
    baseline_nodes = payload.get("nodes", {})
    ordered = [name for name in snapshots if name in baseline_nodes]
    ordered += [name for name in baseline_nodes
                if name not in snapshots]
    for name in ordered:
        if name in volatile:
            continue
        report.nodes_checked += 1
        recorded = baseline_nodes.get(name)
        if recorded is None:
            report.divergences.append(Divergence(
                node=name, detail="node missing from baseline "
                "(new analysis? re-record)"))
            continue
        if name not in snapshots:
            report.divergences.append(Divergence(
                node=name, detail="node no longer produced by the "
                "pipeline"))
            continue
        tree = snapshots[name]
        if digest(tree) == recorded.get("digest"):
            continue
        entry = Divergence(node=name, detail="output digest changed")
        if "snapshot" in recorded:
            found = first_divergence(recorded["snapshot"], tree)
            if found is not None:
                entry.path, entry.detail = found
        report.divergences.append(entry)
    return report
