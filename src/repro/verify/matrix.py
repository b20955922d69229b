"""The equivalence matrix: one study, many execution modes, one answer.

The repository's headline determinism claims — cold vs warm cache,
any trust-store spelling, inline vs the fabric cluster — were each
spot-checked in whichever test file introduced them.  The matrix
enforces them *systematically*: it executes the full pipeline under a
configurable grid of :class:`ExecutionMode`\\ s, has the pipeline's
``node_observer`` report a canonical digest per analysis node in every
mode, and asserts that all modes agree node-for-node.  A
failure names the first pair of modes and the first analysis node
(paper order) whose digests disagree — the starting point for
bisecting a determinism regression.

Every perf/scale PR gets the same cheap proof obligation: run
``repro verify matrix`` (or ``make verify``) and show the grid still
collapses to a single digest column.
"""

import tempfile
from dataclasses import dataclass, field, replace

from repro.config import MAJOR_STORES, StudyConfig
from repro.core.pipeline import analysis_stage_names, run_full_study
from repro.study import Study
from repro.verify.baseline import VOLATILE_NODES
from repro.verify.canonical import digest


@dataclass(frozen=True)
class ExecutionMode:
    """One way of executing the identical study.

    Attributes:
        name: display label (also the report column).
        cache: ``"off"`` (no store), ``"cold"`` (fresh store), or
            ``"warm"`` (same store, second run — every node a hit).
        trust_stores: trust-store selection spelling (any permutation
            must produce identical artifacts).
        backend: ``"inline"`` runs the pipeline in this process;
            ``"cluster"`` runs it as a one-unit campaign through a real
            :mod:`repro.fabric` coordinator + HTTP server + fabric
            worker — the proof obligation that the distributed path
            produces byte-identical per-node digests.
    """

    name: str
    cache: str = "off"
    trust_stores: tuple = None
    backend: str = "inline"


def default_modes():
    """The standard grid behind ``repro verify matrix``."""
    return (
        ExecutionMode("serial"),
        ExecutionMode("cache-cold", cache="cold"),
        ExecutionMode("cache-warm", cache="warm"),
        ExecutionMode("stores-permuted",
                      trust_stores=tuple(reversed(MAJOR_STORES))),
        ExecutionMode("cluster", backend="cluster"),
    )


@dataclass
class ModeResult:
    """Per-node digests one mode produced."""

    mode: ExecutionMode
    node_digests: dict

    def comparable_digests(self):
        return {name: value
                for name, value in self.node_digests.items()
                if name not in VOLATILE_NODES}


@dataclass
class MatrixReport:
    """Pairwise equivalence verdict over all executed modes."""

    results: list = field(default_factory=list)
    #: (mode a, mode b, node, digest a, digest b) per disagreement.
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches

    @property
    def first_mismatch(self):
        return self.mismatches[0] if self.mismatches else None

    def mode_names(self):
        return [result.mode.name for result in self.results]

    def render(self):
        lines = [f"equivalence matrix: {len(self.results)} modes "
                 f"({', '.join(self.mode_names())})"]
        if self.ok:
            nodes = len(self.results[0].comparable_digests()) \
                if self.results else 0
            lines.append(f"equivalent: all modes agree on all {nodes} "
                         f"analysis nodes")
        else:
            first = self.first_mismatch
            lines.append(f"NOT equivalent: {len(self.mismatches)} "
                         f"node disagreements; first: node "
                         f"{first[2]!r} differs between "
                         f"{first[0]!r} and {first[1]!r}")
            for mode_a, mode_b, node, dig_a, dig_b in self.mismatches:
                lines.append(f"  {node}: {mode_a}={dig_a[:12]} "
                             f"{mode_b}={dig_b[:12]}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "ok": self.ok,
            "modes": self.mode_names(),
            "node_digests": {result.mode.name: result.node_digests
                             for result in self.results},
            "mismatches": [
                {"mode_a": a, "mode_b": b, "node": node,
                 "digest_a": da, "digest_b": db}
                for a, b, node, da, db in self.mismatches],
        }


class EquivalenceMatrix:
    """Executes a mode grid and compares per-node digests pairwise."""

    def __init__(self, base_config=None, modes=None, workdir=None):
        self.base_config = base_config if base_config is not None \
            else StudyConfig()
        self.modes = tuple(modes) if modes is not None \
            else default_modes()
        self.workdir = workdir

    # -- mode execution -------------------------------------------------------

    def _mode_config(self, mode):
        config = self.base_config
        if mode.trust_stores is not None:
            config = replace(config, trust_stores=mode.trust_stores)
        return config

    def _mode_store(self, mode, root):
        from repro.store import ArtifactStore
        if mode.cache == "off":
            return None
        return ArtifactStore(root)

    def _run_cluster_mode(self, mode, config, workdir):
        """One-unit campaign through a real coordinator + fabric worker.

        The worker is a thread (digests cannot depend on the process
        model — that is the point), but every byte still crosses the
        HTTP lease protocol and comes back through the campaign
        ledger, exactly as a multi-machine run would.
        """
        from repro.fabric import FabricCoordinator, FabricWorker, \
            make_fabric_server
        from repro.http import serving
        from repro.store.campaign import CampaignIndex
        from repro.sweep.grid import SweepUnit
        unit = SweepUnit(name=mode.name, seed=config.seed,
                         trust_stores=config.trust_stores)
        index = CampaignIndex.create(
            f"{workdir}/{mode.name}-campaign.json", [unit.to_json()],
            unit.stage)
        coordinator = FabricCoordinator(index)
        server, _ = make_fabric_server(coordinator)
        with serving(server):
            FabricWorker(server.url, worker_id=f"matrix-{mode.name}").run()
        result = index.completed.get(unit.key())
        if result is None:
            raise RuntimeError(
                f"cluster mode {mode.name!r} completed no unit: "
                f"{index.failed or 'no result recorded'}")
        return ModeResult(mode=mode,
                          node_digests=dict(result["node_digests"]))

    def run_mode(self, mode, workdir):
        """Execute one mode; returns its :class:`ModeResult`."""
        config = self._mode_config(mode)
        if mode.backend == "cluster":
            return self._run_cluster_mode(mode, config, workdir)
        store = self._mode_store(mode, f"{workdir}/{mode.name}")
        # A fresh Study per mode: matrix modes must never pollute the
        # global get_study memo.
        if mode.cache == "warm":
            # Populate, then measure the all-hits run with fresh state.
            run_full_study(Study(config, store=store))
        study = Study(config, store=store)
        digests = {}
        run_full_study(
            study,
            node_observer=lambda stage, packed:
                digests.__setitem__(stage, digest(packed)))
        return ModeResult(mode=mode, node_digests=digests)

    # -- the grid -------------------------------------------------------------

    def run(self):
        """Execute every mode and compare; returns a :class:`MatrixReport`."""
        results = []
        with tempfile.TemporaryDirectory(
                dir=self.workdir, prefix="repro-verify-") as workdir:
            for mode in self.modes:
                results.append(self.run_mode(mode, workdir))
        return compare_results(results)


def compare_results(results):
    """Compare every mode against the first; returns a :class:`MatrixReport`.

    Nodes are visited in paper order (``analysis_stage_names``), so the
    report's *first* mismatch is the earliest pipeline node that broke
    equivalence, not an alphabetical accident.
    """
    report = MatrixReport(results=list(results))
    if not report.results:
        return report
    reference = report.results[0]
    ref_digests = reference.comparable_digests()
    node_order = [name for name in analysis_stage_names()
                  if name in ref_digests]
    node_order += [name for name in sorted(ref_digests)
                   if name not in node_order]
    for other in report.results[1:]:
        other_digests = other.comparable_digests()
        names = node_order + [name for name in sorted(other_digests)
                              if name not in ref_digests]
        for name in names:
            dig_a = ref_digests.get(name, "<absent>")
            dig_b = other_digests.get(name, "<absent>")
            if dig_a != dig_b:
                report.mismatches.append(
                    (reference.mode.name, other.mode.name, name,
                     dig_a, dig_b))
    return report
