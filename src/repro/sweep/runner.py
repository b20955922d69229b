"""The resumable campaign runner: inline, or a one-host fabric cluster.

A campaign is N independent :class:`~repro.sweep.grid.SweepUnit`\\ s.
Each unit is a full study — world generation, probing, analysis — whose
cost is CPU-bound Python, so threads (such as the probe engine's pool)
cannot scale a *sweep* past the GIL.  :class:`SweepRunner` runs
``workers == 1`` inline (the serial reference path) and ``workers > 1``
on a one-host :mod:`repro.fabric` cluster: a coordinator in this
process plus that many spawned worker processes (spawn context: clean
workers, identical behavior across platforms, and the same boundary
the pickling regression tests guard), one study per worker process.

Resumability: every completed unit is recorded in the
:class:`~repro.store.campaign.CampaignIndex` ledger *as it finishes*
(atomic rewrite), so killing a campaign loses at most the units still
in flight.  ``run(resume=True)`` — or a re-run over the same out
directory — consults the ledger and the units' content keys (built on
``StudyConfig.artifact_digest``) and re-executes only incomplete
configs.  Workers additionally share the campaign's
:class:`~repro.store.artifact.ArtifactStore`, so even a unit killed
mid-flight resumes from its cached stages rather than from scratch.

Observability: the campaign runs inside a ``sweep.campaign`` span; each
unit's completion bumps ``sweep.completed`` / ``sweep.failed`` (and
skips bump ``sweep.skipped``).  Inline, a ``sweep.unit.<name>`` span
records each unit's wall seconds; on the cluster each worker's own
per-stage timings travel back inside the result payload.
"""

from dataclasses import dataclass, field

from repro import obs
from repro.store.backend import local_spec
from repro.store.campaign import CampaignIndex, campaign_id_for
from repro.sweep.grid import SweepUnit
from repro.sweep.worker import run_unit


@dataclass
class CampaignResult:
    """What one ``SweepRunner.run`` actually did."""

    index: CampaignIndex
    #: unit names executed this run, in completion order.
    ran: list = field(default_factory=list)
    #: unit names skipped because the ledger already had their results.
    skipped: list = field(default_factory=list)
    #: ``(unit name, error string)`` pairs that failed this run.
    failed: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failed

    def results(self):
        """Completed result payloads, in campaign unit order."""
        return self.index.results()


class SweepRunner:
    """Executes a campaign of sweep units, inline or on a one-host cluster.

    Args:
        units: the campaign's :class:`SweepUnit`\\ s (ignored on
            ``run(resume=True)``, which reloads them from the ledger).
        index_path: where the campaign ledger lives.
        workers: 1 executes inline (the serial reference path —
            byte-identical digests, no subprocesses); N > 1 spawns N
            fabric worker processes on this host, N units in flight.
        cache_dir: optional shared artifact-store root every worker
            warms and reads.
        unit_runner: the per-unit function (tests inject stubs); only
            honored inline — the cluster always runs the real
            :func:`repro.sweep.worker.run_unit`, which must stay
            importable from a spawned process.
        backend: ignored; perfbench's sweep-cluster workload passes it.
        store: optional store-backend spec
            (:mod:`repro.store.backend`); defaults to a local spec over
            ``cache_dir``.
        worker_jobs: claim threads per cluster worker process — a
            study's modeled-latency sleeps overlap another thread's
            compute, so 2 can beat 1 per core-bound process.
    """

    def __init__(self, units=None, index_path=None, workers=1,
                 cache_dir=None, unit_runner=run_unit, backend=None,
                 store=None, worker_jobs=1):
        self.units = tuple(units) if units is not None else ()
        self.index_path = index_path
        self.workers = max(1, int(workers))
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.unit_runner = unit_runner
        self.store_spec = store
        self.worker_jobs = max(1, int(worker_jobs))

    # -- ledger handling ------------------------------------------------------

    def _open_index(self, resume):
        index = CampaignIndex.load(self.index_path) if resume else None
        if self.store_spec is None:
            ledger_spec = index.store_spec if resume else None
            self.store_spec = ledger_spec or local_spec(self.cache_dir)
        spec = self.store_spec or {}
        if self.workers == 1 and spec.get("backend") == "http" \
                and not spec.get("url"):
            # Only the cluster's coordinator serves a self-served store;
            # checked before any ledger is written.
            raise ValueError(
                "a self-served http store needs --workers 2 or more "
                "(or an explicit --store-url)")
        if resume:
            return index, campaign_units(index)
        units = list(self.units)
        if not units:
            raise ValueError("a fresh campaign needs at least one unit")
        specs = [unit.to_json() for unit in units]
        keys = [spec["key"] for spec in specs]
        stage = units[0].stage
        try:
            index = CampaignIndex.load(self.index_path)
        except ValueError:
            index = None
        if index is not None and index.matches(keys):
            # Same campaign re-run: keep the ledger, skip completed.
            return index, units
        index = CampaignIndex.create(self.index_path, specs, stage,
                                     cache_dir=self.cache_dir,
                                     store=self.store_spec)
        return index, units

    # -- execution ------------------------------------------------------------

    def _run_inline(self, index, pending, outcome):
        for unit in pending:
            with obs.span(f"sweep.unit.{unit.name}") as span:
                try:
                    result = self.unit_runner(
                        {"unit": unit.to_json(), "store": self.store_spec})
                except Exception as exc:  # a unit failure, not the campaign's
                    error = f"{type(exc).__name__}: {exc}"
                    index.fail(unit.key(), error)
                    obs.incr("sweep.failed")
                    outcome.failed.append((unit.name, error))
                    continue
                span.incr("wall_ms",
                          int(1000 * result.get("wall_seconds", 0)))
            index.complete(unit.key(), result)
            obs.incr("sweep.completed")
            outcome.ran.append(unit.name)

    def _run_cluster(self, index, pending, outcome):
        """One-host cluster: coordinator + spawned fabric workers.

        The coordinator (and, for a self-served http store, the blob
        store) runs in *this* process over *this* ledger object, so
        completions land in ``index`` directly; the workers are real
        spawned processes driving the same HTTP protocol a
        multi-machine deployment would.
        """
        import multiprocessing
        from repro.fabric.coordinator import FabricCoordinator
        from repro.fabric.server import make_fabric_server
        from repro.fabric.worker import worker_main
        from repro.http import serving

        coordinator = FabricCoordinator(index, store_spec=self.store_spec)
        server, _ = make_fabric_server(coordinator)
        context = multiprocessing.get_context("spawn")
        processes = [
            context.Process(
                target=worker_main, args=(server.url,),
                kwargs={"worker_id": f"local-{rank}",
                        "jobs": self.worker_jobs},
                daemon=True)
            for rank in range(min(self.workers, len(pending)))]
        with serving(server):
            for process in processes:
                process.start()
            for process in processes:
                process.join()
        before_failed = dict(index.failed)
        for unit in pending:
            key = unit.key()
            if key in index.completed:
                obs.incr("sweep.completed")
                outcome.ran.append(unit.name)
            else:
                error = before_failed.get(
                    key, "unit did not complete on the cluster")
                obs.incr("sweep.failed")
                outcome.failed.append((unit.name, error))

    def run(self, resume=False):
        """Execute (or resume) the campaign; returns a :class:`CampaignResult`.

        The ledger is updated after every unit, so interrupting this
        call (Ctrl-C, SIGKILL, a crashed worker) never loses completed
        units — the next ``run``/``resume`` picks up from the ledger.
        """
        with obs.span("sweep.campaign") as span:
            index, units = self._open_index(resume)
            outcome = CampaignResult(index=index)
            completed = index.completed
            pending = [unit for unit in units
                       if unit.key() not in completed]
            outcome.skipped = [unit.name for unit in units
                               if unit.key() in completed]
            if outcome.skipped:
                obs.incr("sweep.skipped", n=len(outcome.skipped))
            span.incr("units", len(units))
            span.incr("pending", len(pending))
            if pending:
                if self.workers == 1:
                    self._run_inline(index, pending, outcome)
                else:
                    self._run_cluster(index, pending, outcome)
        return outcome


def campaign_units(index):
    """The live :class:`SweepUnit`\\ s recorded in a campaign ledger.

    Raises a one-line ``ValueError`` naming the ledger and the unit's
    position when a recorded spec cannot be read back (a ledger edited
    by hand, or written by another build).
    """
    units = []
    for position, spec in enumerate(index.units):
        try:
            units.append(SweepUnit.from_json(spec))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"campaign index {index.path}: unit {position}: "
                f"unreadable spec ({type(exc).__name__}: {exc})") from None
    return units


__all__ = ["CampaignResult", "SweepRunner", "campaign_id_for",
           "campaign_units"]
