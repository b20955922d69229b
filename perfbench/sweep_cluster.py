"""Workload ``sweep-cluster``: a 2-unit full-stage campaign, cold then warm.

The child process is the campaign's coordinator.  It runs
``SweepRunner(backend="cluster")`` over seeds ``seed+1`` and ``seed+2``
with two worker processes of one claim thread each; the coordinator
serves the HTTP blob store from a fresh directory (cold pass).  The
warm pass runs the same units on a fresh ledger against the now-warm
store.  Nothing is pre-warmed and no thread count is pinned, so the
workers' BLAS threads contend for the cores as they do in a real run.

In a traced run the coordinator activates ``repro.obs`` (for the
``fabric.*`` counters) for the cold pass and one warm pass, and runs an
untraced warm pass just before and just after that one to measure what
tracing costs.

Run directly only as a child of ``run.py``::

    python3 perfbench/sweep_cluster.py child --seed S --trace 0 \\
        --t-spawn T --work DIR --out result.json
"""

import os
import resource
import sys
import time

import catalog
import common
from checks import Tally, check_units

#: light children that only import the campaign path, for setup_s.
SETUP_SAMPLES = 3

WORKERS = 2
CLAIM_THREADS = 1


#: worker stage span -> the per-layer metric it is summed into.
STAGE_LAYER = {
    "study.world": "inspector.world_s",
    "study.dataset": "inspector.dataset_s",
    "study.corpus": "libraries.corpus_s",
    "study.network": "probing.network_s",
    "study.certificates": "probing.probe_s",
    "validate.chain": "x509.validate_s",
    "ml.train": "ml.train_s",
    "ml.eval": "ml.eval_s",
    "ml.features": "ml.features_s",
    "store.put": "store.put_s",
    "store.get": "store.get_s",
}
STAGE_LAYER.update({span: f"{span}_s" for span in catalog.NODE_SPANS})


def _campaign(units, work_dir, name, store_dir):
    from repro.store import http_spec
    from repro.sweep import SweepRunner
    runner = SweepRunner(
        units=units,
        index_path=os.path.join(work_dir, name, "campaign.json"),
        workers=WORKERS, backend="cluster",
        store=http_spec(cache_dir=store_dir), worker_jobs=CLAIM_THREADS)
    started = time.perf_counter()
    outcome = runner.run()
    ended = time.perf_counter()
    return {"started": started, "ended": ended, "wall_s": ended - started,
            "results": {payload["key"]: payload
                        for payload in outcome.results()},
            "failed": outcome.failed}


def child(args):
    from repro import obs
    from repro.config import StudyConfig
    from repro.sweep import expand_grid
    if args.setup_only:
        common.write_json(args.out, {
            "setup_s": time.monotonic() - args.t_spawn})
        return
    ctx = None
    if args.trace:
        ctx = obs.Observability()
        obs.activate(ctx)
    setup_s = time.monotonic() - args.t_spawn
    units = expand_grid(StudyConfig(seed=args.seed + 1), seeds=2)
    keys = [unit.key() for unit in units]
    store_dir = os.path.join(args.work, "store")

    def campaign(name):
        cpu0 = _cpu_with_workers()
        outcome = _campaign(units, args.work, name, store_dir)
        outcome["cpu_s"] = _cpu_with_workers() - cpu0
        return outcome

    cold = campaign("cold")
    out = {"setup_s": setup_s, "sweep_s": cold["wall_s"]}
    if ctx is None:
        warm = campaign("warm")
        warms = [warm]
        out.update(wait_s=warm["wall_s"], cpu_s=warm["cpu_s"])
    else:
        # Untraced warm passes just before and after the traced one, so
        # drift over the run cancels out of the tracing overhead.
        obs.deactivate()
        before = campaign("warm-untraced-before")
        obs.activate(ctx)
        traced = campaign("warm")
        obs.deactivate()
        after = campaign("warm-untraced-after")
        warms = [before, traced, after]
        out.update(wait_s=traced["wall_s"],
                   untraced_warm_s=[before["wall_s"], after["wall_s"]],
                   layers=_layers(cold, traced, ctx.metrics.snapshot()),
                   traced_wall_s=cold["wall_s"] + traced["wall_s"])
    out["peak_rss_mb"] = common.peak_rss_mb(resource.RUSAGE_CHILDREN)
    tally = Tally()
    check_units(tally, cold["results"],
                [warm["results"] for warm in warms], keys)
    out["failures"] = [f"{name}: {error}" for name, error in
                       cold["failed"] + sum((w["failed"] for w in warms),
                                            [])]
    out["checks"] = tally.to_json()
    common.write_json(args.out, out)


def _cpu_with_workers():
    """CPU seconds of this process plus every child it has waited for."""
    return common.cpu_seconds() + common.cpu_seconds(
        resource.RUSAGE_CHILDREN)


def _layers(cold, warm, snapshot):
    """Per-layer metrics from the payloads and the coordinator's counters.

    Units run in parallel worker processes, so their stage times do not
    add up to the wall: each compute layer is the total of its stage
    span over every unit of both passes, inclusive of any layer span
    nested in it.  The campaign wall splits exactly into the slowest
    unit per pass (``sweep.unit_s``) and the rest (``fabric.overhead_s``).
    """
    layers = {}
    slowest = overhead = 0.0
    hits = misses = 0
    for campaign in (cold, warm):
        walls = [p["wall_seconds"] for p in campaign["results"].values()]
        longest = max(walls) if walls else 0.0
        slowest += longest
        overhead += campaign["wall_s"] - longest
        for payload in campaign["results"].values():
            for stage, seconds in payload["stage_timings"].items():
                layer = STAGE_LAYER.get(stage)
                if layer is not None:
                    layers[layer] = layers.get(layer, 0.0) + seconds
            cache = payload["cache"]
            for field, metric in (("writes", "store.writes"),
                                  ("hits", "store.hits"),
                                  ("misses", "store.misses"),
                                  ("errors", "store.errors")):
                layers[metric] = layers.get(metric, 0) + len(cache[field])
            hits += len(cache["hits"])
            misses += len(cache["misses"])
    layers["store.hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    layers["sweep.unit_s"] = slowest
    layers["fabric.overhead_s"] = overhead
    counters = snapshot.get("counters", {})
    families = snapshot.get("families", {})
    for name in ("steals", "failures", "blob_writes", "blob_reads",
                 "blob_misses"):
        layers[f"fabric.{name}"] = counters.get(f"fabric.{name}", 0)
    for name in ("leases", "lease_expired"):
        layers[f"fabric.{name}"] = sum(
            families.get(f"fabric.{name}", {}).values())
    return layers


def _run_child(work_dir, name, seed, trace, deadline, setup_only=False):
    return common.run_workload_child("sweep_cluster.py", work_dir, name,
                                     seed, trace, deadline, setup_only)


def run(seed, seconds, trace, work_dir, deadline):
    """A cold campaign, then a warm one (whole campaigns, any ``seconds``).

    The cold pass's wall is reported but bounded by no metric: with two
    workers each starting a BLAS thread per core, its ``ml.train`` took
    7 s to 47 s on identical inputs.  ``wait_s`` is the warm re-run.
    """
    tally = Tally()
    if not trace:
        setups = [_run_child(work_dir, f"setup{i}", seed, False, deadline,
                             setup_only=True)["setup_s"]
                  for i in range(SETUP_SAMPLES)]
        plain = _run_child(work_dir, "campaign", seed, False, deadline)
        tally.absorb(plain["checks"])
        setups.append(plain["setup_s"])
        e2e = {"setup_s": common.median(setups),
               "wait_s": plain["wait_s"], "cpu_s": plain["cpu_s"],
               "peak_rss_mb": plain["peak_rss_mb"]}
        notes = {"sweep_s": plain["sweep_s"],
                 "warm_sweep_s": plain["wait_s"],
                 "setup_s": e2e["setup_s"],
                 "peak_rss_mb": plain["peak_rss_mb"],
                 "unit_failures": plain["failures"]}
        return e2e, tally, True, notes
    traced = _run_child(work_dir, "traced", seed, True, deadline)
    tally.absorb(traced["checks"])
    layers = catalog.zero_layers()
    layers.update(traced["layers"])
    covered = layers["sweep.unit_s"] + layers["fabric.overhead_s"]
    layers["unattributed_s"] = traced["traced_wall_s"] - covered
    layers["obs.trace_overhead_pct"] = common.overhead_pct(
        traced["wait_s"], *traced["untraced_warm_s"])
    notes = {"sweep_s": traced["sweep_s"],
             "warm_sweep_s": traced["wait_s"],
             "untraced_warm_sweep_s": traced["untraced_warm_s"],
             "traced_wall_s": traced["traced_wall_s"],
             "unit_failures": traced["failures"]}
    return layers, tally, True, notes


def main(argv=None):
    child(common.child_args(argv))


if __name__ == "__main__":
    sys.exit(main())
