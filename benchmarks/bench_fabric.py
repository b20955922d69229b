"""Single-process vs one-host cluster campaign wall-clock benchmark.

Runs the same multi-seed probe-stage campaign twice and writes
``BENCH_fabric.json``:

1. local — ``SweepRunner(workers=1)``, the inline single-process
   reference path, one study after another;
2. cluster — ``SweepRunner(workers=2, worker_jobs=2)``, a fabric
   coordinator in-process plus two spawned fabric worker processes,
   each running ``--worker-jobs`` claim threads so one thread's
   latency-model sleeps overlap another's compute.

Neither run gets an artifact cache: the point is the fabric's
*scheduling* win over one process, not the store's.  The per-unit
``config_digest``/``node_digests`` of both runs must be byte-identical
— the digest-equivalence contract the fabric extends across the lease
protocol; the run fails loudly if not.

Usage::

    PYTHONPATH=src python benchmarks/bench_fabric.py \
        [--seeds 4] [--workers 2] [--worker-jobs 2] [--seed 3101] \
        [--time-scale 0.08] [-o BENCH_fabric.json]
"""

import argparse
import json
import pathlib
import sys
import tempfile
import time

from repro.config import StudyConfig
from repro.sweep import SweepRunner, expand_grid


def _timed_campaign(units, index_path, **kwargs):
    runner = SweepRunner(units, index_path=index_path, **kwargs)
    started = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - started


def _digest_map(result):
    return {payload["key"]: (payload["config_digest"],
                             payload["node_digests"])
            for payload in result.results()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=4,
                        help="campaign size: consecutive seeds starting "
                             "at --seed (default %(default)s)")
    parser.add_argument("--workers", type=int, default=2,
                        help="fabric worker processes "
                             "(default %(default)s)")
    parser.add_argument("--worker-jobs", type=int, default=2,
                        help="claim threads per worker process "
                             "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=3101,
                        help="base seed (default %(default)s, disjoint "
                             "from the tests' 2023 grid)")
    parser.add_argument("--time-scale", type=float, default=0.08,
                        help="real seconds slept per simulated network "
                             "second while probing (default "
                             "%(default)s; never changes output bytes)")
    parser.add_argument("-o", "--output", default="BENCH_fabric.json")
    args = parser.parse_args(argv)

    units = expand_grid(StudyConfig(seed=args.seed), seeds=args.seeds,
                        time_scale=args.time_scale, stage="probe")
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-fabric-"))

    print(f"campaign: {len(units)} probe-stage units "
          f"(time scale {args.time_scale})...")
    local, local_seconds = _timed_campaign(
        units, scratch / "local.json", workers=1)
    print(f"  --workers 1 (inline)       {local_seconds:6.2f}s")
    cluster, cluster_seconds = _timed_campaign(
        units, scratch / "cluster.json",
        workers=args.workers, worker_jobs=args.worker_jobs)
    speedup = local_seconds / cluster_seconds
    print(f"  --workers {args.workers} --worker-jobs "
          f"{args.worker_jobs}   "
          f"{cluster_seconds:6.2f}s ({speedup:.2f}x)")

    ok = local.ok and cluster.ok
    identical = ok and _digest_map(local) == _digest_map(cluster)
    if not identical:
        print("FATAL: cluster campaign digests differ from local",
              file=sys.stderr)

    payload = {
        "seed": args.seed,
        "seeds": args.seeds,
        "units": len(units),
        "stage": "probe",
        "workers": args.workers,
        "worker_jobs": args.worker_jobs,
        "time_scale": args.time_scale,
        "local_seconds": round(local_seconds, 3),
        "cluster_seconds": round(cluster_seconds, 3),
        "speedup": round(speedup, 2),
        "digests_identical": identical,
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    if speedup < 2.0:
        print(f"WARNING: speedup {speedup:.2f}x below the 2x target",
              file=sys.stderr)
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
