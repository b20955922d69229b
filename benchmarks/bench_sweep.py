"""Serial vs multi-worker sweep campaign wall-clock benchmark.

Runs the same multi-seed probe-stage campaign twice and writes
``BENCH_sweep.json``:

1. serial — ``SweepRunner(workers=1)``, the inline reference path, one
   study after another;
2. multi-worker — ``SweepRunner(workers=N)``, the one-host fabric
   cluster: a coordinator in-process plus N spawned worker processes
   with one claim thread each, overlapping the simulated probe RTTs
   (``--time-scale``) the way a real campaign overlaps network waits
   across hosts.  The JSON keeps the ``pool_seconds`` key for this leg,
   so the committed baseline still gates it.

The campaign is the sweep engine's representative workload: every unit
pays the CPU-bound world build, then a latency-scaled probe of the full
3-vantage SNI matrix.  The per-unit ``config_digest``/``node_digests``
of the two runs must be byte-identical — the determinism guarantee the
sweep extends across the process boundary; the run fails loudly if not.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py \
        [--seeds 4] [--workers 4] [--seed 3001] [--time-scale 0.08] \
        [-o BENCH_sweep.json]
"""

import argparse
import json
import pathlib
import sys
import tempfile
import time

from repro.config import StudyConfig
from repro.sweep import SweepRunner, expand_grid


def _timed_campaign(units, index_path, workers):
    runner = SweepRunner(units, index_path=index_path, workers=workers)
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
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=3001,
                        help="base seed (default %(default)s, disjoint "
                             "from the tests' 2023 grid)")
    parser.add_argument("--time-scale", type=float, default=0.08,
                        help="real seconds slept per simulated network "
                             "second while probing (default "
                             "%(default)s; never changes output bytes)")
    parser.add_argument("-o", "--output", default="BENCH_sweep.json")
    args = parser.parse_args(argv)

    units = expand_grid(StudyConfig(seed=args.seed), seeds=args.seeds,
                        time_scale=args.time_scale, stage="probe")
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-sweep-"))

    print(f"campaign: {len(units)} probe-stage units "
          f"(time scale {args.time_scale})...")
    serial, serial_seconds = _timed_campaign(
        units, scratch / "serial.json", workers=1)
    print(f"  serial        {serial_seconds:6.2f}s")
    cluster, pool_seconds = _timed_campaign(
        units, scratch / "cluster.json", workers=args.workers)
    speedup = serial_seconds / pool_seconds
    print(f"  --workers {args.workers}   {pool_seconds:6.2f}s "
          f"({speedup:.2f}x)")

    ok = serial.ok and cluster.ok
    identical = ok and _digest_map(serial) == _digest_map(cluster)
    if not identical:
        print("FATAL: multi-worker campaign digests differ from serial",
              file=sys.stderr)

    payload = {
        "seed": args.seed,
        "seeds": args.seeds,
        "units": len(units),
        "stage": "probe",
        "workers": args.workers,
        "time_scale": args.time_scale,
        "serial_seconds": round(serial_seconds, 3),
        "pool_seconds": round(pool_seconds, 3),
        "speedup": round(speedup, 2),
        "digests_identical": identical,
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    if speedup < 2.5:
        print(f"WARNING: speedup {speedup:.2f}x below the 2.5x target",
              file=sys.stderr)
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
