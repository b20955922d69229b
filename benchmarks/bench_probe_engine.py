"""Serial vs parallel probe engine wall-clock benchmark.

Runs the full 3-vantage x 1,151-SNI probe matrix two ways and writes
``BENCH_probe.json``:

1. serial (``jobs=1``) with the deterministic :class:`LatencyModel`
   RTTs actually slept (scaled), the way a one-connection-at-a-time
   scanner would experience them;
2. parallel (``--jobs N``) over the same latency model — workers overlap
   RTT waits exactly like a real parallel scanner overlaps socket waits.

The two datasets must be byte-identical (checked via
``CertificateDataset.fingerprint()``); the run fails loudly if not.

Usage::

    PYTHONPATH=src python benchmarks/bench_probe_engine.py \
        [--jobs 4] [--seed 2023] [--time-scale 0.02] [-o BENCH_probe.json]
"""

import argparse
import json
import pathlib
import sys
import time

from repro.probing.engine import LatencyModel, ProbeEngine
from repro.study import StudyConfig, get_study


def _timed_probe(engine, snis):
    started = time.perf_counter()
    dataset = engine.probe_all(snis)
    return dataset, time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--time-scale", type=float, default=0.02,
                        help="real seconds slept per simulated network "
                             "second (default %(default)s)")
    parser.add_argument("-o", "--output", default="BENCH_probe.json")
    args = parser.parse_args(argv)

    study = get_study(StudyConfig(seed=args.seed))
    network = study.network
    snis = [spec.fqdn for spec in study.world.servers]
    latency = LatencyModel(seed=args.seed)

    print(f"probing {len(snis)} SNIs x 3 vantages "
          f"(time scale {args.time_scale})...")
    serial, serial_seconds = _timed_probe(
        ProbeEngine(network, jobs=1, latency=latency,
                    time_scale=args.time_scale), snis)
    print(f"  serial       {serial_seconds:6.2f}s")
    parallel, parallel_seconds = _timed_probe(
        ProbeEngine(network, jobs=args.jobs, latency=latency,
                    time_scale=args.time_scale), snis)
    speedup = serial_seconds / parallel_seconds
    print(f"  --jobs {args.jobs}     {parallel_seconds:6.2f}s "
          f"({speedup:.2f}x)")

    identical = serial.fingerprint() == parallel.fingerprint()
    if not identical:
        print("FATAL: parallel output differs from serial", file=sys.stderr)
        return 1

    payload = {
        "seed": args.seed,
        "probes": len(serial),
        "jobs": args.jobs,
        "time_scale": args.time_scale,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 2),
        "outputs_identical": identical,
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    if speedup < 2.0:
        print(f"WARNING: speedup {speedup:.2f}x below the 2x target",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
