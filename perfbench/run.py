"""The repository benchmark: report-cold, serve-open and sweep-cluster.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-cold --seed 2023 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and prints the per-layer
metrics.  Human-readable lines (the environment, each workload's own
figures, every ladder step) come first; the last stdout line is the
JSON result.  The program under test is built from ``src/`` in the
checkout; without it the benchmark exits 2 and prints no result.
"""

import argparse
import json
import shutil
import signal
import sys
import time

import catalog
import common

#: every run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0

#: units of the figures printed above the JSON result.
NOTE_UNITS = {
    "report_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "query_samples": "count",
    "max_qps": "req/s", "sweep_s": "s", "warm_sweep_s": "s",
    "traced_wall_s": "s",
    "attribution_residual_s": "s", "error_rate": "fraction",
}


def _workload_module(name):
    if name == "report-cold":
        import report_cold as module
    elif name == "serve-open":
        import serve_open as module
    else:
        import sweep_cluster as module
    return module


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not common.program_present():
        print("perfbench: no program sources (src/repro) under "
              f"{common.ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    work_dir = common.make_work_dir(args.workload)
    try:
        module = _workload_module(args.workload)
        metrics, tally, ok, notes = module.run(
            args.seed, args.seconds, bool(args.trace), work_dir, deadline)
    except common.BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    notes["error_rate"] = tally.error_rate
    print("env " + json.dumps(common.environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for name, value in notes.items():
        if isinstance(value, (dict, list)):
            print(f"  {name}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"  {name}: {value} {NOTE_UNITS.get(name, '')}".rstrip())
    for failure in tally.failures:
        print(f"  check failed: {failure}")
    print(json.dumps(catalog.result(metrics, units, tally.attempted,
                                    tally.failed, extra_ok=ok)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
