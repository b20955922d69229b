"""Plumbing shared by the benchmark's parent and child processes.

Every workload runs the program under test in fresh child processes
started from the checkout's own ``src/`` tree.  Children write one JSON
result file into a per-run work directory inside the checkout (never
``/tmp``: ``TMPDIR`` points there too), and cross-process timestamps
use ``time.monotonic``, which is one system-wide clock on Linux.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: the checkout root: the benchmark is run from there.
ROOT = os.getcwd()

SRC = os.path.join(ROOT, "src")

#: per-run scratch space (removed when the run ends).
WORK_ROOT = os.path.join(HERE, ".work")

#: state kept across runs in one checkout (digest ledgers).
STATE_ROOT = os.path.join(HERE, ".state")

#: the thread-count variables recorded with every result and never set.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result (no JSON is printed)."""


def program_present(root=ROOT):
    """Whether ``root`` holds the program's sources."""
    return os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py"))


def child_env(work_dir):
    """Environment for a child: the checkout's sources, scratch in-tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work_dir
    env["PYTHONUNBUFFERED"] = "1"
    return env


def make_work_dir(workload):
    path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def spawn(args, work_dir, log_name, stdin=None):
    """Start ``python3 <args>`` as a child logging into ``work_dir``."""
    log = open(os.path.join(work_dir, log_name), "wb")
    try:
        return subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(work_dir),
            stdin=stdin if stdin is not None else subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
    finally:
        log.close()


def _signal_group(pgid, sig):
    try:
        os.killpg(pgid, sig)
        return True
    except ProcessLookupError:
        return False


def stop(process, grace=5.0):
    """End ``process`` and everything it started; wait until all are gone.

    Children run in their own process group, so worker processes a child
    spawned (and its multiprocessing helpers) are found through it.
    """
    if process is None:
        return
    if process.poll() is None:
        _signal_group(process.pid, signal.SIGTERM)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            _signal_group(process.pid, signal.SIGKILL)
            process.wait()
    # Stragglers of an exited child: terminate, then wait them out.
    if not _signal_group(process.pid, signal.SIGTERM):
        return
    limit = time.monotonic() + grace
    while _signal_group(process.pid, 0):
        if time.monotonic() > limit:
            _signal_group(process.pid, signal.SIGKILL)
            break
        time.sleep(0.05)


def log_tail(work_dir, log_name, lines=20):
    try:
        with open(os.path.join(work_dir, log_name), "r",
                  encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""


def run_child(args, work_dir, log_name, deadline):
    """Run a child to completion before ``deadline`` (monotonic)."""
    process = spawn(args, work_dir, log_name)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{log_name}: child exceeded the run deadline")
    finally:
        stop(process)
    if code != 0:
        raise BenchError(f"{log_name}: child exited {code}\n"
                         + log_tail(work_dir, log_name))


def run_workload_child(script, work_dir, name, seed, trace, deadline,
                       setup_only=False):
    """Run ``perfbench/<script> child`` and return the JSON it wrote.

    The child gets its own scratch directory (``--work``) and the
    monotonic time it was spawned at (``--t-spawn``), which is where its
    ``setup_s`` starts.
    """
    out = os.path.join(work_dir, f"{name}.json")
    child_dir = os.path.join(work_dir, name)
    os.makedirs(child_dir, exist_ok=True)
    args = [os.path.join(HERE, script), "child", "--seed", str(seed),
            "--trace", str(int(trace)), "--work", child_dir, "--out", out]
    if setup_only:
        args.append("--setup-only")
    args += ["--t-spawn", repr(time.monotonic())]
    run_child(args, work_dir, f"{name}.log", deadline)
    return read_json(out)


def child_args(argv=None):
    """The arguments :func:`run_workload_child` passes to a child."""
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("child",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def overhead_pct(traced, before, after):
    """Tracing cost: the traced wall against the untraced walls run just
    before and just after it, so a drift over the run cancels."""
    untraced = (before + after) / 2.0
    return 100.0 * (traced - untraced) / untraced


def percentile(values, fraction):
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1,
               max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def study_counts(study):
    """Work counts of a built study's capture and probe."""
    stats = study.certificates.stats
    return {
        "inspector.records": len(study.dataset.records),
        "probing.endpoints": len(study.network.endpoints),
        "probing.probes": stats.probes,
        "probing.attempts": stats.attempts,
        "probing.retries": stats.retries,
        "probing.unreachable": sum(stats.unreachable_by_vantage.values()),
    }


def cpu_seconds(who=resource.RUSAGE_SELF):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who=resource.RUSAGE_SELF):
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit(root=ROOT):
    """The checked-out commit, or None outside a git work tree."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        with open(os.path.join(root, ".git", ref[5:]), "r",
                  encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def blas_build():
    """numpy's BLAS library name and version, as numpy reports them."""
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # recorded, never fatal
        return f"unavailable ({type(exc).__name__})"


def environment():
    """What every result is recorded with."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "blas": blas_build(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": git_commit(),
    }
