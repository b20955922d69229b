"""The fabric worker: claim a lease, run the unit, upload the result.

:class:`FabricWorker` is the client half of the lease protocol.  Its
loop is deliberately dumb — all scheduling intelligence lives in the
coordinator:

1. ``POST /fabric/lease``; if nothing is claimable, poll until the
   coordinator reports the campaign done;
2. build the same ``{"unit", "store"}`` payload the inline
   :class:`~repro.sweep.runner.SweepRunner` builds (unit spec + the
   resolved store-backend spec) and run the standard per-unit function
   (:func:`repro.sweep.worker.run_unit`) — the execution path is
   *identical* to the inline path from the payload inward, which is
   what makes per-config digests byte-identical at any worker count;
3. heartbeat on a side thread at a third of the lease interval; a 410
   means the lease expired and the unit was stolen — the worker still
   finishes and uploads (content-addressed results are
   interchangeable; the coordinator keeps the first and counts the
   other as a duplicate);
4. ``POST /fabric/complete`` (or ``/fabric/fail`` with the error
   string).

``jobs > 1`` runs that loop on several claim threads inside one
process.  A study's cost is part CPU, part modeled latency sleeps, so
two claim threads overlap one thread's sleeps with the other's compute
— that (not the GIL-bound CPU) is where the extra speedup of a second
claim thread per process comes from.

``worker_main`` is the top-level entry of ``repro fabric worker`` and
of each process ``repro sweep run --workers N`` spawns; it must stay
importable from a clean interpreter, and nothing on its import path may
load numpy, so that it can pin BLAS to one thread first.  It records
into the caller's observability context and never switches one on.
"""

import json
import os
import threading
import time

from repro import obs
from repro.http import TransportError, request
from repro.sweep.worker import run_unit


class _Heartbeat(threading.Thread):
    """Pings one lease until stopped; flags the lease stolen on 410."""

    def __init__(self, worker, token, interval):
        super().__init__(daemon=True)
        self.worker = worker
        self.token = token
        self.interval = max(0.05, interval)
        self.stopped = threading.Event()
        self.stolen = threading.Event()

    def run(self):
        while not self.stopped.wait(self.interval):
            status, _ = self.worker.post("/fabric/heartbeat",
                                         {"lease": self.token})
            if status == 410:
                self.stolen.set()
                obs.incr("fabric.worker_stolen")
                return
            if status == 404:
                return

    def stop(self):
        self.stopped.set()


class FabricWorker:
    """One worker process's claim/run/upload loop.

    Args:
        base_url: the coordinator's base URL.
        worker_id: how this worker identifies itself in leases.
        runner: the per-unit function (tests inject stubs).
        poll_seconds: sleep between lease attempts when the queue is
            drained but the campaign is not done.
        max_units: stop after completing this many units (None: run
            until the campaign is done).
        jobs: concurrent claim threads inside this worker.
        heartbeat: disable to simulate a dead worker (tests).
        max_errors: consecutive transport failures before giving up.
    """

    def __init__(self, base_url, worker_id="worker", runner=run_unit,
                 poll_seconds=0.25, max_units=None, jobs=1,
                 heartbeat=True, max_errors=20, timeout=10.0):
        self.base_url = str(base_url).rstrip("/")
        self.worker_id = str(worker_id)
        self.runner = runner
        self.poll_seconds = poll_seconds
        self.max_units = max_units
        self.jobs = max(1, int(jobs))
        self.heartbeat = heartbeat
        self.max_errors = max_errors
        self.timeout = timeout
        self.stop_event = threading.Event()
        self._lock = threading.Lock()
        #: unit names completed / failed / completed-after-steal here.
        self.ran = []
        self.failed = []
        self.stolen = []

    # -- transport ------------------------------------------------------------

    def post(self, path, payload):
        """POST one JSON message; returns ``(status, payload dict)``.

        Transport failure returns ``(None, {})`` — the loop counts
        those and gives up only after ``max_errors`` in a row.  A reply
        that is not a JSON object reads as ``{}``.
        """
        try:
            status, body = request(
                "POST", f"{self.base_url}{path}",
                body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                timeout=self.timeout)
        except TransportError:
            return None, {}
        try:
            reply = json.loads(body)
        except ValueError:
            reply = {}
        return status, reply if isinstance(reply, dict) else {}

    # -- one unit -------------------------------------------------------------

    def _run_lease(self, lease):
        token = lease["lease"]
        unit = lease["unit"]
        name = unit.get("name", unit["key"][:12])
        heart = None
        if self.heartbeat:
            heart = _Heartbeat(self, token,
                               lease.get("lease_seconds", 30.0) / 3.0)
            heart.start()
        try:
            with obs.span(f"fabric.unit.{name}"):
                result = self.runner({"unit": unit,
                                      "store": lease.get("store")})
        except Exception as exc:
            if heart is not None:
                heart.stop()
            self.post("/fabric/fail",
                      {"lease": token,
                       "error": f"{type(exc).__name__}: {exc}"})
            with self._lock:
                self.failed.append(name)
            return True
        if heart is not None:
            heart.stop()
        status, reply = self.post("/fabric/complete",
                                  {"lease": token, "result": result})
        with self._lock:
            if heart is not None and heart.stolen.is_set() \
                    or (status == 200 and reply.get("duplicate")):
                self.stolen.append(name)
            else:
                self.ran.append(name)
        return status is not None

    # -- the loop -------------------------------------------------------------

    def _loop(self):
        errors = 0
        while not self.stop_event.is_set():
            with self._lock:
                finished = len(self.ran) + len(self.stolen)
            if self.max_units is not None \
                    and finished >= self.max_units:
                return
            status, lease = self.post("/fabric/lease",
                                      {"worker": self.worker_id})
            if status is None:
                errors += 1
                if errors >= self.max_errors:
                    return
                time.sleep(self.poll_seconds)
                continue
            errors = 0
            if status != 200:
                return
            if lease.get("unit") is None:
                if lease.get("done"):
                    return
                time.sleep(self.poll_seconds)
                continue
            self._run_lease(lease)

    def run(self):
        """Drain the queue; returns this worker's summary dict."""
        if self.jobs == 1:
            self._loop()
        else:
            threads = [threading.Thread(target=self._loop, daemon=True)
                       for _ in range(self.jobs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        with self._lock:
            return {"worker": self.worker_id, "ran": list(self.ran),
                    "failed": list(self.failed),
                    "stolen": list(self.stolen)}

    def stop(self):
        self.stop_event.set()


#: thread-count variables of the BLAS builds numpy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def worker_main(base_url, worker_id="worker", jobs=1, max_units=None,
                poll_seconds=0.25):
    """Top-level worker entry (spawn-importable).

    Sets each of :data:`BLAS_THREAD_VARS` to ``1`` unless the
    environment already sets it: workers share a host, and a BLAS pool
    of one thread per core in each of them oversubscribes it.  BLAS
    reads these once, when numpy first loads (the ML analysis node
    imports it), so a count set here holds for the whole process.

    Pings the coordinator before looping, so a worker pointed at a dead
    endpoint fails fast with a one-line error instead of silently
    polling ``max_errors`` times.
    """
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    base_url = str(base_url).rstrip("/")
    try:
        status, _ = request("GET", f"{base_url}/fabric/ping")
    except TransportError:
        status = None
    if status != 200:
        raise ConnectionError(f"no fabric coordinator at {base_url}")
    worker = FabricWorker(base_url, worker_id=worker_id, jobs=jobs,
                          max_units=max_units,
                          poll_seconds=poll_seconds)
    return worker.run()


__all__ = ["FabricWorker", "worker_main"]
