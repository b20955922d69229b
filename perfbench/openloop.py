"""An open-loop request generator that times requests from their due time.

Requests are due on a fixed schedule whatever the server does.  A pool
of sender threads takes them in order; a sender that is still waiting on
a slow reply leaves the next request queued, and that request's latency
is measured from when it was *due*, so a stall is charged to every
request queued behind it.  The generator's own lateness -- a free
sender starting a due request late -- is reported separately
(``late``); a step where it exceeds :data:`LATE_LIMIT_MS` at p99 is
invalid, because then the generator, not the server, set the pace.
"""

import threading
import time

from common import median, percentile

#: a step is invalid when the generator itself ran this late (p99).
LATE_LIMIT_MS = 5.0

#: a step meets the service objective when p99 latency is within this.
P99_LIMIT_MS = 20.0

#: slack before the first request is due, so every sender is ready.
LEAD_S = 0.05


class OpenLoop:
    """Send ``len(offsets)`` requests, request ``i`` due at ``offsets[i]``.

    ``send(i)`` performs request ``i`` and returns True when its answer
    checked out.  ``clock`` and ``sleep`` are injectable so tests can run
    the loop on a fake clock.
    """

    def __init__(self, offsets, send, clock=time.perf_counter,
                 sleep=time.sleep):
        self.offsets = list(offsets)
        self.send = send
        self.clock = clock
        self.sleep = sleep
        self.records = [None] * len(self.offsets)
        self._next = 0
        self._lock = threading.Lock()
        self.start = None

    def _take(self):
        with self._lock:
            index = self._next
            self._next += 1
        return index if index < len(self.offsets) else None

    def sender(self):
        """One sender's loop; run it on as many threads as senders."""
        free_at = self.clock()
        while True:
            index = self._take()
            if index is None:
                return
            due = self.start + self.offsets[index]
            now = self.clock()
            if now < due:
                self.sleep(due - now)
            sent = self.clock()
            ok = self.send(index)
            done = self.clock()
            self.records[index] = {
                "due": due, "sent": sent, "done": done, "ok": bool(ok),
                "late": sent - max(due, free_at)}
            free_at = done

    def run(self, senders=2):
        self.start = self.clock() + LEAD_S
        threads = [threading.Thread(target=self.sender, daemon=True)
                   for _ in range(senders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self.records


def latencies_ms(records):
    """Latency of each request from its due time (ms)."""
    return [(r["done"] - r["due"]) * 1000.0 for r in records]


def summarize(records, rate):
    """One ladder step's figures."""
    waits = latencies_ms(records)
    late = [r["late"] * 1000.0 for r in records]
    failed = sum(1 for r in records if not r["ok"])
    # The backlog grows when requests wait ever longer through the step:
    # the last quarter's median at least doubles the first quarter's and
    # reaches half the latency limit.
    quarter = max(1, len(waits) // 4)
    first, last = median(waits[:quarter]), median(waits[-quarter:])
    growing = last > 2.0 * first and last > P99_LIMIT_MS / 2.0
    # A failed request misses any latency limit.
    judged = [wait if r["ok"] else float("inf")
              for wait, r in zip(waits, records)]
    span = records[-1]["done"] - records[0]["due"] if records else 0.0
    p99 = percentile(judged, 0.99)
    late_p99 = percentile(late, 0.99)
    return {
        "rate": rate,
        "sent": len(records),
        "failed": failed,
        "p50_ms": percentile(waits, 0.50),
        "p99_ms": p99,
        "late_p99_ms": late_p99,
        "achieved_rps": len(records) / span if span > 0 else 0.0,
        "backlog_growing": growing,
        "valid": late_p99 <= LATE_LIMIT_MS,
        "meets_slo": p99 <= P99_LIMIT_MS and not growing,
    }


def max_qps(steps):
    """Highest valid step rate meeting the objective (0 if none does)."""
    passing = [step["rate"] for step in steps
               if step["valid"] and step["meets_slo"]]
    return max(passing) if passing else 0
