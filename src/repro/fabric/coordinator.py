"""The campaign coordinator: leases over a ledger.

:class:`FabricCoordinator` owns one
:class:`~repro.store.campaign.CampaignIndex` and hands its pending
units out as expiring leases.  It is transport-free — a plain
thread-safe object the HTTP server (:mod:`repro.fabric.server`) and the
in-process tests drive directly — and deliberately stateless beyond the
ledger plus the live lease table:

- **pending** = in campaign order, not completed, not actively leased,
  and under the attempt budget;
- a lease is ``(token, unit key, worker, deadline)``; every heartbeat
  pushes the deadline out, and expiry is evaluated *lazily* on each
  protocol call (no reaper thread — deterministic under an injected
  clock);
- ``complete`` is idempotent and last-writer-loses: the first result
  for a key is recorded in the ledger, a late duplicate (from a worker
  whose lease was stolen mid-run) is acknowledged but changes nothing,
  so the ledger holds exactly one result per unit no matter how many
  workers raced on it;
- a unit whose attempts run out is recorded as failed and leaves the
  queue; ``sweep resume`` retries it later exactly as the local
  backend would.

Every transition feeds the ``fabric.*`` metric namespace: lease grants
and steals, heartbeats, completions (with a lease-hold-time histogram),
duplicates, failures, and expiries — the ``/fabric/status`` endpoint
and the CI smoke job read these back through the standard exposition
path.
"""

import threading
import time
import uuid

from repro import obs
from repro.fabric.protocol import DEFAULT_LEASE_SECONDS, \
    DEFAULT_MAX_ATTEMPTS, LEASE_HOLD_BUCKETS_MS
from repro.http import HTTPError
from repro.store.campaign import check_unit_result


class _Lease:
    """One live claim on one unit."""

    __slots__ = ("token", "key", "worker", "deadline", "granted_at")

    def __init__(self, token, key, worker, deadline, granted_at):
        self.token = token
        self.key = key
        self.worker = worker
        self.deadline = deadline
        self.granted_at = granted_at


class FabricCoordinator:
    """Thread-safe lease scheduling over one campaign ledger.

    Args:
        index: the campaign's :class:`CampaignIndex` (already created).
        store_spec: the *resolved* store-backend spec every lease hands
            to its worker (``None`` for no caching).
        lease_seconds: heartbeat deadline for each lease.
        max_attempts: lease grants per unit before it is declared
            failed.
        clock: monotonic seconds source (tests inject a fake).
    """

    def __init__(self, index, store_spec=None,
                 lease_seconds=DEFAULT_LEASE_SECONDS,
                 max_attempts=DEFAULT_MAX_ATTEMPTS,
                 clock=time.monotonic):
        self.index = index
        self.store_spec = store_spec
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = max(1, int(max_attempts))
        self.clock = clock
        self._lock = threading.Lock()
        #: live leases by token.
        self._leases = {}
        #: every token ever granted -> unit key (for late duplicates).
        self._token_keys = {}
        #: lease grants per unit key (the attempt budget).
        self._attempts = {}
        self._started_at = clock()

    # -- lease bookkeeping (call with the lock held) --------------------------

    def _expire_stale(self, now):
        for token in [token for token, lease in self._leases.items()
                      if lease.deadline <= now]:
            lease = self._leases.pop(token)
            obs.incr("fabric.lease_expired", key=lease.worker)

    def _leased_keys(self):
        return {lease.key for lease in self._leases.values()}

    def _pending_units(self):
        completed = self.index.completed
        leased = self._leased_keys()
        return [unit for unit in self.index.units
                if unit["key"] not in completed
                and unit["key"] not in leased
                and self._attempts.get(unit["key"], 0)
                < self.max_attempts]

    # -- the protocol ---------------------------------------------------------

    def lease(self, worker):
        """Claim the next pending unit for ``worker``.

        Returns the lease payload, or ``{"unit": None, "done": bool}``
        when nothing is currently claimable (``done`` distinguishes "the
        campaign is finished" from "everything is leased out — poll
        again").
        """
        worker = str(worker or "anonymous")
        now = self.clock()
        with self._lock:
            self._expire_stale(now)
            pending = self._pending_units()
            if not pending:
                return {"unit": None, "done": self._done_locked()}
            unit = pending[0]
            token = uuid.uuid4().hex
            self._leases[token] = _Lease(
                token, unit["key"], worker,
                now + self.lease_seconds, now)
            self._token_keys[token] = unit["key"]
            self._attempts[unit["key"]] = \
                self._attempts.get(unit["key"], 0) + 1
            attempt = self._attempts[unit["key"]]
        obs.incr("fabric.leases", key=worker)
        if attempt > 1:
            obs.incr("fabric.steals")
        return {"lease": token, "unit": dict(unit),
                "store": self.store_spec,
                "lease_seconds": self.lease_seconds,
                "attempt": attempt}

    def heartbeat(self, token):
        """Extend a live lease; 410 when it already expired."""
        now = self.clock()
        with self._lock:
            self._expire_stale(now)
            lease = self._leases.get(token)
            if lease is None:
                if token not in self._token_keys:
                    raise HTTPError(404, f"unknown lease {token!r}")
                raise HTTPError(
                    410, "lease expired; the unit was returned to the "
                         "queue")
            lease.deadline = now + self.lease_seconds
        obs.incr("fabric.heartbeats")
        return {"ok": True, "lease_seconds": self.lease_seconds}

    def complete(self, token, result):
        """Record one finished unit; idempotent across stolen leases."""
        try:
            check_unit_result(result)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from None
        now = self.clock()
        with self._lock:
            self._expire_stale(now)
            key = self._token_keys.get(token)
            if key is None:
                raise HTTPError(404, f"unknown lease {token!r}")
            if result["key"] != key:
                raise HTTPError(
                    400, f"lease {token!r} covers unit {key}, not "
                         f"{result['key']}")
            lease = self._leases.pop(token, None)
            if key in self.index.completed:
                obs.incr("fabric.duplicates")
                return {"ok": True, "duplicate": True}
            # A result from an expired lease is still correct work —
            # content-addressed digests make it interchangeable with
            # whatever a stealing worker would produce — so accept it.
            self.index.complete(key, result)
        obs.incr("fabric.completed")
        if lease is not None:
            self._observe_hold(now - lease.granted_at)
        return {"ok": True, "duplicate": False}

    def fail(self, token, error):
        """Record one failed attempt; the unit stays re-leasable."""
        now = self.clock()
        with self._lock:
            self._expire_stale(now)
            key = self._token_keys.get(token)
            if key is None:
                raise HTTPError(404, f"unknown lease {token!r}")
            self._leases.pop(token, None)
            if key not in self.index.completed:
                self.index.fail(key, error)
        obs.incr("fabric.failures")
        return {"ok": True, "attempts": self._attempts.get(key, 0),
                "exhausted": self._attempts.get(key, 0)
                >= self.max_attempts}

    # -- progress -------------------------------------------------------------

    def _done_locked(self):
        completed = self.index.completed
        leased = self._leased_keys()
        for unit in self.index.units:
            key = unit["key"]
            if key in completed:
                continue
            if key in leased:
                return False
            if self._attempts.get(key, 0) < self.max_attempts:
                return False
        return True

    def done(self):
        """Whether no unit can make further progress here."""
        with self._lock:
            self._expire_stale(self.clock())
            return self._done_locked()

    def status(self):
        """The ``/fabric/status`` payload: queue + lease + ledger state."""
        now = self.clock()
        with self._lock:
            self._expire_stale(now)
            units = self.index.units
            completed = self.index.completed
            leases = [{
                "worker": lease.worker,
                "unit": lease.key,
                "expires_in": round(lease.deadline - now, 3),
            } for lease in self._leases.values()]
            exhausted = [key for key, count in self._attempts.items()
                         if count >= self.max_attempts
                         and key not in completed]
            status = {
                "campaign_id": self.index.campaign_id,
                "stage": self.index.stage,
                "units": len(units),
                "completed": len(completed),
                "failed": len(self.index.failed),
                "pending": len(self._pending_units()),
                "leased": sorted(leases, key=lambda l: l["unit"]),
                "exhausted": sorted(exhausted),
                "done": self._done_locked(),
                "lease_seconds": self.lease_seconds,
                "max_attempts": self.max_attempts,
                "uptime_seconds": round(now - self._started_at, 3),
                "store": self.store_spec,
            }
        obs.gauge("fabric.pending", status["pending"])
        obs.gauge("fabric.leased", len(status["leased"]))
        return status

    def _observe_hold(self, seconds):
        registry = obs.active_registry()
        if registry is not None:
            registry.histogram("fabric.lease_hold_ms",
                               LEASE_HOLD_BUCKETS_MS).observe(
                                   seconds * 1000.0)
