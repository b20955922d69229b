"""The fabric wire protocol: constants and metric buckets.

The coordinator and its workers speak a four-verb JSON protocol over
HTTP (all POST, all ``application/json``):

- ``/fabric/lease`` — ``{"worker": id}`` → one unit lease
  (``{"lease": token, "unit": spec, "store": resolved spec,
  "lease_seconds": s}``), ``{"unit": null, "done": bool}`` when the
  queue is empty;
- ``/fabric/heartbeat`` — ``{"lease": token}`` extends a live lease;
  HTTP 410 means the lease already expired (the unit went back to the
  queue — stop working on it);
- ``/fabric/complete`` — ``{"lease": token, "result": payload}``
  records a finished unit in the campaign ledger;
- ``/fabric/fail`` — ``{"lease": token, "error": str}`` records a
  failure (the unit stays re-leasable until its attempts run out).

Plus two GETs: ``/fabric/ping`` (liveness, also the remote store's
reachability probe) and ``/fabric/status`` (queue/lease/ledger
telemetry).  The blob store rides on the same server under ``/blob/``
(:mod:`repro.store.remote`).

Lease expiry is the whole fault model: a worker that dies, hangs, or
partitions simply stops heartbeating, its lease lapses, and the next
``lease`` call hands the unit to someone else — work stealing for free,
with the ledger's exactly-once bookkeeping (first ``complete`` wins,
late duplicates acknowledged but not re-recorded) keeping digests
identical to the serial path.
"""

#: how long a lease lives without a heartbeat.
DEFAULT_LEASE_SECONDS = 30.0

#: how many times a unit may be leased before it is declared failed.
DEFAULT_MAX_ATTEMPTS = 3

#: lease-hold-time histogram buckets (milliseconds; a unit holds its
#: lease for the full study run, so the scale is seconds-to-minutes).
LEASE_HOLD_BUCKETS_MS = (
    (50.0, "50"), (250.0, "250"), (1000.0, "1000"), (5000.0, "5000"),
    (15000.0, "15000"), (30000.0, "30000"), (60000.0, "60000"),
    (120000.0, "120000"), (300000.0, "300000"), (float("inf"), "+Inf"),
)


__all__ = ["DEFAULT_LEASE_SECONDS", "DEFAULT_MAX_ATTEMPTS",
           "LEASE_HOLD_BUCKETS_MS"]
