"""``repro.fabric`` — the distributed campaign fabric.

Shards a sweep campaign across worker processes (or machines) without
relaxing anything the campaign ledger already guarantees: exactly-once
results per unit, resumability from any interruption, and per-config
digests byte-identical to the serial path.

The pieces:

- :class:`~repro.fabric.coordinator.FabricCoordinator` — turns a
  campaign ledger's pending units into expiring leases
  (lease/heartbeat/complete/fail); a worker that dies simply stops
  heartbeating and its unit is re-leased to someone else — work
  stealing for free;
- :func:`~repro.fabric.server.make_fabric_server` — the stdlib HTTP
  face of one coordinator, plus the remote artifact store's blob
  endpoints and a Prometheus-scrapable ``/metrics``;
- :class:`~repro.fabric.worker.FabricWorker` /
  :func:`~repro.fabric.worker.worker_main` — the claim/run/upload
  loop, running the exact per-unit payload the inline path runs;
- the remote store client itself lives in :mod:`repro.store.remote`.

CLI: ``repro fabric serve|worker|status`` for explicit multi-machine
operation, or ``repro sweep run --workers N`` (N > 1) to run the whole
topology (coordinator + N worker processes) on one host.
"""

from repro.fabric.coordinator import FabricCoordinator
from repro.fabric.protocol import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS
from repro.fabric.server import FabricService, make_fabric_server
from repro.fabric.worker import FabricWorker, worker_main

__all__ = ["DEFAULT_LEASE_SECONDS", "DEFAULT_MAX_ATTEMPTS",
           "FabricCoordinator", "FabricService", "FabricWorker",
           "make_fabric_server", "worker_main"]
