"""Parallel probe engine.

The paper's certificate dataset comes from probing 1,151 SNIs once from
each of three vantage points (Section 5.1).  A real scanner of that
shape is latency-bound — every probe spends most of its wall-clock
waiting on the network round-trip — so production scanners fan probes
across a worker pool.  :class:`ProbeEngine` reproduces that architecture
over the simulated Internet:

- **Concurrency**: ``(sni, vantage)`` jobs fan out across a thread pool
  (``jobs`` workers).  Each worker thread owns its own
  :class:`~repro.probing.prober.Prober` (and therefore its own
  ``TLSClient``); no handshake state is shared.  Results are merged back
  in the *serial* job order, so the resulting
  :class:`~repro.probing.certdataset.CertificateDataset` is byte-identical
  to what the serial prober produces for the same seed, regardless of
  worker interleaving.
- **Latency**: the in-process network answers in microseconds, which
  hides the property the pool exists to exploit.  :class:`LatencyModel`
  assigns each ``(fqdn, vantage)`` a deterministic RTT; the engine
  *actually sleeps* ``rtt * time_scale`` per probe (``time_scale=0``
  disables sleeping for tests).  Benchmarks run with a non-zero scale and
  observe the genuine serial-vs-parallel wall-clock gap of an RTT-bound
  scanner.
- **Telemetry**: each ``probe_all`` hands its dataset a
  :class:`~repro.probing.certdataset.ProbeStatsSnapshot` of that run's
  own counts (outcomes, simulated-latency buckets, per-vantage
  reachability, wall time), surfaced by ``python -m repro probe
  --stats``.  The counts are taken from the merged results after the
  pool has finished, so they never depend on worker interleaving; the
  active :class:`~repro.obs.metrics.MetricsRegistry` receives the same
  totals under ``probe.*``, and the run is one ``probe.all`` span.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.inspector.stacks import stable_rng
from repro.inspector.timeline import PROBE_TIME
from repro.probing.certdataset import CertificateDataset, ProbeStatsSnapshot
from repro.probing.prober import Prober
from repro.probing.vantage import VANTAGE_POINTS


# --- latency model -------------------------------------------------------------------

#: Median RTT (network seconds) from each vantage region to the probed
#: hosts; Singapore sits farthest from the (mostly US-hosted) endpoints.
_BASE_RTT = {"us": 0.040, "eu": 0.070, "asia": 0.110}


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic per-``(fqdn, region)`` round-trip times."""

    seed: int = 0
    #: multiplicative spread around the regional base RTT.
    spread: tuple = (0.5, 2.5)

    def rtt(self, fqdn, region):
        rng = stable_rng(self.seed, "rtt", fqdn, region)
        return _BASE_RTT.get(region, 0.080) * rng.uniform(*self.spread)


# --- telemetry -----------------------------------------------------------------------

#: (upper bound in network seconds, label) — cumulative-style buckets.
_LATENCY_BUCKETS = ((0.010, "<10ms"), (0.050, "<50ms"), (0.100, "<100ms"),
                    (0.250, "<250ms"), (float("inf"), ">=250ms"))


def _outcome(result):
    if not result.reachable:
        return "unreachable"
    return "ok" if result.error is None else "tls_error"


def _record(registry, results, rtts):
    """Count one run's probes into ``registry``'s ``probe.*`` instruments."""
    registry.counter("probe.probes").inc(len(results))
    outcomes = registry.family("probe.outcomes")
    reachable = registry.family("probe.reachable_by_vantage")
    unreachable = registry.family("probe.unreachable_by_vantage")
    latency = registry.histogram("probe.latency", _LATENCY_BUCKETS)
    for result, rtt in zip(results, rtts):
        outcomes.inc(_outcome(result))
        (reachable if result.reachable else unreachable).inc(result.vantage)
        latency.observe(rtt)


def _snapshot(results, rtts, wall_seconds):
    """One run's telemetry as a :class:`ProbeStatsSnapshot`."""
    registry = obs.MetricsRegistry()
    _record(registry, results, rtts)
    counts = registry.snapshot()
    families = counts["families"]
    return ProbeStatsSnapshot({
        "probes": len(results),
        "outcomes": families["probe.outcomes"],
        "latency_buckets": counts["histograms"]["probe.latency"],
        "reachable_by_vantage": families["probe.reachable_by_vantage"],
        "unreachable_by_vantage": families["probe.unreachable_by_vantage"],
        "wall_seconds": round(wall_seconds, 3),
    })


# --- the engine ----------------------------------------------------------------------


class ProbeEngine:
    """Fans ``(sni, vantage)`` probes across a worker pool.

    Determinism contract: for a given network, ``probe_all`` returns a
    dataset byte-identical to the serial
    :meth:`~repro.probing.prober.Prober.probe_all` — same result order
    (vantage-major, SNI order preserved), same certificate bytes.  Worker
    count only changes wall-clock, never output.
    """

    def __init__(self, network, jobs=1, latency=None, time_scale=0.0):
        self.network = network
        self.jobs = max(1, int(jobs))
        self.latency = latency
        self.time_scale = time_scale
        self._local = threading.local()

    def _prober(self):
        """This worker thread's private prober (own TLS client)."""
        prober = getattr(self._local, "prober", None)
        if prober is None:
            prober = Prober(self.network)
            self._local.prober = prober
        return prober

    def _run_probe(self, fqdn, vantage, at):
        """One probe job; returns ``(result, simulated rtt)``."""
        rtt = (self.latency.rtt(fqdn, vantage.region)
               if self.latency is not None else 0.0)
        result = self._prober().probe_one(fqdn, vantage, at=at)
        if self.time_scale > 0.0 and rtt > 0.0:
            time.sleep(rtt * self.time_scale)
        return result, rtt

    def probe_all(self, snis, at=PROBE_TIME):
        """Probe every SNI from every vantage; parallel, deterministic.

        Returns a :class:`CertificateDataset` whose ``stats`` attribute
        is the :class:`ProbeStatsSnapshot` of this run alone.
        """
        jobs = [(vantage, fqdn) for vantage in VANTAGE_POINTS
                for fqdn in snis]
        watch = obs.Stopwatch()
        with obs.span("probe.all") as span:
            span.incr("probes", len(jobs)).incr("workers", self.jobs)
            if self.jobs == 1:
                outcomes = [self._run_probe(fqdn, vantage, at)
                            for vantage, fqdn in jobs]
            else:
                with ThreadPoolExecutor(
                        max_workers=self.jobs,
                        thread_name_prefix="probe") as pool:
                    futures = [pool.submit(self._run_probe, fqdn, vantage,
                                           at)
                               for vantage, fqdn in jobs]
                    outcomes = [future.result() for future in futures]
        wall_seconds = watch.stop()
        results = [result for result, _rtt in outcomes]
        rtts = [rtt for _result, rtt in outcomes]
        registry = obs.active_registry()
        if registry is not None:
            _record(registry, results, rtts)
        return CertificateDataset(
            results, probed_at=at,
            stats=_snapshot(results, rtts, wall_seconds))
