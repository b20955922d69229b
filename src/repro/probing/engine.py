"""Resilient parallel probe engine.

The paper's certificate dataset comes from probing 1,151 SNIs from three
vantage points (Section 5.1).  A real scanner of that shape is latency-
bound — every probe spends most of its wall-clock waiting on the network
round-trip — so production scanners fan probes across a worker pool and
retry transient failures with backoff.  :class:`ProbeEngine` reproduces
that architecture over the simulated Internet:

- **Concurrency**: ``(sni, vantage)`` jobs fan out across a thread pool
  (``jobs`` workers).  Each worker thread owns its own
  :class:`~repro.probing.prober.Prober` (and therefore its own
  ``TLSClient``); no handshake state is shared.  Results are merged back
  in the *serial* job order, so the resulting
  :class:`~repro.probing.certdataset.CertificateDataset` is byte-identical
  to what the serial prober produces for the same seed, regardless of
  worker interleaving.
- **Retries**: a frozen :class:`RetryPolicy` bounds attempts per probe
  and spaces them with exponential backoff whose jitter is drawn from a
  :func:`~repro.inspector.stacks.stable_rng` keyed on
  ``(seed, fqdn, vantage, attempt)`` — deterministic and independent of
  scheduling order.
- **Fault injection**: :class:`FaultInjector` wraps the network and
  injects seeded transient failures, connection resets, and slow
  responses, so the retry path is testable end-to-end.  Injected faults
  clear after a bounded number of attempts (transient means transient),
  which is what lets a sufficient retry budget recover the fault-free
  reachability exactly.
- **Latency**: the in-process network answers in microseconds, which
  hides the property the pool exists to exploit.  :class:`LatencyModel`
  assigns each ``(fqdn, vantage)`` a deterministic RTT; the engine
  *actually sleeps* ``rtt * time_scale`` per attempt (``time_scale=0``
  disables sleeping for tests).  Benchmarks run with a non-zero scale and
  observe the genuine serial-vs-parallel wall-clock gap of an RTT-bound
  scanner.
- **Telemetry**: a :class:`ProbeStats` aggregate (attempts, retries,
  error taxonomy, latency buckets, per-vantage reachability) rides on the
  returned dataset and surfaces through ``python -m repro probe --stats``.
  Since the ``repro.obs`` refactor it is a view over a
  :class:`~repro.obs.metrics.MetricsRegistry` (joining the shared
  registry when observability is active), ``probe_all`` runs inside a
  ``probe.all`` tracing span, and ``wall_seconds`` derives from a
  stopwatch started with that span — so partial/failed runs still report
  elapsed time.
"""

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.inspector.stacks import stable_rng
from repro.inspector.timeline import PROBE_TIME
from repro.probing.certdataset import CertificateDataset, render_probe_stats
from repro.probing.prober import ProbeResult, Prober
from repro.probing.vantage import VANTAGE_POINTS


# --- retry policy --------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How a probe retries: attempt budget, backoff, per-attempt timeout.

    All durations are *network seconds* — the simulated clock the
    :class:`LatencyModel` and :class:`FaultInjector` speak.  The engine
    converts them to real sleeps via its ``time_scale``.
    """

    max_attempts: int = 3
    #: delay before the second attempt (doubles each retry).
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    #: fraction of the delay added as deterministic jitter.
    jitter: float = 0.5
    #: attempts whose response takes longer than this are abandoned.
    attempt_timeout: float = 5.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_delay(self, attempt, rng):
        """Delay after a failed ``attempt`` (1-based), with jitter."""
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return delay * (1.0 + self.jitter * rng.random())


# --- fault taxonomy ------------------------------------------------------------------


class InjectedFault(ConnectionError):
    """A retryable failure injected below the TLS layer.

    Deliberately *not* an :class:`~repro.probing.network.UnreachableError`
    subclass: the prober records unreachable hosts as final results, while
    injected faults propagate to the engine's retry loop.
    """

    category = "fault"


class TransientFailure(InjectedFault):
    """The connection attempt failed but the host is alive."""

    category = "transient"


class InjectedReset(InjectedFault):
    """The peer reset the connection mid-handshake."""

    category = "reset"


class SlowResponse(InjectedFault):
    """The response arrived, but slower than any sane timeout."""

    category = "timeout"

    def __init__(self, message, latency):
        super().__init__(message)
        self.latency = latency


class FaultInjector:
    """Seeded failure-injecting wrapper around a network.

    Presents the same ``connect`` interface as
    :class:`~repro.probing.network.SimulatedNetwork` and can therefore be
    handed to a :class:`~repro.probing.prober.Prober` or
    :class:`ProbeEngine` in the network's place.

    Each endpoint gets a deterministic *fault plan* — how many of its
    initial connection attempts fail, and how — drawn from
    ``stable_rng(seed, fqdn, region)``.  The plan is independent of call
    order (safe under any worker interleaving) and bounded by
    ``max_faulty_attempts``, so any retry budget strictly larger than the
    bound recovers every endpoint.  Set ``max_faulty_attempts`` at or
    above the budget (with ``transient_rate=1.0``) to exercise budget
    exhaustion instead.
    """

    def __init__(self, network, seed=None, transient_rate=0.0,
                 reset_rate=0.0, slow_rate=0.0, max_faulty_attempts=2,
                 slow_latency=30.0):
        self.network = network
        self.seed = getattr(network, "seed", 0) if seed is None else seed
        self.transient_rate = transient_rate
        self.reset_rate = reset_rate
        self.slow_rate = slow_rate
        self.max_faulty_attempts = max_faulty_attempts
        self.slow_latency = slow_latency
        self.injected = Counter()
        self._attempts = Counter()
        self._lock = threading.Lock()

    #: attributes probers/engines read off the wrapped network.
    @property
    def endpoints(self):
        return self.network.endpoints

    def reset(self):
        """Forget attempt history (start the next run from a clean slate)."""
        with self._lock:
            self._attempts.clear()
            self.injected.clear()

    def fault_plan(self, fqdn, region):
        """The ordered fault kinds this endpoint's first attempts hit."""
        rng = stable_rng(self.seed, "fault-plan", fqdn, region)
        plan = []
        while len(plan) < self.max_faulty_attempts:
            roll = rng.random()
            if roll < self.transient_rate:
                plan.append("transient")
            elif roll < self.transient_rate + self.reset_rate:
                plan.append("reset")
            elif roll < (self.transient_rate + self.reset_rate
                         + self.slow_rate):
                plan.append("slow")
            else:
                break
        return tuple(plan)

    def connect(self, fqdn, client_hello_bytes, region="us", at=PROBE_TIME):
        with self._lock:
            self._attempts[(fqdn, region)] += 1
            attempt = self._attempts[(fqdn, region)]
        plan = self.fault_plan(fqdn, region)
        if attempt <= len(plan):
            kind = plan[attempt - 1]
            with self._lock:
                self.injected[kind] += 1
            if kind == "transient":
                raise TransientFailure(
                    f"{fqdn}: transient failure (attempt {attempt})")
            if kind == "reset":
                raise InjectedReset(
                    f"{fqdn}: connection reset (attempt {attempt})")
            latency = self.slow_latency * stable_rng(
                self.seed, "slow", fqdn, region, attempt).uniform(1.0, 3.0)
            raise SlowResponse(
                f"{fqdn}: response after {latency:.1f}s (attempt "
                f"{attempt})", latency=latency)
        return self.network.connect(fqdn, client_hello_bytes,
                                    region=region, at=at)


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


class ProbeStats:
    """Aggregate telemetry of one ``probe_all`` run.

    Since the ``repro.obs`` refactor this is a thin *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry` (all instruments under
    the ``probe.`` prefix), so probe telemetry shows up in the shared
    metric snapshot, the run manifest, and ``repro trace-summary``
    exactly like every other stage's.  The PR-1 public surface —
    ``probes``/``attempts``/``retries``/``exhausted`` ints, ``outcomes``
    /``faults``/``latency_buckets``/``*_by_vantage`` Counters,
    ``record_attempt``/``record_result``/``to_json``/``summary`` — is
    unchanged.  Thread safety now lives in the instruments themselves.

    With no registry supplied it keeps a private one (unit tests, ad-hoc
    engines); the engine passes :func:`repro.obs.active_registry` so a
    live CLI run reports into the shared registry.
    """

    def __init__(self, registry=None):
        if registry is None:
            registry = obs.MetricsRegistry()
        self.registry = registry
        self._probes = registry.counter("probe.probes")
        self._attempts = registry.counter("probe.attempts")
        self._retries = registry.counter("probe.retries")
        self._exhausted = registry.counter("probe.exhausted")
        #: final-outcome taxonomy: ok / unreachable / tls_error /
        #: exhausted_<fault-category>.
        self._outcomes = registry.family("probe.outcomes")
        #: retryable faults encountered along the way, by category.
        self._faults = registry.family("probe.faults")
        #: simulated per-attempt RTT histogram.
        self._latency = registry.histogram("probe.latency",
                                           _LATENCY_BUCKETS)
        self._reachable = registry.family("probe.reachable_by_vantage")
        self._unreachable = registry.family(
            "probe.unreachable_by_vantage")
        self._clock = None
        self._wall_override = None

    # -- the PR-1 read surface, as registry views --

    @property
    def probes(self):
        return self._probes.value

    @property
    def attempts(self):
        return self._attempts.value

    @property
    def retries(self):
        return self._retries.value

    @property
    def exhausted(self):
        return self._exhausted.value

    @property
    def outcomes(self):
        return self._outcomes.as_counter()

    @property
    def faults(self):
        return self._faults.as_counter()

    @property
    def latency_buckets(self):
        return self._latency.counts

    @property
    def reachable_by_vantage(self):
        return self._reachable.as_counter()

    @property
    def unreachable_by_vantage(self):
        return self._unreachable.as_counter()

    def attach_clock(self, clock):
        """Derive ``wall_seconds`` from a running span/stopwatch.

        Anything with a ``duration`` attribute works; the engine passes
        the :class:`~repro.obs.tracer.Stopwatch` it starts alongside its
        ``probe.all`` span, so elapsed time is reported live — including
        for runs that die halfway (the old code only assigned
        ``wall_seconds`` at the end of a successful ``probe_all``).
        """
        self._clock = clock

    @property
    def wall_seconds(self):
        if self._wall_override is not None:
            return self._wall_override
        if self._clock is not None:
            return self._clock.duration
        return 0.0

    @wall_seconds.setter
    def wall_seconds(self, value):
        self._wall_override = value

    def record_attempt(self, rtt, fault=None):
        self._attempts.inc()
        self._latency.observe(rtt)
        if fault is not None:
            self._retries.inc()
            self._faults.inc(fault.category)

    def record_result(self, result, exhausted_category=None):
        self._probes.inc()
        if exhausted_category is not None:
            self._exhausted.inc()
            self._outcomes.inc(f"exhausted_{exhausted_category}")
        elif not result.reachable:
            self._outcomes.inc("unreachable")
        elif result.error is not None:
            self._outcomes.inc("tls_error")
        else:
            self._outcomes.inc("ok")
        if result.reachable:
            self._reachable.inc(result.vantage)
        else:
            self._unreachable.inc(result.vantage)

    def to_json(self):
        """The stats as one JSON-ready dict (schema lives here)."""
        return {
            "probes": self.probes,
            "attempts": self.attempts,
            "retries": self.retries,
            "exhausted": self.exhausted,
            "outcomes": dict(sorted(self.outcomes.items())),
            "faults": dict(sorted(self.faults.items())),
            "latency_buckets": dict(sorted(self.latency_buckets.items())),
            "reachable_by_vantage":
                dict(sorted(self.reachable_by_vantage.items())),
            "unreachable_by_vantage":
                dict(sorted(self.unreachable_by_vantage.items())),
            "wall_seconds": round(self.wall_seconds, 3),
        }

    def summary(self):
        """A compact human-readable rendering (CLI ``--stats``)."""
        return render_probe_stats(self.to_json())


# --- the engine ----------------------------------------------------------------------


class ProbeEngine:
    """Fans ``(sni, vantage)`` probes across a worker pool, with retries.

    Determinism contract: for a given network and seed, ``probe_all``
    returns a dataset byte-identical to the serial
    :meth:`~repro.probing.prober.Prober.probe_all` — same result order
    (vantage-major, SNI order preserved), same certificate bytes.  Worker
    count only changes wall-clock, never output.
    """

    def __init__(self, network, vantages=VANTAGE_POINTS, jobs=1,
                 retry=None, latency=None, time_scale=0.0, seed=None,
                 sleep=time.sleep):
        self.network = network
        self.vantages = tuple(vantages)
        self.jobs = max(1, int(jobs))
        self.retry = retry if retry is not None else RetryPolicy()
        self.latency = latency
        self.time_scale = time_scale
        self.seed = getattr(network, "seed", 0) if seed is None else seed
        self._sleep = sleep
        self._local = threading.local()

    def _prober(self):
        """This worker thread's private prober (own TLS client)."""
        prober = getattr(self._local, "prober", None)
        if prober is None:
            prober = Prober(self.network, self.vantages)
            self._local.prober = prober
        return prober

    def _wait(self, network_seconds):
        if self.time_scale > 0.0 and network_seconds > 0.0:
            self._sleep(network_seconds * self.time_scale)

    def _run_probe(self, fqdn, vantage, at, stats):
        """One probe job: attempt/retry until success or budget out."""
        policy = self.retry
        last_category = "transient"
        for attempt in range(1, policy.max_attempts + 1):
            rtt = (self.latency.rtt(fqdn, vantage.region)
                   if self.latency is not None else 0.0)
            fault, result = None, None
            try:
                result = self._prober().probe_one(fqdn, vantage, at=at)
            except SlowResponse as exc:
                fault, rtt = exc, min(exc.latency, policy.attempt_timeout)
            except InjectedFault as exc:
                fault = exc
            if fault is None and rtt > policy.attempt_timeout:
                # The answer exists but arrived after we hung up.
                fault = SlowResponse(f"{fqdn}: timed out", latency=rtt)
                rtt, result = policy.attempt_timeout, None
            self._wait(rtt)
            stats.record_attempt(rtt, fault)
            if fault is None:
                stats.record_result(result)
                return result
            last_category = fault.category
            if attempt < policy.max_attempts:
                jitter_rng = stable_rng(self.seed, "backoff", fqdn,
                                        vantage.name, attempt)
                self._wait(policy.backoff_delay(attempt, jitter_rng))
        result = ProbeResult(
            fqdn=fqdn, vantage=vantage.name, reachable=False,
            error=f"retry budget exhausted after {policy.max_attempts} "
                  f"attempts (last error: {last_category})")
        stats.record_result(result, exhausted_category=last_category)
        return result

    def probe_one(self, fqdn, vantage, at=PROBE_TIME, stats=None):
        """Probe one SNI from one vantage, with the full retry loop."""
        return self._run_probe(fqdn, vantage, at, stats or ProbeStats())

    def probe_all(self, snis, at=PROBE_TIME):
        """Probe every SNI from every vantage; parallel, deterministic.

        Returns a :class:`CertificateDataset` whose ``stats`` attribute
        carries the run's :class:`ProbeStats`.
        """
        jobs = [(vantage, fqdn) for vantage in self.vantages
                for fqdn in snis]
        results = [None] * len(jobs)
        stats = ProbeStats(registry=obs.active_registry())
        watch = obs.Stopwatch()
        stats.attach_clock(watch)
        with obs.span("probe.all") as span:
            span.incr("probes", len(jobs)).incr("workers", self.jobs)
            try:
                if self.jobs == 1:
                    for index, (vantage, fqdn) in enumerate(jobs):
                        results[index] = self._run_probe(fqdn, vantage,
                                                         at, stats)
                else:
                    with ThreadPoolExecutor(
                            max_workers=self.jobs,
                            thread_name_prefix="probe") as pool:
                        futures = {
                            pool.submit(self._run_probe, fqdn, vantage,
                                        at, stats): index
                            for index, (vantage, fqdn) in enumerate(jobs)}
                        for future in futures:
                            results[futures[future]] = future.result()
            finally:
                watch.stop()
        return CertificateDataset(results, probed_at=at, stats=stats)
