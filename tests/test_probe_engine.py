"""Tests for the parallel probe engine, retry path, and StudyConfig."""

import random
from collections import Counter

import pytest

from repro.config import StudyConfig
from repro.inspector.timeline import PROBE_TIME
from repro.probing.engine import (
    FaultInjector,
    InjectedReset,
    LatencyModel,
    ProbeEngine,
    ProbeStats,
    RetryPolicy,
    SlowResponse,
    TransientFailure,
)
from repro.probing.prober import Prober
from repro.probing.vantage import VANTAGE_POINTS
from repro.study import get_study
from repro.tlslib.ciphersuites import codes_by_names
from repro.tlslib.handshake import ServerConfig, TLSServer
from repro.tlslib.versions import TLSVersion
from repro.x509.certificate import Certificate

#: Enough SNIs to cover reachable, unreachable, shared, and geo-variant
#: endpoints without probing the full matrix in every test.
SUBSET = 180


@pytest.fixture(scope="module")
def snis(study):
    return [spec.fqdn for spec in study.world.servers][:SUBSET]


@pytest.fixture(scope="module")
def serial_subset(network, snis):
    return Prober(network).probe_all(snis)


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff_delay(a, rng) for a in (1, 2, 3)]
        assert delays == [0.1, 0.2, 0.4]

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.5)
        a = policy.backoff_delay(1, random.Random(42))
        b = policy.backoff_delay(1, random.Random(42))
        assert a == b
        assert 1.0 <= a <= 1.5

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_frozen_and_hashable(self):
        policy = RetryPolicy()
        with pytest.raises(AttributeError):
            policy.max_attempts = 5
        assert hash(policy) == hash(RetryPolicy())


class TestFaultInjector:
    def test_plan_deterministic_and_bounded(self, network):
        a = FaultInjector(network, transient_rate=0.5)
        b = FaultInjector(network, transient_rate=0.5)
        fqdns = list(network.endpoints)[:50]
        plans = [a.fault_plan(f, "us") for f in fqdns]
        assert plans == [b.fault_plan(f, "us") for f in fqdns]
        assert any(plans), "expected some endpoints to draw faults"
        assert max(len(p) for p in plans) <= a.max_faulty_attempts

    def test_faults_clear_after_plan(self, study, network):
        spec = study.world.reachable_servers()[0]
        injector = FaultInjector(network, transient_rate=1.0,
                                 max_faulty_attempts=2)
        prober = Prober(injector)
        for _ in range(2):
            with pytest.raises(TransientFailure):
                prober.probe_one(spec.fqdn, VANTAGE_POINTS[0])
        result = prober.probe_one(spec.fqdn, VANTAGE_POINTS[0])
        assert result.reachable and result.leaf is not None

    def test_fault_kinds(self, network):
        injector = FaultInjector(network, reset_rate=1.0)
        assert injector.fault_plan("x.example", "us")[0] == "reset"
        slow = FaultInjector(network, slow_rate=1.0)
        assert slow.fault_plan("x.example", "us")[0] == "slow"

    def test_reset_clears_history(self, study, network):
        spec = study.world.reachable_servers()[0]
        injector = FaultInjector(network, transient_rate=1.0,
                                 max_faulty_attempts=1)
        prober = Prober(injector)
        with pytest.raises(TransientFailure):
            prober.probe_one(spec.fqdn, VANTAGE_POINTS[0])
        assert prober.probe_one(spec.fqdn, VANTAGE_POINTS[0]).reachable
        injector.reset()
        with pytest.raises(TransientFailure):
            prober.probe_one(spec.fqdn, VANTAGE_POINTS[0])


class TestEngineDeterminism:
    def test_parallel_equals_serial_seed_2023(self, network, snis,
                                              serial_subset):
        parallel = ProbeEngine(network, jobs=4).probe_all(snis)
        assert parallel.fingerprint() == serial_subset.fingerprint()
        assert [r.fqdn for r in parallel.results] == \
            [r.fqdn for r in serial_subset.results]
        assert [r.vantage for r in parallel.results] == \
            [r.vantage for r in serial_subset.results]

    def test_parallel_equals_serial_seed_7(self):
        study7 = get_study(StudyConfig(seed=7))
        snis7 = [spec.fqdn for spec in study7.world.servers][:SUBSET]
        serial = Prober(study7.network).probe_all(snis7)
        parallel = ProbeEngine(study7.network, jobs=4).probe_all(snis7)
        assert parallel.fingerprint() == serial.fingerprint()

    def test_full_matrix_parallel_equals_serial(self, network,
                                                certificates, study):
        # The session dataset was probed through the engine (study
        # config); compare against the serial reference prober.
        snis = [spec.fqdn for spec in study.world.servers]
        serial = Prober(network).probe_all(snis)
        assert serial.fingerprint() == certificates.fingerprint()

    def test_worker_count_does_not_change_output(self, network, snis):
        prints = {ProbeEngine(network, jobs=j).probe_all(snis).fingerprint()
                  for j in (1, 2, 8)}
        assert len(prints) == 1


class TestRetryPath:
    def test_transient_failures_recover_within_budget(self, network, snis,
                                                      serial_subset):
        injector = FaultInjector(network, transient_rate=0.2)
        engine = ProbeEngine(injector, jobs=4,
                             retry=RetryPolicy(max_attempts=3),
                             seed=network.seed)
        dataset = engine.probe_all(snis)
        assert dataset.fingerprint() == serial_subset.fingerprint()
        assert dataset.reachable_fqdns() == \
            serial_subset.reachable_fqdns()
        assert dataset.stats.retries > 0
        assert dataset.stats.exhausted == 0
        assert dataset.stats.faults["transient"] == dataset.stats.retries

    def test_exhausted_budget_yields_classified_error(self, network,
                                                      snis):
        injector = FaultInjector(network, transient_rate=1.0,
                                 max_faulty_attempts=5)
        engine = ProbeEngine(injector, jobs=2,
                             retry=RetryPolicy(max_attempts=3),
                             seed=network.seed)
        dataset = engine.probe_all(snis[:10])
        for result in dataset.results:
            assert not result.reachable
            assert "retry budget exhausted" in result.error
            assert "transient" in result.error
        stats = dataset.stats
        assert stats.exhausted == len(dataset)
        assert stats.outcomes["exhausted_transient"] == len(dataset)
        assert stats.attempts == 3 * len(dataset)

    def test_slow_responses_count_as_timeouts(self, network, snis):
        injector = FaultInjector(network, slow_rate=1.0,
                                 max_faulty_attempts=1)
        engine = ProbeEngine(injector, jobs=2, seed=network.seed)
        dataset = engine.probe_all(snis[:10])
        # one slow attempt per probe: 10 SNIs x 3 vantages.
        assert dataset.stats.faults["timeout"] == len(dataset) == 30
        assert dataset.stats.exhausted == 0

    def test_mixed_fault_modes_classified(self, network, snis):
        injector = FaultInjector(network, transient_rate=0.2,
                                 reset_rate=0.2, slow_rate=0.2)
        engine = ProbeEngine(injector, jobs=4, seed=network.seed)
        dataset = engine.probe_all(snis)
        categories = set(dataset.stats.faults)
        assert categories <= {"transient", "reset", "timeout"}
        assert len(categories) >= 2


#: A SEQUENCE whose declared length runs past the end of its bytes.
BAD_DER = bytes.fromhex("30030201")


class _BadCertificateNetwork:
    """The real network, except that one host serves ``BAD_DER``."""

    def __init__(self, network, bad_fqdn):
        self.network = network
        self.bad_fqdn = bad_fqdn
        self.seed = network.seed

    def connect(self, fqdn, client_hello_bytes, region="us", at=PROBE_TIME):
        if fqdn != self.bad_fqdn:
            return self.network.connect(fqdn, client_hello_bytes,
                                        region=region, at=at)
        server = TLSServer(ServerConfig(
            supported_versions=frozenset({TLSVersion.TLS_1_2}),
            supported_suites=tuple(codes_by_names(
                ["TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"])),
            chain_provider=lambda _sni: [BAD_DER]))
        return server.handle(client_hello_bytes)


@pytest.fixture
def count_decodes(monkeypatch):
    """Count ``Certificate.from_der`` calls by DER blob."""
    calls = Counter()
    decode = Certificate.from_der.__func__

    def counting(cls, data):
        calls[bytes(data)] += 1
        return decode(cls, data)

    monkeypatch.setattr(Certificate, "from_der", classmethod(counting))
    return calls


class TestCertificateDecode:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_bad_certificate_is_recorded_not_raised(self, study, network,
                                                    snis, jobs):
        bad = study.world.reachable_servers()[0].fqdn
        probed = [bad] + [fqdn for fqdn in snis[:40] if fqdn != bad]
        engine = ProbeEngine(_BadCertificateNetwork(network, bad),
                             jobs=jobs)
        dataset = engine.probe_all(probed)
        assert len(dataset.results) == len(VANTAGE_POINTS) * len(probed)
        for result in dataset.results:
            if result.fqdn == bad:
                assert result.reachable and not result.chain
                assert result.error == ("bad certificate: content extends "
                                        "past end of input")
        healthy = ProbeEngine(network, jobs=jobs).probe_all(probed)
        assert [r.signature_bytes() for r in dataset.results
                if r.fqdn != bad] == \
            [r.signature_bytes() for r in healthy.results if r.fqdn != bad]
        assert dataset.stats.outcomes["tls_error"] == \
            healthy.stats.outcomes["tls_error"] + len(VANTAGE_POINTS)

    def test_failed_decode_is_not_memoized(self, study, network,
                                           count_decodes):
        bad = study.world.reachable_servers()[0].fqdn
        prober = Prober(_BadCertificateNetwork(network, bad))
        for _ in range(2):
            assert prober.probe_one(bad, VANTAGE_POINTS[0]).error
        assert count_decodes[BAD_DER] == 2

    def test_each_distinct_der_decoded_once(self, study, network,
                                            count_decodes, monkeypatch):
        snis = [spec.fqdn for spec in study.world.servers]
        memoized = ProbeEngine(network, jobs=1).probe_all(snis)
        distinct = {certificate.to_der() for result in memoized.results
                    for certificate in result.chain}
        assert set(count_decodes) == distinct
        assert set(count_decodes.values()) == {1}
        assert sum(len(r.chain) for r in memoized.results) > len(distinct)

        monkeypatch.setattr(Prober, "_certificate",
                            lambda _self, der: Certificate.from_der(der))
        fresh = ProbeEngine(network, jobs=1).probe_all(snis)
        assert fresh.fingerprint() == memoized.fingerprint()
        assert [r.chain for r in fresh.results] == \
            [r.chain for r in memoized.results]


class TestLatencyModel:
    def test_rtt_deterministic_and_regional(self):
        model = LatencyModel(seed=3)
        assert model.rtt("a.example", "us") == model.rtt("a.example", "us")
        us = [model.rtt(f"h{i}.example", "us") for i in range(50)]
        asia = [model.rtt(f"h{i}.example", "asia") for i in range(50)]
        assert sum(asia) / len(asia) > sum(us) / len(us)

    def test_engine_buckets_latencies(self, network, snis):
        engine = ProbeEngine(network, jobs=2,
                             latency=LatencyModel(seed=network.seed))
        dataset = engine.probe_all(snis[:30])
        # time_scale=0: latencies are recorded but never slept.
        assert sum(dataset.stats.latency_buckets.values()) == \
            dataset.stats.attempts
        assert set(dataset.stats.latency_buckets) <= \
            {"<10ms", "<50ms", "<100ms", "<250ms", ">=250ms"}


class TestProbeStats:
    def test_attempt_accounting(self, network, snis, serial_subset):
        engine = ProbeEngine(network, jobs=4)
        stats = engine.probe_all(snis).stats
        assert stats.probes == len(snis) * 3
        assert stats.attempts == stats.probes + stats.retries
        assert sum(stats.reachable_by_vantage.values()) + \
            sum(stats.unreachable_by_vantage.values()) == stats.probes
        assert stats.outcomes["ok"] <= stats.probes
        assert stats.wall_seconds > 0

    def test_to_json_schema(self, network, snis):
        stats = ProbeEngine(network, jobs=2).probe_all(snis[:10]).stats
        payload = stats.to_json()
        assert {"probes", "attempts", "retries", "exhausted", "outcomes",
                "faults", "latency_buckets", "reachable_by_vantage",
                "unreachable_by_vantage", "wall_seconds"} <= set(payload)

    def test_summary_renders(self, network, snis):
        stats = ProbeEngine(network, jobs=2).probe_all(snis[:10]).stats
        text = stats.summary()
        assert "probes" in text and "outcomes" in text


class TestResultSerialization:
    def test_to_json_reachable_row(self, study, certificates):
        fqdn = study.world.reachable_servers()[0].fqdn
        row = certificates.result(fqdn).to_json(
            ct_logs=study.network.ct_logs)
        assert row["fqdn"] == fqdn
        assert row["reachable"] is True
        assert {"issuer", "validity_days", "not_after", "chain_length",
                "stapled", "in_ct"} <= set(row)

    def test_to_json_unreachable_row(self, study, certificates):
        dead = next(s for s in study.world.servers if s.unreachable)
        row = certificates.result(dead.fqdn).to_json()
        assert row["reachable"] is False
        assert row["error"]
        assert "issuer" not in row

    def test_dataset_rows_sorted_and_complete(self, study, certificates):
        rows = certificates.to_json_rows(ct_logs=study.network.ct_logs)
        assert len(rows) == len(study.world.servers)
        assert [r["fqdn"] for r in rows] == \
            sorted(r["fqdn"] for r in rows)


class TestStudyConfig:
    def test_frozen_hashable_defaults(self):
        config = StudyConfig()
        assert config == StudyConfig(seed=2023)
        assert hash(config) == hash(StudyConfig())
        with pytest.raises(AttributeError):
            config.seed = 7

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(probe_jobs=0)
        with pytest.raises(ValueError):
            StudyConfig(trust_stores=("mozilla", "netscape"))
        with pytest.raises(ValueError):
            StudyConfig(vantages=())

    def test_get_study_memoizes_per_config(self, study):
        assert get_study(StudyConfig()) is study
        # Bare seeds are not configs: both spellings are TypeErrors.
        with pytest.raises(TypeError):
            get_study(seed=2023)
        with pytest.raises(TypeError):
            get_study(2023)

    def test_config_and_seed_conflict(self):
        with pytest.raises(TypeError):
            get_study(StudyConfig(seed=1), seed=2)

    def test_probe_jobs_config_changes_only_wallclock(self, study,
                                                      certificates):
        parallel_study = get_study(StudyConfig(probe_jobs=4))
        assert parallel_study is not study
        assert parallel_study.world is study.world  # seed-shared
        assert parallel_study.certificates.fingerprint() == \
            certificates.fingerprint()

    def test_trust_store_selection(self, study):
        mozilla_only = get_study(
            StudyConfig(trust_stores=("mozilla",)))
        store = mozilla_only.validator().store
        assert store is mozilla_only.ecosystem.stores["mozilla"] or \
            len(store) <= len(study.ecosystem.union_store)
        assert study.validator().store is study.ecosystem.union_store

    def test_with_seed(self):
        derived = StudyConfig(probe_jobs=4).with_seed(7)
        assert derived.seed == 7
        assert derived.probe_jobs == 4
