"""Tests for the parallel probe engine and StudyConfig."""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.config import StudyConfig
from repro.inspector.timeline import PROBE_TIME
from repro.probing.engine import LatencyModel, ProbeEngine
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
            dataset.stats.probes
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
        assert set(payload) == {
            "probes", "outcomes", "latency_buckets", "reachable_by_vantage",
            "unreachable_by_vantage", "wall_seconds"}
        json.dumps(payload)

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
            StudyConfig(trust_stores=("mozilla", "netscape"))
        with pytest.raises(ValueError):
            StudyConfig(trust_stores=())

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

    def test_trust_store_selection(self, study):
        mozilla_only = get_study(
            StudyConfig(trust_stores=("mozilla",)))
        store = mozilla_only.validator().store
        assert store is mozilla_only.ecosystem.stores["mozilla"] or \
            len(store) <= len(study.ecosystem.union_store)
        assert study.validator().store is study.ecosystem.union_store

    def test_artifact_digest_pinned_to_the_golden_baseline(self):
        # Store keys, sweep unit keys and the baseline's config identity
        # all hash this digest; the retired retry and vantage values are
        # still part of its payload, at their only setting.
        baseline = Path(__file__).resolve().parents[1] / \
            "conformance" / "baseline.json"
        recorded = json.loads(baseline.read_text())["artifact_digest"]
        digest = StudyConfig(seed=2023).artifact_digest()
        assert digest == recorded == (
            "9568698491ac701d081a97d4851e4e108d8a14be5894b6d8483a3bfdb18269d2")
