"""Regression tests for the sweep's process boundary.

A multi-worker sweep runs each unit in a spawned fabric worker process,
and study stages pass between processes as pickled artifact-store
entries; the one Study stage payload that is *not* plain JSON is the
certificate dataset, whose live :class:`~repro.probing.engine.ProbeStats`
is a view over lock-holding metric instruments.
``CertificateDataset.__getstate__`` freezes it into a
:class:`ProbeStatsSnapshot` — these tests guard that path with real
``pickle`` round trips and an actual spawned subprocess (the same start
method the ``SweepRunner`` cluster's worker processes use).
"""

import multiprocessing
import pickle

from repro.probing.certdataset import (CertificateDataset,
                                       ProbeStatsSnapshot)
from repro.probing.engine import ProbeStats


def describe_certificates(dataset):
    """Runs inside the spawned worker; top-level so spawn can import it."""
    return {
        "fingerprint": dataset.fingerprint(),
        "stats_type": type(dataset.stats).__name__,
        "stats": dataset.stats.to_json(),
        "reachable": len(dataset.reachable_fqdns()),
        "leaves": len(dataset.leaf_certificates()),
        "dataset": dataset,  # pickled back: the worker→parent direction
    }


def describe_capture(dataset):
    return {"records": len(dataset.records),
            "vendors": dataset.vendor_names(),
            "dataset": dataset}


class TestPickleFreeze:
    def test_live_stats_freeze_to_snapshot(self, certificates):
        # the session study probed with a live, lock-holding ProbeStats
        assert certificates.stats is not None
        assert not isinstance(certificates.stats, ProbeStatsSnapshot)
        clone = pickle.loads(pickle.dumps(certificates))
        assert isinstance(clone.stats, ProbeStatsSnapshot)
        assert clone.stats.to_json() == certificates.stats.to_json()
        assert clone.stats.probes == certificates.stats.probes
        assert clone.fingerprint() == certificates.fingerprint()
        assert clone.reachable_fqdns() == certificates.reachable_fqdns()
        # pickling must not mutate the original in place
        assert not isinstance(certificates.stats, ProbeStatsSnapshot)

    def test_snapshot_survives_repickling(self, certificates):
        once = pickle.loads(pickle.dumps(certificates))
        twice = pickle.loads(pickle.dumps(once))
        assert isinstance(twice.stats, ProbeStatsSnapshot)
        assert twice.stats.to_json() == once.stats.to_json()
        assert twice.fingerprint() == once.fingerprint()

    def test_snapshot_renders_like_live_stats(self, certificates):
        snapshot = ProbeStatsSnapshot(certificates.stats.to_json())
        assert snapshot.summary() == certificates.stats.summary()
        assert snapshot.outcomes == certificates.stats.outcomes
        assert snapshot.reachable_by_vantage == \
            certificates.stats.reachable_by_vantage

    def test_wall_time_rounds_once(self):
        # 1.0551 renders 1.06 from the live value but 1.05 from the
        # 3-decimal dict; both sides must render from the dict.
        live = ProbeStats()
        live.wall_seconds = 1.0551
        snapshot = ProbeStatsSnapshot(live.to_json())
        assert snapshot.summary() == live.summary()
        assert "wall 1.05s" in live.summary().splitlines()[0]

    def test_statless_dataset_round_trips(self, certificates):
        bare = CertificateDataset(certificates.results,
                                  probed_at=certificates.probed_at)
        clone = pickle.loads(pickle.dumps(bare))
        assert clone.stats is None
        assert clone.fingerprint() == bare.fingerprint()
        assert clone.vantages() == bare.vantages()


class TestSpawnBoundary:
    """Round trips through a real subprocess, spawn start method."""

    def test_certificates_cross_the_spawn_boundary(self, certificates):
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            seen = pool.apply(describe_certificates, (certificates,))
        assert seen["fingerprint"] == certificates.fingerprint()
        assert seen["stats_type"] == "ProbeStatsSnapshot"
        assert seen["stats"] == certificates.stats.to_json()
        assert seen["reachable"] == len(certificates.reachable_fqdns())
        assert seen["leaves"] == len(certificates.leaf_certificates())
        echoed = seen["dataset"]
        assert isinstance(echoed.stats, ProbeStatsSnapshot)
        assert echoed.fingerprint() == certificates.fingerprint()

    def test_capture_crosses_the_spawn_boundary(self, dataset):
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            seen = pool.apply(describe_capture, (dataset,))
        assert seen["records"] == len(dataset.records)
        assert seen["vendors"] == dataset.vendor_names()
        assert len(seen["dataset"].records) == len(dataset.records)
