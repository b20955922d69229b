"""Fault-injection tests for the remote artifact store (``repro.store.remote``).

The contract under test: **every defect degrades to a retriable miss,
never to a corrupt cache hit.**  A truncated blob, a flipped payload
byte, a version-skewed header, a server-side forgery, an HTTP 500
mid-upload, and a dead endpooint each count a taxonomy metric and make
the caller recompute; nothing defective is ever admitted to the
client-side LRU, whose eviction order is itself deterministic.
"""

import pickle
import socket
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.config import StudyConfig
from repro.fabric import FabricCoordinator, make_fabric_server
from repro.store import (MISS, ArtifactStore, BlobCache,
                         RemoteArtifactStore, StoreUnreachable)
from repro.store.artifact import encode_entry
from repro.store.backend import http_spec, local_spec, store_from_spec
from repro.store.campaign import CampaignIndex
from repro.sweep import expand_grid


@pytest.fixture
def config():
    return StudyConfig()


def _refuse():
    raise RuntimeError("this value cannot be rebuilt")


class _Unloadable:
    """Pickles fine, but unpickling it raises."""

    def __reduce__(self):
        return _refuse, ()


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _BlobServer:
    """A live fabric server wrapping one on-disk blob store."""

    def __init__(self, tmp_path):
        index = CampaignIndex.create(
            tmp_path / "campaign.json",
            [{"name": "u0", "key": "0" * 64, "seed": 0}], "probe")
        self.server, self.service = make_fabric_server(FabricCoordinator(
            index, store_spec={"backend": "http",
                               "dir": str(tmp_path / "blobs")}))
        self.store = self.service.blob_store
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def blob_server(tmp_path):
    live = _BlobServer(tmp_path)
    yield live
    live.close()


class TestRoundTrip:
    def test_put_get_across_clients_and_backends(self, blob_server,
                                                 config):
        writer = RemoteArtifactStore(blob_server.url)
        key = writer.put(config, "certificates", {"value": 42})
        assert key == writer.key(config, "certificates")

        # A fresh client (cold LRU) reads it back over the network.
        reader = RemoteArtifactStore(blob_server.url)
        assert reader.get(config, "certificates") == {"value": 42}
        assert reader.provenance()["hits"] == ["certificates"]

        # The same blob is a *local* store hit too: one wire format,
        # byte-identical keys — campaigns can switch backends freely.
        local = ArtifactStore(blob_server.store.root)
        assert local.get(config, "certificates") == {"value": 42}
        assert local.key(config, "certificates") == key

    def test_lru_survives_a_dead_server(self, blob_server, config):
        client = RemoteArtifactStore(blob_server.url)
        client.put(config, "certificates", "payload")
        blob_server.close()
        # Warm worker keeps working: the verified blob serves from LRU.
        assert client.get(config, "certificates") == "payload"
        assert client.provenance()["lru_entries"] == 1

    def test_get_or_compute_computes_once(self, blob_server, config):
        calls = []

        def compute():
            calls.append(1)
            return {"expensive": True}

        first = RemoteArtifactStore(blob_server.url)
        assert first.get_or_compute(config, "stage", compute) == \
            {"expensive": True}
        second = RemoteArtifactStore(blob_server.url)
        assert second.get_or_compute(config, "stage", compute) == \
            {"expensive": True}
        assert calls == [1]  # the second client hit the remote store

    def test_missing_blob_is_a_miss(self, blob_server, config):
        client = RemoteArtifactStore(blob_server.url)
        assert client.get(config, "never-written") is MISS
        assert client.provenance()["misses"] == ["never-written"]


class TestFaultInjection:
    """Every defect = a retriable miss; corrupt bytes never cached."""

    def _written(self, blob_server, config, stage="certificates"):
        client = RemoteArtifactStore(blob_server.url)
        key = client.put(config, stage, {"value": 42})
        return key, blob_server.store.blob_path(key)

    def test_truncated_blob_is_retriable_miss(self, blob_server,
                                              config):
        key, path = self._written(blob_server, config)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        with obs.enabled() as ctx:
            victim = RemoteArtifactStore(blob_server.url)
            assert victim.get(config, "certificates") is MISS
            counters = ctx.metrics.snapshot()["families"]
        assert counters["store.corrupt"] == {"certificates": 1}
        assert len(victim.cache) == 0  # defect never admitted
        # Retriable: once the blob heals, the same client hits.
        path.write_bytes(whole)
        assert victim.get(config, "certificates") == {"value": 42}

    def test_checksum_mismatch_is_miss_and_never_cached(
            self, blob_server, config):
        key, path = self._written(blob_server, config)
        whole = bytearray(path.read_bytes())
        whole[-1] ^= 0xFF  # flip one payload byte; header stays intact
        path.write_bytes(bytes(whole))
        victim = RemoteArtifactStore(blob_server.url)
        assert victim.get(config, "certificates") is MISS
        assert len(victim.cache) == 0
        assert victim.provenance()["misses"] == ["certificates"]

    def test_version_skew_is_a_miss(self, blob_server, config):
        old = RemoteArtifactStore(blob_server.url, version="1.0.0")
        old.put(config, "certificates", "old bytes")
        new = RemoteArtifactStore(blob_server.url, version="2.0.0")
        # Different version → different content key → clean 404 miss.
        assert new.get(config, "certificates") is MISS
        assert old.get(config, "certificates") == "old bytes"

    def test_server_side_forgery_is_rejected_by_header_check(
            self, blob_server, config):
        # An attacker (or a bad rsync) plants the old-version blob
        # under the new version's key, bypassing PUT validation.
        old = RemoteArtifactStore(blob_server.url, version="1.0.0")
        old_key = old.put(config, "certificates", "old bytes")
        new = RemoteArtifactStore(blob_server.url, version="2.0.0")
        forged_key = new.key(config, "certificates")
        forged_path = blob_server.store.blob_path(forged_key)
        forged_path.parent.mkdir(parents=True, exist_ok=True)
        forged_path.write_bytes(
            blob_server.store.blob_path(old_key).read_bytes())
        with obs.enabled() as ctx:
            assert new.get(config, "certificates") is MISS
            counters = ctx.metrics.snapshot()["families"]
        assert counters["store.corrupt"] == {"certificates": 1}
        assert len(new.cache) == 0

    def test_http_500_mid_upload_is_retriable(self, blob_server,
                                              config, monkeypatch):
        client = RemoteArtifactStore(blob_server.url)
        monkeypatch.setattr(blob_server.service, "handle",
                            lambda *a, **k: (500, {"error": "boom"}))
        with obs.enabled() as ctx:
            assert client.put(config, "certificates", "value") is None
            counters = ctx.metrics.snapshot()["families"]
        assert counters["store.remote_errors"] == {"put:500": 1}
        assert client.provenance()["errors"] == ["certificates"]
        # The failed upload was NOT admitted to the LRU: a later get
        # retries the network instead of serving bytes nobody else saw.
        assert len(client.cache) == 0
        monkeypatch.undo()
        assert client.put(config, "certificates", "value") is not None
        assert client.get(config, "certificates") == "value"

    def test_http_500_on_get_counts_taxonomy(self, blob_server,
                                             config, monkeypatch):
        client = RemoteArtifactStore(blob_server.url)
        monkeypatch.setattr(blob_server.service, "handle",
                            lambda *a, **k: (500, {"error": "boom"}))
        with obs.enabled() as ctx:
            assert client.get(config, "certificates") is MISS
            counters = ctx.metrics.snapshot()["families"]
        assert counters["store.remote_errors"] == {"get:500": 1}

    def test_unreachable_server_is_miss_and_ping_raises(self, config):
        url = f"http://127.0.0.1:{_free_port()}"
        client = RemoteArtifactStore(url, timeout=0.5)
        assert client.get(config, "certificates") is MISS
        assert client.put(config, "certificates", "value") is None
        with pytest.raises(StoreUnreachable) as err:
            client.ping()
        message = str(err.value)
        assert "\n" not in message  # the one-line CLI contract
        assert "unreachable" in message

    def test_unpicklable_value_is_counted_not_fatal(self, blob_server,
                                                    config):
        client = RemoteArtifactStore(blob_server.url)
        assert client.put(config, "stage", lambda: None) is None
        assert client.provenance()["errors"] == ["stage"]

    @pytest.mark.parametrize("defect", ["truncated", "bad-pickle"])
    def test_defective_download_never_evicts_a_held_entry(
            self, blob_server, config, defect):
        client = RemoteArtifactStore(blob_server.url, cache_entries=1)
        held = client.put(config, "held", "value")
        if defect == "truncated":
            _, path = self._written(blob_server, config)
            path.write_bytes(path.read_bytes()[:-1])
        else:
            # Checksum and header are sound, so the server accepts it;
            # only the payload fails to unpickle.
            blob = encode_entry(config.artifact_digest(), "certificates",
                                client.version, b"not a pickle")
            assert blob_server.store.write_raw(
                client.key(config, "certificates"), blob)
        assert client.get(config, "certificates") is MISS
        assert client.cache.keys() == [held]
        assert client.cache.evicted == []

    def test_lru_hits_count_only_blobs_that_decode(self, blob_server,
                                                   config):
        writer = RemoteArtifactStore(blob_server.url)
        writer.put(config, "good", "value")
        writer.put(config, "bad", _Unloadable())
        reader = RemoteArtifactStore(blob_server.url)
        with obs.enabled() as ctx:
            assert reader.get(config, "good") == "value"  # network
            assert reader.get(config, "good") == "value"  # LRU
            assert writer.get(config, "bad") is MISS  # LRU, undecodable
            counters = ctx.metrics.snapshot()["families"]
        assert counters["store.lru_hits"] == {"good": 1}
        assert counters["store.corrupt"] == {"bad": 1}
        assert len(writer.cache) == 1  # the bad blob was forgotten


class TestBlobCacheLRU:
    def test_eviction_order_is_deterministic(self):
        cache = BlobCache(capacity=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.keys() == ["a", "b"]  # LRU first
        assert cache.get("a") == b"1"  # refreshes a past b
        cache.put("c", b"3")  # evicts b, the least recently used
        assert cache.evicted == ["b"]
        assert cache.keys() == ["a", "c"]
        cache.put("d", b"4")
        assert cache.evicted == ["b", "a"]
        assert cache.get("b") is None

    def test_discard_and_len(self):
        cache = BlobCache(capacity=4)
        cache.put("a", b"1")
        assert len(cache) == 1
        cache.discard("a")
        assert len(cache) == 0 and cache.evicted == []

    def test_client_respects_capacity(self, blob_server, config):
        client = RemoteArtifactStore(blob_server.url, cache_entries=1)
        client.put(config, "stage-a", "a")
        client.put(config, "stage-b", "b")
        assert len(client.cache) == 1
        assert client.provenance()["lru_evicted"] == 1
        # The evicted entry is still correct — it just round-trips.
        assert client.get(config, "stage-a") == "a"


class TestStoreBackendSpecs:
    def test_spec_round_trips(self, tmp_path):
        spec = local_spec(tmp_path / "cache")
        store = store_from_spec(spec)
        assert isinstance(store, ArtifactStore)
        assert store_from_spec(None) is None
        remote = store_from_spec(http_spec(url="http://example:1"))
        assert isinstance(remote, RemoteArtifactStore)
        assert remote.base_url == "http://example:1"

    def test_unresolved_http_spec_is_an_error(self, tmp_path):
        spec = http_spec(cache_dir=tmp_path)  # no url: coordinator's job
        with pytest.raises(ValueError, match="coordinator"):
            store_from_spec(spec)
        with pytest.raises(ValueError):
            http_spec()
        with pytest.raises(ValueError, match="backend"):
            store_from_spec({"backend": "carrier-pigeon"})


class TestSweepResumeUnreachableStore:
    def test_resume_exits_2_with_one_line_error(self, tmp_path,
                                                capsys):
        # A ledger whose store backend died: resume must fail fast with
        # a one-line error, not a ConnectionError traceback.
        out = tmp_path / "campaign"
        out.mkdir()
        units = expand_grid(StudyConfig(), seeds=1, stage="probe")
        url = f"http://127.0.0.1:{_free_port()}"
        CampaignIndex.create(out / "campaign.json",
                             [unit.to_json() for unit in units],
                             "probe", store={"backend": "http",
                                             "url": url})
        assert main(["sweep", "resume", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep resume: ")
        assert err.count("\n") == 1  # exactly one line
        assert "Traceback" not in err
