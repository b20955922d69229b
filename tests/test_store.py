"""Tests for the artifact store, the analysis loop, and caching CLI.

Covers the ``repro.store`` contract: content-addressed round trips,
corruption/partial-write recovery, version-mismatch invalidation,
in-order execution of the analysis registries, ``--no-cache`` bypass,
and the probe → report CLI round trip reusing the certificate artifact.
"""

import json
from dataclasses import replace
from functools import lru_cache

import pytest

from repro import obs
from repro.config import StudyConfig
from repro.core import pipeline
from repro.core.report import render_report
from repro.obs.manifest import RunManifest, manifest_path_for
from repro.store import MISS, ArtifactStore
from repro.study import Study, get_study


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture
def config():
    return StudyConfig()


class TestArtifactStore:
    def test_round_trip(self, store, config):
        value = {"rows": [1, 2, 3], "label": "survey"}
        assert store.get(config, "survey") is MISS
        path = store.put(config, "survey", value)
        assert path is not None and path.is_file()
        assert store.get(config, "survey") == value
        assert store.hit_stages == ["survey"]
        assert store.miss_stages == ["survey"]

    def test_key_separates_stages_and_configs(self, store, config):
        other = replace(config, seed=7)
        assert store.key(config, "a") != store.key(config, "b")
        assert store.key(config, "a") != store.key(other, "a")

    def test_artifact_digest_tracks_semantics(self, config):
        assert config.artifact_digest() != \
            replace(config, seed=7).artifact_digest()
        assert config.artifact_digest() != StudyConfig(
            trust_stores=("mozilla",)).artifact_digest()

    def test_trust_store_permutations_digest_equal(self, config):
        permuted = StudyConfig(
            trust_stores=("apple", "mozilla", "microsoft"))
        assert permuted == config
        assert permuted.artifact_digest() == config.artifact_digest()

    def test_corrupt_payload_is_a_miss_and_deleted(self, store, config):
        path = store.put(config, "stage", [1, 2, 3])
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload bit
        path.write_bytes(bytes(blob))
        assert store.get(config, "stage") is MISS
        assert not path.exists()

    def test_truncated_entry_is_a_miss(self, store, config):
        path = store.put(config, "stage", list(range(100)))
        path.write_bytes(path.read_bytes()[:40])
        assert store.get(config, "stage") is MISS
        assert not path.exists()

    def test_partial_write_never_lands_under_live_key(self, store,
                                                      config):
        path = store.put(config, "stage", "value")
        # A torn writer leaves only a temp file; the entry stays intact.
        stray = path.parent / ".tmp-torn"
        stray.write_bytes(b"garbage")
        assert store.get(config, "stage") == "value"
        assert store.clear() >= 1
        assert not stray.exists()

    def test_version_mismatch_invalidates(self, tmp_path, config):
        old = ArtifactStore(tmp_path / "cache", version="0.9.0")
        new = ArtifactStore(tmp_path / "cache", version="1.0.0")
        old.put(config, "stage", "old-bytes")
        assert new.get(config, "stage") is MISS
        # The stale entry is still visible to maintenance commands.
        stats = new.stats()
        assert stats["entries"] == 1
        assert stats["by_version"] == {"0.9.0": 1}

    def test_unpicklable_value_is_skipped(self, store, config):
        assert store.put(config, "stage", lambda: None) is None
        assert store.error_stages == ["stage"]
        assert store.get(config, "stage") is MISS

    def test_stats_and_clear(self, store, config):
        store.put(config, "capture", b"x" * 10)
        store.put(config, "certificates", b"y" * 10)
        stats = store.stats()
        assert stats["entries"] == 2
        assert set(stats["by_stage"]) == {"capture", "certificates"}
        assert stats["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0

    def test_get_or_compute(self, store, config):
        calls = []
        value = store.get_or_compute(config, "stage",
                                     lambda: calls.append(1) or "v")
        assert value == "v" and calls == [1]
        value = store.get_or_compute(config, "stage",
                                     lambda: calls.append(2) or "v")
        assert value == "v" and calls == [1]

    def test_provenance_shape(self, store, config):
        store.get(config, "a")
        store.put(config, "a", 1)
        store.get(config, "a")
        provenance = store.provenance()
        assert provenance["hits"] == ["a"]
        assert provenance["misses"] == ["a"]
        assert provenance["writes"] == ["a"]
        assert provenance["dir"] == str(store.root)


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A store one cold, traced full study on a fresh ``Study`` filled;
    returns the store, the results and the run's tracer."""
    store = ArtifactStore(tmp_path_factory.mktemp("pipeline") / "cache")
    with obs.enabled() as ctx:
        cold = pipeline.run_full_study(Study(StudyConfig(), store=store))
    return store, cold, ctx.tracer


class TestAnalysisLoop:
    NODES = (
        pipeline.AnalysisNode("base", lambda s, r: s.seed + 1),
        pipeline.AnalysisNode("double", lambda s, r: r["base"] * 2),
        pipeline.AnalysisNode("pair", lambda s, r: (r["base"], r["double"]),
                              provides=("lo", "hi")),
        pipeline.AnalysisNode("tail", lambda s, r: r["hi"] + 5),
    )

    def test_registry_runs_in_declaration_order(self, monkeypatch):
        monkeypatch.setattr(pipeline, "CLIENT_ANALYSES", self.NODES)
        observed = []
        results = pipeline.run_client_side(
            Study(StudyConfig(seed=10)),
            node_observer=lambda stage, packed: observed.append(stage))
        assert list(results) == ["base", "double", "lo", "hi", "tail"]
        assert results == {"base": 11, "double": 22, "lo": 11, "hi": 22,
                           "tail": 27}
        assert observed == ["analysis.client.base",
                            "analysis.client.double",
                            "analysis.client.pair", "analysis.client.tail"]

    def test_spans_keep_their_names_and_counters(self, filled_store):
        _store, cold, tracer = filled_store
        for stage in pipeline.analysis_stage_names():
            expected = 0 if stage == "analysis.server.survey" else 1
            assert len(tracer.find(stage)) == expected, stage
        [chain] = tracer.find("validate.chain")
        assert chain.counters == {
            "chains": len(cold["server"]["survey"].reports)}
        for side in ("client", "server"):
            [side_span] = tracer.find(f"analysis.{side}")
            assert side_span.counters == {"analyses": len(cold[side])}

    def test_warm_run_builds_no_study_artifact(self, filled_store):
        store, cold, _tracer = filled_store
        warm_study = Study(StudyConfig(), store=store)
        observed = []
        warm = pipeline.run_full_study(
            warm_study,
            node_observer=lambda stage, packed: observed.append(stage))
        assert observed == list(pipeline.analysis_stage_names())
        for name in ("_world", "_network", "_dataset", "_corpus",
                     "_certificates"):
            assert getattr(warm_study, name) is None, name
        assert render_report(warm, seed=2023, generated_at=0) == \
            render_report(cold, seed=2023, generated_at=0)

    def test_registries_have_unique_names_and_keys(self):
        for nodes in (pipeline.CLIENT_ANALYSES, pipeline.SERVER_ANALYSES):
            names = [node.name for node in nodes]
            keys = [key for node in nodes for key in node.provides]
            assert len(set(names)) == len(names)
            assert len(set(keys)) == len(keys)

    def test_node_error_propagates(self, monkeypatch):
        def boom(_study, _results):
            raise RuntimeError("node failed")
        monkeypatch.setattr(pipeline, "CLIENT_ANALYSES",
                            (pipeline.AnalysisNode("a", boom),))
        with pytest.raises(RuntimeError, match="node failed"):
            pipeline.run_client_side(Study(StudyConfig()))


class TestPipelineDeterminism:
    # One full-study reference per session; cached runs must render
    # byte-identically to it.

    @pytest.fixture(scope="class")
    def reference(self, study):
        results = pipeline.run_full_study(study)
        return results, render_report(results, seed=study.seed,
                                      generated_at=0)

    def test_cold_then_warm_cache_match_serial(self, filled_store,
                                               study, reference):
        _results, reference_text = reference
        store, cold, _tracer = filled_store
        assert render_report(cold, seed=study.seed,
                             generated_at=0) == reference_text
        assert store.written_stages  # cold run populated the cache
        warm = pipeline.run_full_study(Study(StudyConfig(), store=store))
        assert render_report(warm, seed=study.seed,
                             generated_at=0) == reference_text
        assert len(store.hit_stages) >= len(pipeline.CLIENT_ANALYSES)

    def test_registry_covers_serial_result_keys(self, reference):
        results, _text = reference
        client_keys = [key for node in pipeline.CLIENT_ANALYSES
                       for key in node.provides]
        server_keys = [key for node in pipeline.SERVER_ANALYSES
                       for key in node.provides]
        assert list(results["client"]) == client_keys
        assert list(results["server"]) == server_keys


class TestStoreBackedStudy:
    def test_certificates_round_trip_between_studies(self, tmp_path,
                                                     study,
                                                     certificates):
        store = ArtifactStore(tmp_path / "cache")
        store.put(study.config, "certificates", certificates)
        fresh = Study(StudyConfig(), store=store)
        cached = fresh.certificates
        assert cached.fingerprint() == certificates.fingerprint()
        assert store.hit_stages == ["certificates"]
        # The frozen stats snapshot answers the same queries.
        assert cached.stats.to_json() == certificates.stats.to_json()
        assert cached.stats.summary() == certificates.stats.summary()

    def test_dataset_round_trip(self, tmp_path, study, dataset):
        store = ArtifactStore(tmp_path / "cache")
        store.put(study.config, "capture", dataset)
        fresh = Study(StudyConfig(), store=store)
        assert len(fresh.dataset.records) == len(dataset.records)
        assert fresh.dataset.records[0] == dataset.records[0]

    def test_corpus_stored_once_for_every_config(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        first = Study(StudyConfig(), store=store).corpus
        second = Study(StudyConfig(seed=7, trust_stores=("mozilla",)),
                       store=store).corpus
        assert len(second) == len(first)
        assert store.stats()["by_stage"]["corpus"] == 1
        assert store.miss_stages == ["corpus"]
        assert store.hit_stages == ["corpus"]


@pytest.fixture
def fresh_cli_study(monkeypatch):
    """Simulate a new process: each call swaps in an empty per-config
    Study memo.  The shared memo is restored after the test, so later
    ``get_study()`` calls still return the session ``study``."""
    from repro import study as study_module
    build = study_module._study_for_config.__wrapped__

    def fresh():
        monkeypatch.setattr(study_module, "_study_for_config",
                            lru_cache(maxsize=8)(build))
    return fresh


class TestCachingCLI:
    def test_probe_then_report_reuses_certificates(self, tmp_path,
                                                   study, capsys,
                                                   fresh_cli_study):
        from repro.cli import main
        cache = tmp_path / "cache"
        probe_out = tmp_path / "certs.jsonl"
        report_out = tmp_path / "report.md"
        fresh_cli_study()
        assert main(["probe", "-o", str(probe_out),
                     "--cache-dir", str(cache)]) == 0
        probe_manifest = RunManifest.load(
            manifest_path_for(str(probe_out)))
        assert "certificates" in probe_manifest.cache["writes"]
        fresh_cli_study()
        assert main(["report", "-o", str(report_out),
                     "--cache-dir", str(cache)]) == 0
        manifest = RunManifest.load(manifest_path_for(str(report_out)))
        assert "certificates" in manifest.cache["hits"]
        assert len(manifest.cache["hits"]) > 0
        hits = manifest.metrics["families"]["store.hits"]
        assert sum(hits.values()) > 0
        assert report_out.read_text().startswith("# IoT TLS")

    def test_warm_report_identical_and_all_hits(self, tmp_path, study,
                                                capsys,
                                                fresh_cli_study):
        from repro.cli import main
        cache = tmp_path / "cache"
        out_cold = tmp_path / "cold.md"
        out_warm = tmp_path / "warm.md"
        fresh_cli_study()
        assert main(["report", "-o", str(out_cold),
                     "--cache-dir", str(cache)]) == 0
        fresh_cli_study()
        assert main(["report", "-o", str(out_warm),
                     "--cache-dir", str(cache)]) == 0
        assert out_cold.read_bytes() == out_warm.read_bytes()
        manifest = RunManifest.load(manifest_path_for(str(out_warm)))
        # Every analysis stage was served from the cache.
        analysis_hits = [stage for stage in manifest.cache["hits"]
                         if stage.startswith("analysis.")]
        assert len(analysis_hits) == len(pipeline.CLIENT_ANALYSES) + \
            len(pipeline.SERVER_ANALYSES)
        assert manifest.cache["misses"] == []

    def test_no_cache_bypasses_store(self, tmp_path, study, capsys,
                                     monkeypatch):
        from repro.cli import main
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        out = tmp_path / "report.md"
        assert main(["report", "-o", str(out), "--no-cache"]) == 0
        assert not cache.exists()
        manifest = RunManifest.load(manifest_path_for(str(out)))
        assert manifest.cache == {}

    def test_cache_stats_and_clear_commands(self, tmp_path, study,
                                            capsys):
        from repro.cli import main
        cache = tmp_path / "cache"
        store = ArtifactStore(cache)
        store.put(StudyConfig(), "capture", {"rows": [1]})
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        text = capsys.readouterr().out
        assert "1 entries" in text and "capture" in text
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_without_dir_is_an_error(self, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2

    def test_cache_clear_without_dir_is_an_error(self, capsys,
                                                 monkeypatch):
        from repro.cli import main
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "clear"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_cache_stats_on_missing_dir(self, tmp_path, capsys):
        from repro.cli import main
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--cache-dir",
                     str(missing)]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert not missing.exists()  # stats must not create the dir

    def test_cache_stats_on_empty_dir(self, tmp_path, capsys):
        from repro.cli import main
        empty = tmp_path / "cache"
        empty.mkdir()
        assert main(["cache", "stats", "--cache-dir", str(empty)]) == 0
        text = capsys.readouterr().out
        assert "0 entries" in text and "0.0 MB" in text

    def test_cache_clear_on_missing_dir(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["cache", "clear", "--cache-dir",
                     str(tmp_path / "never-created")]) == 0
        assert "removed 0 entries" in capsys.readouterr().out

    def test_cache_clear_removes_corrupted_entries(self, tmp_path,
                                                   capsys):
        from repro.cli import main
        cache = tmp_path / "cache"
        store = ArtifactStore(cache)
        store.put(StudyConfig(), "capture", {"rows": [1]})
        shard = cache / "zz"
        shard.mkdir()
        (shard / "deadbeef.art").write_bytes(b"\x00garbage, no magic")
        (shard / "torn.art").write_bytes(b"repro-artifact/1\n{trunc")
        (shard / ".tmp-123").write_bytes(b"crashed writer leftovers")
        # stats counts only readable entries; clear removes everything.
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert list(cache.glob("*/*.art")) == []
        assert list(cache.glob("*/.tmp-*")) == []
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_config_first_flags_on_every_study_command(self):
        from repro.cli import build_parser
        parser = build_parser()
        for command in ("generate", "probe", "report", "audit",
                        "figures", "whatif"):
            argv = [command]
            if command == "audit":
                argv.append("Tuya")
            if command == "whatif":
                argv.append("all")
            args = parser.parse_args(argv)
            assert args.seed == 2023
            assert args.trust_stores == "mozilla,apple,microsoft"
            assert args.cache_dir is None and args.no_cache is False

    def test_config_from_args_builds_full_config(self):
        from repro.cli import build_parser, config_from_args
        args = build_parser().parse_args(
            ["report", "--seed", "7", "--trust-stores", "apple,mozilla"])
        config = config_from_args(args)
        assert config == StudyConfig(seed=7,
                                     trust_stores=("apple", "mozilla"))

    def test_invalid_config_exits_2(self, capsys):
        from repro.cli import main
        assert main(["report", "--trust-stores", "netscape",
                     "-o", "-"]) == 2
        assert "netscape" in capsys.readouterr().err


class TestTrustStoreNormalization:
    def test_permuted_major_stores_use_union_store(self, study):
        permuted = get_study(StudyConfig(
            trust_stores=("apple", "mozilla", "microsoft")))
        # Equal configs memoize together (order is normalized away).
        assert permuted is get_study(StudyConfig())
        assert permuted.trust_store is study.ecosystem.union_store

    def test_fresh_study_takes_fast_branch(self, study):
        fresh = Study(StudyConfig(
            trust_stores=("microsoft", "mozilla", "apple")))
        fresh._network = study.network
        fresh._world = study.world
        assert fresh.trust_store is study.ecosystem.union_store


class TestManifestCacheField:
    def test_manifest_round_trips_cache(self, tmp_path):
        manifest = RunManifest(
            command="report", seed=7, config_digest="abc",
            version="1.0.0", started_at=0.0, finished_at=1.0,
            cache={"dir": "/c", "hits": ["capture"], "misses": [],
                   "writes": [], "errors": [], "version": "1.0.0"})
        path = tmp_path / "m.json"
        manifest.write(str(path))
        loaded = RunManifest.load(str(path))
        assert loaded.cache["hits"] == ["capture"]

    def test_legacy_manifest_without_cache_loads(self, tmp_path):
        payload = RunManifest(
            command="probe", seed=1, config_digest="d",
            version="1.0.0", started_at=0.0, finished_at=1.0).to_json()
        payload.pop("cache")
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))
        assert RunManifest.load(str(path)).cache == {}
