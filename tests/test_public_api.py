"""The curated ``repro`` top-level surface and the shared JSON schema."""

import pytest

import repro
from repro.schema import (SCHEMA_KEY, SCHEMA_VERSION, strip_version,
                          versioned)

#: the complete supported public surface; additions are deliberate API
#: decisions (update this list *and* the README), removals are breaking.
PUBLIC_SURFACE = {
    "ArtifactStore",
    "CorpusIndex",
    "DEFAULT_SEED",
    "FingerprintVector",
    "Ingester",
    "MatchEngine",
    "SCHEMA_VERSION",
    "SimilarityIndex",
    "Study",
    "StudyConfig",
    "SweepRunner",
    "TimelineStream",
    "__version__",
    "expand_grid",
    "get_study",
    "run_full_study",
    "run_load",
    "serve_study",
}


class TestPublicSurface:
    def test_all_matches_contract(self):
        assert set(repro.__all__) == PUBLIC_SURFACE

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_top_level_import_runs_a_study(self):
        study = repro.get_study(repro.StudyConfig())
        assert study.seed == repro.DEFAULT_SEED
        assert len(study.dataset.records) > 0

    def test_bare_seed_get_study_raises_with_migration_hint(self):
        with pytest.raises(TypeError, match="takes a StudyConfig"):
            repro.get_study(7)
        with pytest.raises(TypeError):
            repro.get_study(seed=7)

    def test_bare_seed_study_raises_with_migration_hint(self):
        with pytest.raises(TypeError, match="takes a StudyConfig"):
            repro.Study(9)
        with pytest.raises(TypeError):
            repro.Study(seed=9)


class TestSchemaVersioning:
    def test_versioned_strip_round_trip(self):
        payload = versioned({"a": 1})
        assert payload[SCHEMA_KEY] == SCHEMA_VERSION
        assert strip_version(payload) == {"a": 1}

    def test_client_hello_record_round_trip(self, dataset):
        from repro.inspector.model import ClientHelloRecord
        record = dataset.records[0]
        row = record.to_json()
        assert row[SCHEMA_KEY] == SCHEMA_VERSION
        assert ClientHelloRecord.from_json(row) == record

    def test_probe_result_versioned(self, certificates):
        rows = certificates.to_json_rows()
        assert rows
        assert all(row[SCHEMA_KEY] == SCHEMA_VERSION for row in rows)

    def test_run_manifest_round_trip(self):
        from repro import obs
        from repro.obs.manifest import RunManifest
        ctx = obs.Observability()
        manifest = RunManifest.from_run(
            command="test", config=repro.StudyConfig(), obs_ctx=ctx,
            outputs=[], started_at=1.0, finished_at=2.0)
        payload = manifest.to_json()
        assert payload[SCHEMA_KEY] == SCHEMA_VERSION
        assert RunManifest.from_json(payload).to_json() == payload

    def test_sweep_report_versioned(self):
        from repro.sweep import SweepAggregator
        report = SweepAggregator([], campaign_id="c", stage="full",
                                 units_total=0).report()
        assert report.to_json()[SCHEMA_KEY] == SCHEMA_VERSION
