"""Tests for the multi-seed sweep engine (``repro.sweep``).

Covers the campaign contract end to end: grid expansion and unit
content keys, the atomic campaign ledger, resume-after-kill (a partial
ledger re-runs only incomplete configs), aggregator statistics on known
inputs, calibrated-band failures, and the core determinism guarantee —
a multi-worker campaign (the one-host fabric cluster) produces
per-config digests byte-identical to the serial reference path over the
same shared artifact store.
"""

import json

import pytest

from repro import obs
from repro import study as study_module
from repro.cli import main
from repro.config import MAJOR_STORES, StudyConfig
from repro.store import ArtifactStore, local_spec
from repro.store.campaign import (CAMPAIGN_FORMAT, CampaignIndex,
                                  campaign_id_for)
from repro.study import Study
from repro.sweep import (FAULT_ABLATION, SCALAR_BANDS, ScalarStats,
                         SweepAggregator, SweepRunner, SweepUnit,
                         campaign_units, expand_grid, parse_grid)
from repro.sweep.worker import run_unit


@pytest.fixture
def config():
    return StudyConfig()


class TestGrid:
    def test_parse_grid_implies_seeds(self):
        assert parse_grid("seeds") == ("seeds",)
        assert parse_grid("stores") == ("seeds", "stores")
        assert parse_grid("seeds, stores ,faults") == \
            ("seeds", "stores", "faults")

    def test_parse_grid_rejects_unknown_axes(self):
        with pytest.raises(ValueError, match="frobnicate"):
            parse_grid("seeds,frobnicate")

    def test_seed_grid_is_consecutive(self, config):
        units = expand_grid(config, seeds=3)
        assert [unit.name for unit in units] == \
            ["seed2023", "seed2024", "seed2025"]
        assert [unit.seed for unit in units] == [2023, 2024, 2025]
        assert all(unit.stage == "full" and not unit.fault_rates
                   for unit in units)

    def test_stores_axis_adds_single_store_ablations(self, config):
        units = expand_grid(config, seeds=1, grid="stores")
        assert len(units) == 1 + len(MAJOR_STORES)
        ablations = [unit for unit in units if "-store-" in unit.name]
        assert sorted(unit.trust_stores[0] for unit in ablations) == \
            sorted(MAJOR_STORES)
        assert all(len(unit.trust_stores) == 1 for unit in ablations)

    def test_faults_axis_raises_retry_budget(self, config):
        units = expand_grid(config, seeds=2, grid="faults")
        faulted = [unit for unit in units if unit.fault_rates]
        assert [unit.name for unit in faulted] == \
            ["seed2023-faults", "seed2024-faults"]
        assert all(unit.fault_rates == FAULT_ABLATION for unit in faulted)
        assert all(unit.retries >= 4 for unit in faulted)

    def test_rejects_empty_grid(self, config):
        with pytest.raises(ValueError):
            expand_grid(config, seeds=0)


class TestSweepUnit:
    def test_json_round_trip(self):
        unit = SweepUnit(name="u", seed=7, retries=4,
                         trust_stores=("mozilla",),
                         fault_rates=(("transient_rate", 0.2),),
                         time_scale=0.5, stage="probe")
        spec = unit.to_json()
        assert spec["key"] == unit.key()
        assert SweepUnit.from_json(spec) == unit
        json.dumps(spec)  # the spec must cross the process boundary

    def test_key_ignores_name_and_latency_free_knobs(self):
        a = SweepUnit(name="a", seed=7)
        b = SweepUnit(name="b", seed=7)
        assert a.key() == b.key()  # same work → ledger dedupes

    def test_key_tracks_work_selection(self):
        base = SweepUnit(name="u", seed=7)
        assert base.key() != SweepUnit(name="u", seed=8).key()
        assert base.key() != SweepUnit(name="u", seed=7,
                                       stage="probe").key()
        assert base.key() != SweepUnit(name="u", seed=7,
                                       time_scale=0.1).key()
        assert base.key() != SweepUnit(
            name="u", seed=7,
            fault_rates=(("transient_rate", 0.2),)).key()
        assert base.key() != SweepUnit(name="u", seed=7,
                                       trust_stores=("mozilla",)).key()

    def test_validation(self):
        with pytest.raises(ValueError, match="stage"):
            SweepUnit(name="u", seed=7, stage="half")
        with pytest.raises(ValueError, match="retries"):
            SweepUnit(name="u", seed=7, retries=0)
        with pytest.raises(ValueError, match="fault"):
            SweepUnit(name="u", seed=7, retries=1,
                      fault_rates=(("transient_rate", 0.2),))


class TestCampaignIndex:
    def _specs(self, seeds=2):
        return [unit.to_json()
                for unit in expand_grid(StudyConfig(), seeds=seeds)]

    def test_create_load_round_trip(self, tmp_path):
        path = tmp_path / "campaign.json"
        specs = self._specs()
        index = CampaignIndex.create(path, specs, "full",
                                     cache_dir=tmp_path / "cache")
        loaded = CampaignIndex.load(path)
        assert loaded.campaign_id == index.campaign_id
        assert loaded.stage == "full"
        assert loaded.cache_dir == str(tmp_path / "cache")
        assert loaded.units == specs
        assert loaded.matches([spec["key"] for spec in specs])
        assert not loaded.matches(["other"])
        assert [unit.name for unit in campaign_units(loaded)] == \
            ["seed2023", "seed2024"]

    def test_ledger_updates_survive_reload(self, tmp_path):
        path = tmp_path / "campaign.json"
        specs = self._specs()
        index = CampaignIndex.create(path, specs, "full")
        first, second = specs[0]["key"], specs[1]["key"]
        index.complete(first, {"name": "seed2023", "key": first,
                               "ok": True})
        index.fail(second, "boom")
        loaded = CampaignIndex.load(path)
        assert set(loaded.completed) == {first}
        assert loaded.failed == {second: "boom"}
        # failed units stay pending so a resume retries them
        assert [unit["key"] for unit in loaded.pending_units()] == \
            [second]
        loaded.complete(second, {"name": "seed2024", "key": second,
                                 "ok": True})
        assert loaded.failed == {}
        assert [result["name"] for result in loaded.results()] == \
            ["seed2023", "seed2024"]

    def test_load_rejects_missing_torn_or_foreign(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            CampaignIndex.load(tmp_path / "absent.json")
        torn = tmp_path / "torn.json"
        torn.write_text('{"format": 1, "units": [')
        with pytest.raises(ValueError, match="not valid JSON"):
            CampaignIndex.load(torn)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"format": CAMPAIGN_FORMAT + 1}))
        with pytest.raises(ValueError, match="format"):
            CampaignIndex.load(foreign)
        listed = tmp_path / "listed.json"
        listed.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object") as raised:
            CampaignIndex.load(listed)
        assert str(listed) in str(raised.value)

    def test_campaign_id_orders_and_versions(self):
        assert campaign_id_for(["a", "b"], "1") == \
            campaign_id_for(["b", "a"], "1")
        assert campaign_id_for(["a", "b"], "1") != \
            campaign_id_for(["a", "b"], "2")


def _stub_runner(calls, kill_before=None):
    """A unit runner recording call order; optionally dies mid-campaign.

    ``kill_before`` names the unit whose execution raises
    ``KeyboardInterrupt`` — the runner does not catch it (only unit
    *failures* are caught), so it simulates a killed campaign process.
    """
    def run(payload):
        name = payload["unit"]["name"]
        if name == kill_before:
            raise KeyboardInterrupt
        calls.append(name)
        return {"name": name, "key": payload["unit"]["key"],
                "seed": payload["unit"]["seed"], "ok": True,
                "scalars": {}, "issuer_shares": {}, "invariants": {},
                "wall_seconds": 0.0}
    return run


class TestRunnerResume:
    def _runner(self, tmp_path, units, calls, **kwargs):
        return SweepRunner(units,
                           index_path=tmp_path / "campaign.json",
                           workers=1,
                           unit_runner=_stub_runner(calls, **kwargs))

    def test_resume_after_kill_runs_only_incomplete(self, tmp_path,
                                                    config):
        units = expand_grid(config, seeds=3)
        calls = []
        with pytest.raises(KeyboardInterrupt):
            self._runner(tmp_path, units, calls,
                         kill_before="seed2024").run()
        assert calls == ["seed2023"]  # ledger holds the partial campaign
        index = CampaignIndex.load(tmp_path / "campaign.json")
        assert len(index.completed) == 1

        resumed = []
        result = self._runner(tmp_path, units, resumed).run(resume=True)
        assert resumed == ["seed2024", "seed2025"]
        assert result.skipped == ["seed2023"]
        assert result.ok
        assert [r["name"] for r in result.results()] == \
            ["seed2023", "seed2024", "seed2025"]

    def test_failed_units_are_retried_on_resume(self, tmp_path, config):
        units = expand_grid(config, seeds=2)
        calls = []
        runner = self._runner(tmp_path, units, calls)
        runner.unit_runner = lambda payload: (_ for _ in ()).throw(
            RuntimeError("transient outage"))
        result = runner.run()
        assert not result.ok
        assert [name for name, _ in result.failed] == \
            ["seed2023", "seed2024"]

        retried = []
        again = self._runner(tmp_path, units, retried).run(resume=True)
        assert retried == ["seed2023", "seed2024"]
        assert again.ok and not again.skipped

    def test_rerun_over_same_out_dir_skips_completed(self, tmp_path,
                                                     config):
        units = expand_grid(config, seeds=2)
        calls = []
        assert self._runner(tmp_path, units, calls).run().ok
        assert calls == ["seed2023", "seed2024"]

        rerun_calls = []
        rerun = self._runner(tmp_path, units, rerun_calls).run()
        assert rerun_calls == []  # same campaign id → ledger reused
        assert rerun.skipped == ["seed2023", "seed2024"]

    def test_changed_grid_starts_a_fresh_campaign(self, tmp_path,
                                                  config):
        calls = []
        first = self._runner(tmp_path, expand_grid(config, seeds=1),
                             calls)
        old_id = first.run().index.campaign_id

        grown_calls = []
        grown = self._runner(tmp_path, expand_grid(config, seeds=2),
                             grown_calls).run()
        assert grown.index.campaign_id != old_id
        assert grown_calls == ["seed2023", "seed2024"]  # no stale skips
        assert not grown.skipped

    @pytest.mark.parametrize("damage", ["bad result", "not json"])
    def test_unreadable_ledger_is_kept(self, tmp_path, config, damage):
        units = expand_grid(config, seeds=1)
        assert self._runner(tmp_path, units, []).run().ok
        path = tmp_path / "campaign.json"
        if damage == "bad result":
            doc = json.loads(path.read_text())
            [result] = doc["completed"].values()
            result["scalars"] = [1]
            path.write_text(json.dumps(doc))
        else:
            path.write_text(path.read_text()[:-40])
        before = path.read_bytes()
        calls = []
        with pytest.raises(ValueError) as raised:
            self._runner(tmp_path, units, calls).run()
        assert str(path) in str(raised.value)
        assert len(str(raised.value).splitlines()) == 1
        assert calls == [] and path.read_bytes() == before

    def test_readable_ledger_of_another_campaign_is_replaced(
            self, tmp_path, config):
        assert self._runner(tmp_path, expand_grid(config, seeds=2),
                            []).run().ok
        calls = []
        result = self._runner(tmp_path, expand_grid(config, seeds=1),
                              calls).run()
        assert calls == ["seed2023"] and not result.skipped
        assert len(CampaignIndex.load(tmp_path / "campaign.json").units) \
            == 1

    def test_fresh_campaign_requires_units(self, tmp_path):
        with pytest.raises(ValueError, match="at least one unit"):
            SweepRunner((), index_path=tmp_path / "c.json").run()


def _fake_result(name, seed=2023, match_rate=0.026, invariant_ok=True):
    return {
        "name": name, "key": f"key-{name}", "seed": seed,
        "stage": "full", "ok": True,
        "config_digest": f"cfg-{name}", "artifact_digest": f"art-{name}",
        "scalars": {"match_rate": match_rate, "doc_vendor_mean": 0.5,
                    "doc_device_mean": 0.4, "validity_min_days": 90.0,
                    "validity_max_days": 825.0},
        "issuer_shares": {"DigiCert Inc": 0.3, "Let's Encrypt": 0.2},
        "invariants": {"ok": invariant_ok, "checks": [
            {"name": "match_rate_band", "ok": invariant_ok},
            {"name": "doc_unit_interval", "ok": True}]},
        "wall_seconds": 1.5,
    }


class TestAggregator:
    def test_scalar_stats_on_known_inputs(self):
        stats = ScalarStats.of([1.0, 2.0, 3.0, 4.0])
        assert stats.n == 4
        assert stats.mean == 2.5
        assert stats.stddev == pytest.approx(1.290994449)  # sample, n-1
        assert (stats.min, stats.max) == (1.0, 4.0)
        lone = ScalarStats.of([0.25])
        assert (lone.mean, lone.stddev) == (0.25, 0.0)

    def test_report_aggregates_scalars_and_invariants(self):
        results = [_fake_result("seed2023", match_rate=0.02),
                   _fake_result("seed2024", seed=2024, match_rate=0.03)]
        report = SweepAggregator(results, campaign_id="c" * 64).report()
        assert report.ok
        assert report.units_completed == report.units_total == 2
        assert report.scalars["match_rate"].mean == pytest.approx(0.025)
        assert report.invariants["match_rate_band"] == \
            {"passed": 2, "n": 2, "ok": True}
        assert report.issuer_shares["DigiCert Inc"].n == 2
        # band checks only cover scalars the units actually emit —
        # the ml_* bands need stage="ml" units
        assert {entry["scalar"] for entry in report.bands} == \
            set(SCALAR_BANDS) & set(report.scalars)
        assert all(entry["ok"] for entry in report.bands)
        assert "sweep OK" in report.render()
        json.dumps(report.to_json())

    def test_out_of_band_unit_fails_the_report(self):
        # mean of (0.02, 0.2) still exceeds the match-rate band, and the
        # second unit is individually out of band — both verdicts flip.
        results = [_fake_result("a", match_rate=0.02),
                   _fake_result("b", match_rate=0.2)]
        report = SweepAggregator(results).report()
        band = {entry["scalar"]: entry for entry in report.bands}
        assert not band["match_rate"]["ok"]
        assert not band["match_rate"]["units_ok"]
        assert not report.ok
        assert "SWEEP CHECK FAILED" in report.render()

    def test_failing_invariant_anywhere_fails_the_report(self):
        results = [_fake_result("a"), _fake_result("b",
                                                   invariant_ok=False)]
        report = SweepAggregator(results).report()
        assert report.invariants["match_rate_band"] == \
            {"passed": 1, "n": 2, "ok": False}
        assert not report.ok

    def test_from_index_carries_failures(self, tmp_path):
        specs = [{"name": "a", "key": "ka"}, {"name": "b", "key": "kb"}]
        index = CampaignIndex.create(tmp_path / "c.json", specs, "full")
        index.complete("ka", _fake_result("a"))
        index.fail("kb", "worker died")
        report = SweepAggregator.from_index(index).report()
        assert report.units_total == 2
        assert report.units_completed == 1
        assert report.failures == [("b", "worker died")]
        assert not report.ok
        assert "FAILED b: worker died" in report.render()


class TestSweepCLIErrors:
    """Bad campaign input never ends in a traceback: an unusable ledger
    exits 2 with one stderr line."""

    def test_self_served_store_needs_workers(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        code = main(["sweep", "run", "--seeds", "1", "--workers", "1",
                     "--stage", "probe", "--store-backend", "http",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--workers" in err[0]
        assert not (out / "campaign.json").exists()

    def test_malformed_ledger_result_exits_2(self, tmp_path, capsys,
                                             config):
        out = tmp_path / "campaign"
        specs = [unit.to_json() for unit in expand_grid(config, seeds=1)]
        index = CampaignIndex.create(out / "campaign.json", specs, "full")
        key = specs[0]["key"]
        # A ledger from an older build, or edited by hand, can hold a
        # result SweepAggregator would die on.
        index.complete(key, {"key": key, "scalars": [1]})
        with pytest.raises(ValueError) as raised:
            CampaignIndex.load(out / "campaign.json")
        assert str(out / "campaign.json") in str(raised.value)
        assert key in str(raised.value)
        for command in ("report", "resume"):
            assert main(["sweep", command, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert "Traceback" not in err and "scalars" in err

    def test_unreadable_unit_spec_exits_2(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        # The ledger parses, but its one unit spec has no ``seed``.
        CampaignIndex.create(out / "campaign.json",
                             [{"name": "a", "key": "k1"}], "full")
        for command in ("report", "resume"):
            assert main(["sweep", command, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert "Traceback" not in err
            assert str(out / "campaign.json") in err
            assert "unit 0" in err and "seed" in err

    def test_sweep_run_keeps_a_ledger_it_cannot_read(self, tmp_path,
                                                     capsys):
        out = tmp_path / "campaign"
        out.mkdir()
        (out / "campaign.json").write_text('{"format": 1, "completed"')
        before = (out / "campaign.json").read_bytes()
        assert main(["sweep", "run", "--seeds", "1", "--stage", "probe",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err and "not valid JSON" in err
        assert (out / "campaign.json").read_bytes() == before

    def test_non_object_ledger_exits_2(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        out.mkdir()
        (out / "campaign.json").write_text("[1, 2]")
        for command in ("report", "resume"):
            assert main(["sweep", command, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert "not a JSON object" in err

    def test_report_escapes_lone_surrogates(self, tmp_path, capsys,
                                            config):
        out = tmp_path / "campaign"
        specs = [unit.to_json() for unit in expand_grid(config, seeds=2)]
        index = CampaignIndex.create(out / "campaign.json", specs, "full")
        # Legal JSON escapes that UTF-8 cannot encode, as a worker or a
        # /fabric/fail body may send them.
        result = _fake_result("a")
        result["key"] = specs[0]["key"]
        result["scalars"]["m\ud800"] = 0.5
        index.complete(specs[0]["key"], result)
        index.fail(specs[1]["key"], "worker died \udc80")
        assert main(["sweep", "report", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "m\\ud800" in captured.out
        assert "worker died \\udc80" in captured.out
        assert "Traceback" not in captured.err


@pytest.fixture(scope="module")
def sweep_root(tmp_path_factory):
    """Shared scratch dir: the cluster campaign warms ``cache`` for the
    serial-reference and CLI tests."""
    return tmp_path_factory.mktemp("sweep")


@pytest.fixture(scope="module")
def pooled(sweep_root):
    """A real 2-seed probe-stage campaign on the 2-worker one-host
    cluster (``workers=2``: a fabric coordinator plus two spawned
    worker processes)."""
    units = expand_grid(StudyConfig(), seeds=2, stage="probe")
    runner = SweepRunner(units, index_path=sweep_root / "pool.json",
                         workers=2, cache_dir=sweep_root / "cache")
    return units, runner.run()


class TestProcessPool:
    """End-to-end: real studies in the spawned worker processes of the
    one-host cluster that ``workers > 1`` runs, over a shared store."""

    def test_pool_completes_all_units(self, pooled):
        units, result = pooled
        assert result.ok
        assert sorted(result.ran) == ["seed2023", "seed2024"]
        for payload in result.results():
            assert payload["node_digests"]["probe.certificates"]
            assert payload["scalars"]["reachable_snis"] > 0
            assert payload["stage_timings"]  # worker obs travelled back

    def test_serial_digests_byte_identical_to_pool(self, sweep_root,
                                                   pooled):
        units, pool_result = pooled
        serial = SweepRunner(units,
                             index_path=sweep_root / "serial.json",
                             workers=1,
                             cache_dir=sweep_root / "cache").run()
        assert serial.ok
        by_key = {payload["key"]: payload
                  for payload in pool_result.results()}
        for payload in serial.results():
            pooled_payload = by_key[payload["key"]]
            assert payload["config_digest"] == \
                pooled_payload["config_digest"]
            assert payload["node_digests"] == \
                pooled_payload["node_digests"]
            assert payload["artifact_digest"] == \
                pooled_payload["artifact_digest"]

    def test_cli_run_resume_report(self, sweep_root, tmp_path, capsys):
        out = tmp_path / "campaign"
        cache = sweep_root / "cache"  # warm from the pooled fixture
        argv = ["sweep", "run", "--seeds", "1", "--workers", "1",
                "--stage", "probe", "--out", str(out),
                "--cache-dir", str(cache)]
        assert main(argv) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["ok"]
        assert report["units_completed"] == 1

        assert main(argv) == 0  # re-run skips via the ledger
        assert "skipped 1" in capsys.readouterr().out

        assert main(["sweep", "resume", "--out", str(out)]) == 0
        assert main(["sweep", "report", "--out", str(out)]) == 0
        assert "sweep OK" in capsys.readouterr().out

    def test_cluster_run_leaves_obs_context_alone(self, sweep_root,
                                                  pooled):
        units, _ = pooled
        obs.deactivate()
        before = obs.current()
        result = SweepRunner(units[:1],
                             index_path=sweep_root / "obs.json",
                             workers=2,
                             cache_dir=sweep_root / "cache").run()
        assert result.ok
        assert obs.current() is before


class TestWarmUnit:
    """A warm full-stage unit reads only the artifact store: it builds
    neither the world nor the library corpus."""

    @pytest.fixture(scope="class")
    def filled(self, tmp_path_factory):
        """One cold inline unit over a fresh local store."""
        cache = tmp_path_factory.mktemp("warm-unit") / "cache"
        [unit] = expand_grid(StudyConfig(), seeds=1)
        payload = {"unit": unit.to_json(), "store": local_spec(cache)}
        return payload, ArtifactStore(cache), run_unit(payload)

    @pytest.fixture
    def store_only(self, monkeypatch):
        def unavailable(*_args):
            raise AssertionError("a warm unit built a study input")
        monkeypatch.setattr(Study, "world", property(unavailable))
        monkeypatch.setattr(study_module, "_shared_corpus", unavailable)

    def test_warm_unit_reads_only_the_store(self, filled, store_only):
        payload, _store, cold = filled
        assert "study.world" in cold["stage_timings"]
        assert cold["invariants"]["ok"]
        warm = run_unit(payload)
        assert warm["config_digest"] == cold["config_digest"]
        assert warm["invariants"] == cold["invariants"]
        assert "study.world" not in warm["stage_timings"]
        assert warm["cache"]["misses"] == []

    def test_missing_node_recomputes_from_the_stored_corpus(
            self, filled, store_only):
        payload, store, cold = filled
        config = SweepUnit.from_json(payload["unit"]).study_config()
        stage = "analysis.client.matching"
        store.blob_path(store.key(config, stage)).unlink()
        warm = run_unit(payload)
        assert warm["cache"]["misses"] == [stage]
        assert "corpus" in warm["cache"]["hits"]
        assert warm["node_digests"][stage] == cold["node_digests"][stage]
        assert warm["config_digest"] == cold["config_digest"]
