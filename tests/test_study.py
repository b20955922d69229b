"""Tests for the memoized study context."""

import pytest

from repro.study import DEFAULT_SEED, Study, get_study


class TestMemoization:
    def test_get_study_cached(self):
        assert get_study() is get_study()

    def test_lazy_construction(self):
        from repro.study import StudyConfig
        fresh = Study(StudyConfig(seed=12345))
        assert fresh._world is None
        assert fresh._certificates is None

    def test_config_first_does_not_warn(self, recwarn):
        from repro.study import StudyConfig
        Study(StudyConfig(seed=12346))
        get_study()
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_bare_seed_positional_raises(self):
        with pytest.raises(TypeError, match="takes a StudyConfig"):
            get_study(DEFAULT_SEED)
        with pytest.raises(TypeError, match="takes a StudyConfig"):
            Study(DEFAULT_SEED)

    def test_get_study_seed_keyword_raises(self):
        with pytest.raises(TypeError):
            get_study(seed=DEFAULT_SEED)

    def test_study_seed_keyword_raises(self):
        with pytest.raises(TypeError):
            Study(seed=4242)

    def test_config_plus_seed_rejected(self):
        from repro.study import StudyConfig
        with pytest.raises(TypeError):
            Study(StudyConfig(seed=1), seed=2)
        with pytest.raises(TypeError):
            get_study(StudyConfig(seed=1), seed=2)

    def test_world_built_once(self, study):
        assert study.world is study.world
        assert study.dataset is study.dataset
        assert study.network is study.network
        assert study.certificates is study.certificates

    def test_corpus_shared_shape(self, study):
        assert len(study.corpus) == 6891


class TestValidatorFactory:
    def test_fresh_validator_instances(self, study):
        a, b = study.validator(), study.validator()
        assert a is not b
        assert a.store is b.store

    def test_validator_uses_union_store(self, study):
        validator = study.validator()
        for ca in study.ecosystem.public.values():
            assert validator.store.contains(ca.root)


class TestSeedIsolation:
    def test_different_seed_different_capture(self):
        # Use a tiny probe of divergence that doesn't rebuild everything:
        # the generators' commodity plans already differ.
        from repro.inspector.generator import WorldGenerator
        plan_a = WorldGenerator(seed=1)._build_commodity_pool()
        plan_b = WorldGenerator(seed=2)._build_commodity_pool()
        members_a = [m for _s, m in plan_a]
        members_b = [m for _s, m in plan_b]
        assert members_a != members_b
