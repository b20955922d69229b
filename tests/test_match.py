"""The ``repro.match`` core: bitsets, indexes, and the Section 4 analyses.

Two contracts are pinned here:

- the Jaccard contract (bounds, symmetry, identity, empty-set rules)
  holds identically for the reference ``set_jaccard`` and the popcount
  ``FingerprintVector.jaccard``;
- exactness: every indexed path returns exactly what a brute-force
  oracle in this file returns — seeded fuzz for
  ``SimilarityIndex.query``/``all_pairs``, the linear highest-version
  scan for ``LibraryCorpus.match``, and all-pairs set Jaccard for
  ``sharing.vendor_similarity_pairs``.
"""

import random
from itertools import combinations

import pytest

from repro.core import matching, sharing
from repro.inspector.dataset import InspectorDataset
from repro.libraries.base import version_sort_key
from repro.match import (CorpusIndex, FeatureSpace, FingerprintVector,
                         SimilarityIndex, fingerprint_tokens, set_jaccard)
from repro.match.synth import (random_universe, scaled_fingerprints,
                               scaled_vendor_sets)
from repro.match.vector import _popcount_compat, popcount
from repro.verify.canonical import digest
from tests.conftest import make_record


def brute_force_pairs(sets, threshold):
    """Reference all-pairs scan with plain-set Jaccard."""
    results = [(set_jaccard(sets[a], sets[b]), a, b)
               for a, b in combinations(sorted(sets), 2)
               if set_jaccard(sets[a], sets[b]) >= threshold]
    results.sort(key=lambda row: (-row[0], row[1], row[2]))
    return results


class LinearCorpus:
    """Reference corpus matcher: a linear highest-version scan.

    Each distinct query scans every corpus entry once (answers are
    memoized, so oracles over thousands of repeat queries stay cheap).
    """

    def __init__(self, corpus):
        self._entries = [(entry.key(), entry) for entry in corpus]
        self._answers = {}

    def match(self, tls_version, ciphersuites, extensions):
        key = (int(tls_version), tuple(ciphersuites), tuple(extensions))
        if key not in self._answers:
            best = None
            for entry_key, entry in self._entries:
                if entry_key == key and (best is None or (
                        entry.library, version_sort_key(entry.version))
                        > (best.library, version_sort_key(best.version))):
                    best = entry
            self._answers[key] = best
        return self._answers[key]


@pytest.fixture(scope="module")
def linear_corpus(corpus):
    return LinearCorpus(corpus)


class VendorWorld:
    """The dataset slice ``vendor_similarity_pairs`` reads, from a dict."""

    def __init__(self, sets):
        self._sets = sets

    def vendor_names(self):
        return sorted(self._sets)

    def vendor_fingerprints(self, vendor):
        return self._sets[vendor]


class TestPopcountAndVector:
    def test_popcount_implementations_agree(self):
        rng = random.Random(0)
        for _ in range(200):
            value = rng.getrandbits(rng.randint(1, 300))
            assert popcount(value) == _popcount_compat(value)
        assert popcount(0) == 0

    def test_vector_set_algebra_matches_sets(self):
        rng = random.Random(1)
        space = FeatureSpace()
        for _ in range(50):
            a = set(rng.sample(range(100), rng.randint(0, 40)))
            b = set(rng.sample(range(100), rng.randint(0, 40)))
            va = FingerprintVector.from_tokens(a, space)
            vb = FingerprintVector.from_tokens(b, space)
            assert va.count == len(a)
            assert va.intersection_count(vb) == len(a & b)
            assert va.union_count(vb) == len(a | b)
            assert va.jaccard(vb) == set_jaccard(a, b)

    def test_from_fingerprint_round_trips_tokens(self):
        space = FeatureSpace()
        fp = (0x0303, (0x2F, 0x35), (0, 11, 35))
        vector = FingerprintVector.from_fingerprint(fp, space)
        assert vector.tokens() == fingerprint_tokens(fp)
        assert vector.count == 1 + 2 + 3

    def test_suite_and_extension_codes_stay_distinct(self):
        # Suite 11 and extension 11 must be different features.
        space = FeatureSpace()
        only_suite = FingerprintVector.from_fingerprint(
            (0x0303, (11,), ()), space)
        only_ext = FingerprintVector.from_fingerprint(
            (0x0303, (), (11,)), space)
        assert only_suite.intersection_count(only_ext) == 1  # version
        assert only_suite.union_count(only_ext) == 3

    def test_cross_space_comparison_rejected(self):
        va = FingerprintVector.from_tokens({1}, FeatureSpace())
        vb = FingerprintVector.from_tokens({1}, FeatureSpace())
        with pytest.raises(ValueError, match="FeatureSpace"):
            va.jaccard(vb)


def _vector_jaccard(a, b):
    space = FeatureSpace()
    return FingerprintVector.from_tokens(a, space).jaccard(
        FingerprintVector.from_tokens(b, space))


#: every implementation bound to the one pinned Jaccard contract.
JACCARD_IMPLS = [
    pytest.param(set_jaccard, id="set_jaccard"),
    pytest.param(_vector_jaccard, id="FingerprintVector"),
]


@pytest.mark.parametrize("impl", JACCARD_IMPLS)
class TestJaccardContract:
    def test_two_empty_sets(self, impl):
        assert impl(set(), set()) == 0.0

    def test_one_empty_set(self, impl):
        assert impl(set(), {1, 2}) == 0.0
        assert impl({1, 2}, set()) == 0.0

    def test_identical_set_is_one(self, impl):
        assert impl({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_symmetry_and_bounds(self, impl):
        rng = random.Random(3)
        for _ in range(25):
            a = set(rng.sample(range(40), rng.randint(0, 15)))
            b = set(rng.sample(range(40), rng.randint(0, 15)))
            forward, backward = impl(a, b), impl(b, a)
            assert forward == backward
            assert 0.0 <= forward <= 1.0

    def test_agrees_with_reference(self, impl):
        rng = random.Random(4)
        for _ in range(25):
            a = set(rng.sample(range(40), rng.randint(0, 15)))
            b = set(rng.sample(range(40), rng.randint(0, 15)))
            assert impl(a, b) == set_jaccard(a, b)


class TestSimilarityIndexExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_candidates_superset_and_queries_exact(self, seed):
        # For random universes, the element-posting candidate pairs
        # all_pairs prunes through are a superset of every pair at or
        # above the threshold, and query/all_pairs equal brute force.
        sets = random_universe(50, universe=120, seed=seed)
        index = SimilarityIndex()
        for item, tokens in sets.items():
            index.add(item, tokens)
        candidates = index._element_pairs()
        for threshold in (0.1, 0.3, 0.5, 0.9):
            brute = brute_force_pairs(sets, threshold)
            assert {(a, b) for _s, a, b in brute} <= candidates
            assert index.all_pairs(threshold) == brute
        for item in list(sets)[:10]:
            expected = sorted(
                ((set_jaccard(sets[item], sets[other]), other)
                 for other in sets
                 if set_jaccard(sets[item], sets[other]) >= 0.4),
                key=lambda hit: (-hit[0], hit[1]))
            assert index.query(sets[item], 0.4) == expected

    def test_all_pairs_threshold_zero_includes_disjoint(self):
        index = SimilarityIndex()
        index.add("a", {1, 2})
        index.add("b", {3, 4})
        assert index.all_pairs(0.0) == [(0.0, "a", "b")]
        assert index.all_pairs(0.1) == []

    def test_query_limit_and_order(self):
        index = SimilarityIndex()
        index.add("far", {1, 9})
        index.add("near", {1, 2, 3})
        index.add("exactly", {1, 2, 3, 4})
        hits = index.query({1, 2, 3, 4}, threshold=0.2, limit=2)
        assert hits == [(1.0, "exactly"), (0.75, "near")]

    def test_duplicate_id_rejected(self):
        index = SimilarityIndex()
        index.add("a", {1})
        with pytest.raises(ValueError, match="already indexed"):
            index.add("a", {2})


class TestCorpusIndex:
    def test_match_parity_with_linear_corpus(self, corpus, dataset,
                                             linear_corpus):
        # LibraryCorpus.match (highest version resolved once per key)
        # equals the linear highest-version scan on every corpus key and
        # every dataset fingerprint.
        for key in corpus.keys():
            assert corpus.match(*key) == linear_corpus.match(*key)
        for fp in dataset.fingerprints():
            assert corpus.match(*fp) == linear_corpus.match(*fp)
        assert corpus.match(0x9999, (1, 2), (3,)) is None

    def test_near_matches_exact_vs_brute_force(self, corpus, dataset):
        index = CorpusIndex(corpus)
        keys = sorted({entry.key() for entry in corpus})
        for fp in sorted(dataset.fingerprints())[:20]:
            probe = fingerprint_tokens(fp)
            expected = sorted(
                ((set_jaccard(probe, fingerprint_tokens(key)), key)
                 for key in keys
                 if set_jaccard(probe,
                                fingerprint_tokens(key)) >= 0.7),
                key=lambda hit: (-hit[0], hit[1]))
            hits = index.near_matches(fp, threshold=0.7, limit=None)
            assert [(s, lib.key()) for s, lib in hits] == expected

    def test_stats_shape(self, corpus):
        stats = CorpusIndex(corpus).stats()
        assert stats["entries"] == len(corpus)
        assert 0 < stats["distinct_keys"] <= stats["entries"]
        assert stats["dedup_ratio"] >= 1.0


class TestEngineEquivalence:
    """The Section 4 analyses against the brute-force oracles above."""

    def test_match_report_identical(self, dataset, corpus,
                                    linear_corpus):
        report = matching.match_report(dataset, corpus)
        expected = {}
        for fp in dataset.fingerprints():
            library = linear_corpus.match(*fp)
            if library is not None:
                expected[fp] = library
        assert report.matched == expected
        assert report.device_counts == {
            fp: len(dataset.fingerprint_devices(fp)) for fp in expected}
        assert report.total_fingerprints == len(dataset.fingerprints())

    def test_vendor_similarity_pairs_byte_identical(self, dataset):
        # Canonical digests equal, not just ==.
        pairs = sharing.vendor_similarity_pairs(dataset)
        expected = brute_force_pairs(
            {vendor: dataset.vendor_fingerprints(vendor)
             for vendor in dataset.vendor_names()}, 0.2)
        assert digest(pairs) == digest(expected)
        assert pairs == expected
        assert len(pairs) == 28

    def test_server_specific_fingerprints_identical(self, dataset,
                                                    corpus,
                                                    linear_corpus):
        # The corpus-match exclusion agrees with the linear oracle.
        result = sharing.server_specific_fingerprints(dataset, corpus)
        oracle = sharing.server_specific_fingerprints(dataset,
                                                      linear_corpus)
        assert result == oracle
        assert result[1]

    def test_scaled_world_pairs_identical(self, dataset):
        # 3x world: the pruned pairs still equal brute force.
        world = scaled_vendor_sets(dataset, 3)
        pairs = sharing.vendor_similarity_pairs(VendorWorld(world))
        assert pairs == brute_force_pairs(world, 0.2)
        assert len(pairs) == 3 * 28

    def test_pairs_follow_a_grown_dataset(self):
        # Two one-device vendors share nothing; then Bolt gains a device
        # with Acme's fingerprint, and the pairs answer for the records
        # the dataset holds now.
        grown = InspectorDataset([
            make_record(device="dev-a1", vendor="Acme"),
            make_record(device="dev-b1", vendor="Bolt",
                        suites=(0x002F, 0x0035)),
        ])
        assert sharing.vendor_similarity_pairs(grown) == []
        grown.extend([make_record(device="dev-b2", vendor="Bolt")])
        assert sharing.vendor_similarity_pairs(grown) == [
            (0.5, "Acme", "Bolt")]


class TestDeprecations:
    def test_non_deprecated_paths_warn_nothing(self, dataset, corpus,
                                               recwarn):
        sharing.vendor_similarity_pairs(dataset)
        sharing.server_specific_fingerprints(dataset, corpus)
        matching.match_report(dataset, corpus)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestSynth:
    def test_scaled_vendor_sets_shape(self, dataset):
        world = scaled_vendor_sets(dataset, 4)
        vendors = dataset.vendor_names()
        assert len(world) == 4 * len(vendors)
        # clone 0 is verbatim; clones are fingerprint-disjoint from it.
        for vendor in vendors[:5]:
            assert world[vendor] == dataset.vendor_fingerprints(vendor)
            assert not world[vendor] & world[f"{vendor}#1"]
            # within-clone overlap structure survives tagging.
            assert len(world[f"{vendor}#2"]) == len(world[vendor])

    def test_scaled_fingerprints_distinct_and_deterministic(self,
                                                            dataset):
        one = scaled_fingerprints(dataset, 3, seed=6)
        two = scaled_fingerprints(dataset, 3, seed=6)
        assert one == two
        assert len(set(one)) == len(one)
        assert len(one) == 3 * len(dataset.fingerprints())

    def test_random_universe_deterministic(self):
        assert random_universe(25, seed=1) == random_universe(25,
                                                              seed=1)
        assert random_universe(25, seed=1) != random_universe(25,
                                                              seed=2)
