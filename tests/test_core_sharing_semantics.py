"""Unit tests for sharing (Jaccard / server ties) and semantic matching."""

import pytest

from repro.core import semantics, sharing
from repro.inspector.dataset import InspectorDataset
from repro.match import set_jaccard
from tests.conftest import make_record


class TestJaccard:
    def test_identity(self):
        assert set_jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert set_jaccard({1}, {2}) == 0.0

    def test_subset_penalized(self):
        # The paper's rationale: a small subset of a big set is dissimilar.
        assert set_jaccard({1}, {1, 2, 3, 4}) == pytest.approx(0.25)

    def test_empty_sets(self):
        assert set_jaccard(set(), set()) == 0.0

    def test_symmetry(self):
        a, b = {1, 2, 3}, {2, 3, 4, 5}
        assert set_jaccard(a, b) == set_jaccard(b, a)

    def test_pairs_thresholded(self, mini_dataset):
        pairs = sharing.vendor_similarity_pairs(mini_dataset, threshold=0.2)
        # Acme {u, s, k} vs Bolt {s, k}: J = 2/3.
        assert pairs == [(pytest.approx(2 / 3), "Acme", "Bolt")]

    def test_bands(self):
        pairs = [(1.0, "A", "B"), (0.75, "C", "D"), (0.5, "E", "F"),
                 (0.35, "G", "H"), (0.2, "I", "J")]
        bands = sharing.similarity_bands(pairs)
        assert bands["1"] == [("A", "B")]
        assert bands["[0.7, 1)"] == [("C", "D")]
        assert bands["[0.4, 0.7)"] == [("E", "F")]
        assert bands["[0.3, 0.4)"] == [("G", "H")]
        assert bands["[0.2, 0.3)"] == [("I", "J")]


class TestServerTies:
    def test_mini_sdk_tie_found(self, mini_dataset):
        fraction, ties = sharing.server_specific_fingerprints(mini_dataset)
        # The SDK fingerprint is used by dev-a2 and dev-b1 exclusively
        # toward cdn.shared.net.
        assert fraction > 0
        assert len(ties) == 1
        tie = ties[0]
        assert tie.sld == "shared.net"
        assert tie.device_count == 2
        assert tie.vendors == ("Acme", "Bolt")

    def test_single_device_not_tied(self):
        records = [
            make_record(device="solo", vendor="V", suites=(0x0035,),
                        sni="only.app.example"),
        ]
        ds = InspectorDataset(records)
        fraction, ties = sharing.server_specific_fingerprints(ds)
        assert fraction == 0.0
        assert ties == []

    def test_fingerprint_spread_over_slds_not_tied(self):
        base = dict(vendor="V", suites=(0x0035,))
        records = [
            make_record(device="d1", sni="a.one.example", **base),
            make_record(device="d1", sni="b.two.example", **base),
            make_record(device="d2", sni="a.one.example", **base),
            make_record(device="d2", sni="b.two.example", **base),
        ]
        ds = InspectorDataset(records)
        fraction, _ties = sharing.server_specific_fingerprints(ds)
        assert fraction == 0.0

    def test_corpus_matched_fingerprints_excluded(self, corpus):
        from repro.libraries import openssl
        library = openssl.fingerprint_for("1.0.2u")
        records = [
            make_record(device=f"d{i}", vendor=f"V{i}",
                        version=library.tls_version,
                        suites=library.ciphersuites,
                        extensions=library.extensions,
                        sni="x.lib.example")
            for i in range(2)
        ]
        ds = InspectorDataset(records)
        fraction, _ = sharing.server_specific_fingerprints(ds, corpus)
        assert fraction == 0.0

    def test_full_dataset_includes_sdk_domains(self, dataset, corpus):
        _fraction, ties = sharing.server_specific_fingerprints(dataset,
                                                               corpus)
        slds = {tie.sld for tie in ties}
        assert "roku.com" in slds
        assert "sonos.com" in slds


class TestSemanticClassification:
    def classify(self, device, library):
        return semantics.classify_against_library(device, library)

    def test_exact(self):
        assert self.classify((1, 2, 3), (1, 2, 3)) == "exact"

    def test_exact_ignores_grease_and_scsv(self):
        assert self.classify((0x0A0A, 1, 2, 0x00FF), (1, 2)) == "exact"

    def test_same_set_diff_order(self):
        assert self.classify((2, 1), (1, 2)) == "same_set_diff_order"

    def test_same_component(self):
        # Same {kx} × {cipher} × {mac} sets, different combinations:
        # device pairs ECDHE with AES-128 and RSA with AES-256; the
        # library pairs them the other way around.
        device = (0xC013, 0x0035)
        library = (0xC014, 0x002F)
        assert self.classify(device, library) == "same_component"

    def test_component_superset_not_same(self):
        device = (0xC02F, 0xC013)
        library = (0xC013, 0xC02F, 0xC014)  # adds AES_256_CBC
        assert self.classify(device, library) != "same_component"

    def test_similar_component(self):
        # Device keeps only AES_256 variants of a 128+256 library.
        device = (0xC014, 0x0035)           # ECDHE/RSA AES_256_CBC_SHA
        library = (0xC013, 0x002F)          # ECDHE/RSA AES_128_CBC_SHA
        assert self.classify(device, library) == "similar_component"

    def test_sha1_not_similar_to_sha256(self):
        device = (0x003C,)   # RSA AES_128_CBC_SHA256
        library = (0x002F,)  # RSA AES_128_CBC_SHA
        assert self.classify(device, library) == "customization"

    def test_customization(self):
        assert self.classify((0xC02F,), (0x0035,)) == "customization"


class TestSemanticPipeline:
    def test_full_run_covers_all_tuples(self, dataset, corpus):
        matches = semantics.semantic_fingerprinting(dataset, corpus)
        assert len(matches) == len(dataset.ciphersuite_lists())

    def test_summary_shares_sum_to_one(self, dataset, corpus):
        matches = semantics.semantic_fingerprinting(dataset, corpus)
        summary = semantics.semantic_summary(matches)
        assert sum(row["share"] for row in summary.values()) == \
            pytest.approx(1.0)

    def test_customization_has_no_library(self, dataset, corpus):
        matches = semantics.semantic_fingerprinting(dataset, corpus)
        for match in matches:
            if match.category == "customization":
                assert match.library is None
            else:
                assert match.library is not None

    def test_jaccard_bounds(self, dataset, corpus):
        matches = semantics.semantic_fingerprinting(dataset, corpus)
        assert all(0.0 <= match.jaccard <= 1.0 for match in matches)

    def test_figure8_histogram_shape(self, dataset, corpus):
        matches = semantics.semantic_fingerprinting(dataset, corpus)
        histograms = semantics.jaccard_distribution(matches, bins=10)
        for counts in histograms.values():
            assert len(counts) == 10
            assert all(count >= 0 for count in counts)


def _semantic_fingerprinting_per_tuple(dataset, corpus):
    """The Appendix B.2 analysis classifying every tuple on its own."""
    real_of = semantics._real_suites

    def components(real):
        return tuple(frozenset(s) for s in semantics._component_sets(real))

    def similar(real):
        return tuple(frozenset(s)
                     for s in semantics._similar_component_sets(real))

    keys = (("exact", tuple), ("same_set_diff_order", frozenset),
            ("same_component", components), ("similar_component", similar))
    first = {name: {} for name, _key_of in keys}
    for suites, library in corpus.ciphersuite_lists().items():
        for name, key_of in keys:
            first[name].setdefault(key_of(real_of(suites)), library)
    vendor_of = {r.device_id: r.vendor for r in dataset.records}
    matches = []
    for device_id, suites in sorted(dataset.ciphersuite_lists()):
        real = real_of(suites)
        category, library = "customization", None
        for name, key_of in keys:
            library = first[name].get(key_of(real))
            if library is not None:
                category = name
                break
        jaccard = semantics._suite_jaccard(
            suites, library.ciphersuites) if library else 0.0
        matches.append(semantics.SemanticMatch(
            device_id=device_id, vendor=vendor_of[device_id],
            ciphersuites=suites, category=category, library=library,
            jaccard=jaccard))
    return matches


class TestSemanticsPerListEqualsPerTuple:
    def test_mini_dataset(self, mini_dataset, corpus):
        assert semantics.semantic_fingerprinting(mini_dataset, corpus) == \
            _semantic_fingerprinting_per_tuple(mini_dataset, corpus)

    def test_study_dataset(self, dataset, corpus):
        assert semantics.semantic_fingerprinting(dataset, corpus) == \
            _semantic_fingerprinting_per_tuple(dataset, corpus)
