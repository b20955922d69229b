"""Unit tests for sharing (Jaccard / server ties) and semantic matching."""

import pickle
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import semantics, sharing
from repro.core.security import fingerprint_vulnerable_components
from repro.inspector.dataset import InspectorDataset
from repro.libraries import LibraryCorpus, openssl
from repro.match import set_jaccard
from repro.x509.names import second_level_domain
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


def _server_specific_fingerprints_per_record(dataset, corpus=None):
    """Table 5 with an SLD per record and a device rescan per pair."""
    slds_by_device_fp = defaultdict(set)
    for record in dataset.records:
        if record.sni:
            slds_by_device_fp[(record.device_id, record.fingerprint())].add(
                second_level_domain(record.sni))
    tied_snis = set()
    aggregates = defaultdict(lambda: (set(), set()))
    snis = dataset.snis()
    for sni in snis:
        sld = second_level_domain(sni)
        for fp in dataset.sni_fingerprints(sni):
            if corpus is not None and corpus.match(*fp) is not None:
                continue
            devices = {d for d, f in dataset.sni_device_fingerprints(sni)
                       if f == fp}
            if len(devices) >= 2 and all(
                    slds_by_device_fp[(d, fp)] == {sld} for d in devices):
                tied_snis.add(sni)
                fqdns, all_devices = aggregates[(sld, fp)]
                fqdns.add(sni)
                all_devices.update(devices)
    ties = []
    for (sld, fp), (fqdns, devices) in aggregates.items():
        vendors = tuple(sorted({dataset.device_vendor(d) for d in devices}))
        if len(devices) < 2 or len(vendors) < 2:
            continue
        ties.append(sharing.ServerFingerprintTie(
            sld=sld, fingerprint=fp, fqdn_count=len(fqdns),
            device_count=len(devices), vendors=vendors,
            vulnerable_components=tuple(
                fingerprint_vulnerable_components(fp))))
    ties.sort(key=lambda tie: (-tie.device_count, tie.sld))
    return len(tied_snis) / max(1, len(snis)), ties


_LIBRARY = openssl.fingerprint_for("1.0.2u")
_STACKS = (
    dict(suites=(0x0035,), extensions=(0, 10)),
    dict(suites=(0xC02F, 0x000A), extensions=(0, 10)),
    dict(suites=(0xC02B, 0xC02F), extensions=(0, 10, 16)),
    dict(version=_LIBRARY.tls_version, suites=_LIBRARY.ciphersuites,
         extensions=_LIBRARY.extensions),
)
_SNIS = ("a.one.example", "b.one.example", "c.two.example",
         "api.pavv.co.kr", "cdn.pavv.co.kr", "")


class TestServerTiesPerSniEqualsPerRecord:
    def test_study_dataset(self, dataset, corpus):
        assert sharing.server_specific_fingerprints(dataset, corpus) == \
            _server_specific_fingerprints_per_record(dataset, corpus)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(vendor_of=st.lists(st.integers(0, 2), min_size=6, max_size=6),
           rows=st.lists(st.tuples(st.integers(0, 5),
                                   st.integers(0, len(_STACKS) - 1),
                                   st.integers(0, len(_SNIS) - 1)),
                         max_size=40),
           with_corpus=st.booleans())
    def test_small_datasets(self, vendor_of, rows, with_corpus):
        dataset = InspectorDataset([
            make_record(device=f"d{device}", vendor=f"V{vendor_of[device]}",
                        sni=_SNIS[sni], **_STACKS[stack])
            for device, stack, sni in rows])
        corpus = LibraryCorpus([_LIBRARY]) if with_corpus else None
        assert sharing.server_specific_fingerprints(dataset, corpus) == \
            _server_specific_fingerprints_per_record(dataset, corpus)


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


class TestSemanticsIndexOnCorpus:
    def test_two_calls_derive_the_index_once(self, mini_dataset, corpus,
                                             monkeypatch):
        fresh = LibraryCorpus(list(corpus))
        calls = []
        lists = fresh.ciphersuite_lists
        monkeypatch.setattr(fresh, "ciphersuite_lists",
                            lambda: calls.append(1) or lists())
        first = semantics.semantic_fingerprinting(mini_dataset, fresh)
        assert semantics.semantic_fingerprinting(mini_dataset,
                                                 fresh) == first
        assert len(calls) == 1

    def test_index_stays_out_of_the_pickled_corpus(self, mini_dataset,
                                                   corpus):
        fresh = LibraryCorpus(list(corpus))
        before = pickle.dumps(fresh)
        matches = semantics.semantic_fingerprinting(mini_dataset, fresh)
        assert pickle.dumps(fresh) == before
        assert semantics.semantic_fingerprinting(
            mini_dataset, pickle.loads(before)) == matches
