"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import functools
import json
import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.inspector.model import ClientHelloRecord
from repro.match import set_jaccard as jaccard
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import parse_prometheus, render_prometheus
from repro.tlslib.clienthello import ClientHello, captured_fields
from repro.tlslib.errors import TLSParseError
from repro.tlslib.record import (ContentType, decode_records, encode_records,
                                 iter_handshake_messages)
from repro.tlslib.versions import TLSVersion
from repro.x509 import asn1
from repro.x509.ca import CertificateAuthority
from repro.x509.certificate import Certificate
from repro.x509.errors import X509Error

SLOW = settings(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

wire_code = st.integers(min_value=0, max_value=0xFFFF)
ext_code = st.integers(min_value=1, max_value=0xFFFE).filter(lambda c: c != 0)
hostname = st.from_regex(r"[a-z]{1,10}(\.[a-z]{1,10}){1,3}", fullmatch=True)


class TestClientHelloRoundTrip:
    @SLOW
    @given(
        version=st.sampled_from(list(TLSVersion)),
        suites=st.lists(wire_code, min_size=1, max_size=80),
        extensions=st.lists(ext_code, max_size=20),
        sni=st.one_of(st.none(), hostname),
        random_bytes=st.binary(min_size=32, max_size=32),
        session_id=st.binary(max_size=16),
    )
    def test_roundtrip(self, version, suites, extensions, sni,
                       random_bytes, session_id):
        hello = ClientHello(version=version, ciphersuites=suites,
                            extensions=extensions, sni=sni,
                            random=random_bytes, session_id=session_id)
        parsed = ClientHello.from_bytes(hello.to_bytes())
        assert parsed.version == hello.version
        assert parsed.ciphersuites == list(hello.ciphersuites)
        assert parsed.extensions == list(hello.extensions)
        assert parsed.sni == hello.sni
        assert parsed.session_id == session_id

    @SLOW
    @given(
        version=st.sampled_from(list(TLSVersion)),
        suites=st.lists(wire_code, max_size=80),
        extensions=st.lists(wire_code, max_size=20),
        sni=st.one_of(st.none(), hostname,
                      st.sampled_from(["bücher.example",
                                       "пример.испытание"])),
    )
    @example(version=TLSVersion.TLS_1_2, suites=[0xC02F],
             extensions=[10, 0, 0], sni="a.example")
    def test_captured_fields_equal_the_round_trip(self, version, suites,
                                                  extensions, sni):
        parsed = ClientHello.from_bytes(ClientHello(
            version=version, ciphersuites=suites, extensions=extensions,
            sni=sni, random=bytes(32)).to_bytes())
        assert captured_fields(version, suites, extensions, sni) == (
            parsed.version, tuple(parsed.ciphersuites),
            tuple(parsed.extensions), parsed.sni)

    @SLOW
    @given(payload=st.binary(max_size=40000),
           version=st.sampled_from(list(TLSVersion)))
    def test_record_layer_roundtrip(self, payload, version):
        wire = encode_records(ContentType.APPLICATION_DATA, version, payload)
        records = decode_records(wire)
        assert b"".join(r.payload for r in records) == payload


class TestDERProperties:
    @SLOW
    @given(value=st.integers(min_value=-(2 ** 256), max_value=2 ** 256))
    def test_integer_roundtrip(self, value):
        assert asn1.decode(asn1.encode_integer(value)).as_integer() == value

    @SLOW
    @given(data=st.binary(max_size=2000))
    def test_octet_string_roundtrip(self, data):
        node = asn1.decode(asn1.encode_octet_string(data))
        assert node.as_octet_string() == data

    @SLOW
    @given(arcs=st.lists(st.integers(min_value=0, max_value=2 ** 28),
                         min_size=1, max_size=8))
    def test_oid_roundtrip(self, arcs):
        dotted = ".".join(str(a) for a in [1, 3] + arcs)
        assert asn1.decode(asn1.encode_oid(dotted)).as_oid() == dotted

    @SLOW
    @given(values=st.lists(st.integers(min_value=0, max_value=255),
                           max_size=6))
    def test_sequence_roundtrip(self, values):
        blob = asn1.encode_sequence(*[asn1.encode_integer(v)
                                      for v in values])
        node = asn1.decode(blob)
        assert [child.as_integer() for child in node] == values

    @SLOW
    @given(junk=st.binary(min_size=1, max_size=64))
    def test_decode_never_crashes_unexpectedly(self, junk):
        # Arbitrary bytes either decode or raise DERDecodeError — nothing
        # else may escape.
        from repro.x509.errors import DERDecodeError
        try:
            asn1.decode(junk)
        except DERDecodeError:
            pass


@functools.lru_cache(maxsize=1)
def _real_leaf():
    """DER of a leaf issued under a root and an intermediate."""
    ca = CertificateAuthority("Fuzz Trust", is_public_trust=True,
                              rng=random.Random(5),
                              intermediate_names=("Fuzz Trust CA 1",),
                              now=1_600_000_000)
    leaf, _key = ca.issue_leaf(
        "api.vendor.example", now=1_650_000_000,
        san_dns_names=("api.vendor.example", "*.vendor.example"),
        subject_organization="Vendor")
    return leaf.to_der()


def _tag_offsets(data, base=0):
    """Offsets of every identifier octet in a well-formed DER blob."""
    offsets, pos = [], 0
    while pos < len(data):
        tag, content, end = asn1._read_tlv(data, pos)
        offsets.append(base + pos)
        if tag & asn1.Tag.CONSTRUCTED:
            offsets += _tag_offsets(content, base + end - len(content))
        pos = end
    return offsets


@st.composite
def leaf_mutants(draw):
    """The real leaf after one to three truncations, byte edits, or
    flips of the constructed bit of one of its tags."""
    der = bytearray(_real_leaf())
    tags = _tag_offsets(_real_leaf())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("truncate", "edit", "flip")))
        if not der:
            break
        if kind == "truncate":
            del der[draw(st.integers(0, len(der) - 1)):]
        elif kind == "edit":
            der[draw(st.integers(0, len(der) - 1))] = \
                draw(st.integers(0, 255))
        else:
            offset = draw(st.sampled_from(tags))
            if offset < len(der):
                der[offset] ^= asn1.Tag.CONSTRUCTED
    return bytes(der)


class TestCertificateDecodeFuzz:
    """Structure-aware mutants of a real leaf: ``Certificate.from_der``
    either decodes them or fails inside the x509 error taxonomy."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(blob=leaf_mutants())
    def test_every_failure_is_an_x509_error(self, blob):
        try:
            Certificate.from_der(blob)
        except X509Error:
            pass


@st.composite
def edited(draw, original, element):
    """``original`` as a list after one to three single-item
    replacements, insertions or deletions; ``element`` draws new items."""
    items = list(original)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if kind == "insert":
            items.insert(draw(st.integers(0, len(items))), draw(element))
        elif items:
            pos = draw(st.integers(0, len(items) - 1))
            if kind == "replace":
                items[pos] = draw(element)
            else:
                del items[pos]
    return items


def _hello_bytes():
    """A GREASE-decorated ClientHello handshake message with an SNI."""
    return ClientHello(version=TLSVersion.TLS_1_2,
                       ciphersuites=[0x0A0A, 0xC02B, 0xC02F, 0x009E, 0x002F],
                       extensions=[0x1A1A, 10, 11, 13, 16, 43],
                       sni="api.vendor.example", random=bytes(range(32)),
                       session_id=b"\x07" * 8).to_bytes()


def _prometheus_page():
    """Exposition text with every metric kind and an escaped label."""
    registry = MetricsRegistry()
    registry.counter("probe.attempts").inc(42)
    registry.gauge("serve.ratio").set(0.25)
    registry.family("serve.errors").inc('quote"back\\slash\nline', 2)
    latency = registry.histogram("http.latency_ms",
                                 ((1.0, "<1ms"), (float("inf"), ">=1ms")))
    for ms in (0.5, 3.0):
        latency.observe(ms)
    return render_prometheus(registry.snapshot())


def _capture_text():
    """Two anonymized-capture JSONL rows, one with a GREASE suite."""
    first = ClientHelloRecord(
        device_id="acme-0001", vendor="Acme", device_type="camera",
        user_id="u-17", timestamp=1_600_000_000,
        tls_version=TLSVersion.TLS_1_2, ciphersuites=(0x0A0A, 0xC02F, 10),
        extensions=(0, 10, 11), sni="api.acme.example")
    second = dataclasses.replace(first, vendor="Bolt", sni=None,
                                 ciphersuites=(0x0035,))
    return "".join(json.dumps(record.to_json()) + "\n"
                   for record in (first, second))


@functools.lru_cache(maxsize=1)
def _vendor_model():
    """A two-class vendor model fitted on two fingerprints."""
    import numpy as np

    from repro.ml import (FeatureExtractor, LogisticOVR, MLParams,
                          MultinomialNB)
    from repro.ml.pipeline import AttributionModel
    extractor = FeatureExtractor(width=64, seed=17)
    X = extractor.matrix([(0x0303, (0x0A0A, 0xC02F, 10), (0, 10, 11)),
                          (0x0303, (0x0035,), (0, 10, 11))])
    y = np.array([0, 1])
    return AttributionModel(
        params=MLParams(target="vendor", width=64, iters=20),
        extractor=extractor, classes=("Acme", "Bolt"),
        nb=MultinomialNB().fit(X, y, 2),
        lr=LogisticOVR(iters=20).fit(X, y, 2),
        artifact_digest="0" * 64, counts={"examples": 2})


HELLO_MUTANTS = edited(_hello_bytes(), st.integers(0, 255)).map(bytes)
PROMETHEUS_MUTANTS = edited(_prometheus_page(), st.characters()).map("".join)
CAPTURE_MUTANTS = edited(_capture_text(), st.characters()).map("".join)
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestCleanParserFuzz:
    """Parsers that a mutation census found clean stay clean: a valid
    input one to three edits away either parses or fails with the
    parser's own error."""

    @FUZZ
    @given(blob=HELLO_MUTANTS)
    def test_client_hello_raises_only_tls_parse_error(self, blob):
        try:
            ClientHello.from_bytes(blob)
        except TLSParseError:
            pass

    @FUZZ
    @given(blob=HELLO_MUTANTS)
    def test_handshake_messages_raise_only_tls_parse_error(self, blob):
        try:
            list(iter_handshake_messages(blob))
        except TLSParseError:
            pass

    @FUZZ
    @given(text=PROMETHEUS_MUTANTS)
    def test_prometheus_parser_raises_only_value_error(self, text):
        try:
            parse_prometheus(text)
        except ValueError:
            pass

    @FUZZ
    @given(text=CAPTURE_MUTANTS)
    def test_capture_rows_raise_only_value_error(self, text):
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                ClientHelloRecord.from_json(json.loads(line))
            except ValueError:
                pass

    @FUZZ
    @given(text=CAPTURE_MUTANTS)
    def test_capture_eval_raises_only_value_error(self, text):
        from repro.ml import evaluate_capture
        try:
            rows = [json.loads(line) for line in text.splitlines()
                    if line.strip()]
            evaluate_capture(_vendor_model(), rows)
        except ValueError:
            pass


class TestJaccardProperties:
    sets = st.sets(st.integers(min_value=0, max_value=50), max_size=20)

    @SLOW
    @given(a=sets, b=sets)
    def test_bounds(self, a, b):
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0

    @SLOW
    @given(a=sets, b=sets)
    def test_symmetry(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)

    @SLOW
    @given(a=sets)
    def test_identity(self, a):
        assert jaccard(a, a) == (1.0 if a else 0.0)

    @SLOW
    @given(a=sets, b=sets)
    def test_one_iff_equal(self, a, b):
        if jaccard(a, b) == 1.0:
            assert a == b

    @SLOW
    @given(a=sets, b=sets)
    def test_vector_jaccard_matches_set_reference(self, a, b):
        # Same contract, same floats: popcounts and set cardinalities
        # are the same integers, so the ratios are bit-identical.
        from repro.match import FeatureSpace, FingerprintVector
        space = FeatureSpace()
        vec_a = FingerprintVector.from_tokens(a, space)
        vec_b = FingerprintVector.from_tokens(b, space)
        value = vec_a.jaccard(vec_b)
        assert value == jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == vec_b.jaccard(vec_a)
        assert vec_a.jaccard(vec_a) == (1.0 if a else 0.0)


class TestStackDerivationProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           hygiene=st.floats(min_value=0.0, max_value=1.0),
           mutation=st.sampled_from(["extensions", "reorder", "component",
                                     "similar", "custom"]))
    def test_derived_stack_invariants(self, seed, hygiene, mutation):
        from repro.inspector.stacks import StackFactory
        from repro.libraries import openssl
        from repro.tlslib.versions import TLSVersion as V
        base = openssl.fingerprint_for("1.0.1u")
        stack = StackFactory(seed=seed).derive(
            base, "prop", mutation=mutation, hygiene=hygiene,
            scope=(seed,))
        assert stack.ciphersuites, "suite list never empty"
        assert len(set(stack.ciphersuites)) == len(stack.ciphersuites), \
            "no duplicate suites"
        assert stack.tls_version != V.TLS_1_3, "no TLS 1.3 in the study era"

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_derivation_deterministic(self, seed):
        from repro.inspector.stacks import StackFactory
        from repro.libraries import mbedtls
        base = mbedtls.fingerprint_for("2.16.4")
        one = StackFactory(seed=seed).derive(base, "p", mutation="custom",
                                             scope=("s",))
        two = StackFactory(seed=seed).derive(base, "p", mutation="custom",
                                             scope=("s",))
        assert one.ciphersuites == two.ciphersuites
        assert one.extensions == two.extensions


class TestCTProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(count=st.integers(min_value=1, max_value=12),
           index=st.integers(min_value=0, max_value=11))
    def test_inclusion_proofs(self, count, index):
        from repro.x509.certificate import sign_certificate
        from repro.x509.ct import CTLog
        from repro.x509.keys import generate_keypair
        from repro.x509.names import DistinguishedName
        index = index % count
        key = generate_keypair(512, rng=random.Random(1))
        issuer = DistinguishedName(common_name="Prop CA")
        log = CTLog("prop")
        certs = []
        for i in range(count):
            cert = sign_certificate(
                serial=i + 1,
                subject=DistinguishedName(common_name=f"h{i}.example"),
                issuer=issuer, issuer_keypair=key, not_before=0,
                not_after=86400, public_key=key.public)
            log.submit(cert)
            certs.append(cert)
        proof = log.prove_inclusion(certs[index])
        assert log.verify_inclusion(certs[index], proof)
        # And the proof never verifies a different certificate.
        other = certs[(index + 1) % count]
        if other.fingerprint() != certs[index].fingerprint():
            assert not log.verify_inclusion(other, proof)


class TestDoCProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_doc_in_unit_interval(self, data):
        from repro.core.customization import doc_device, doc_vendor
        from repro.inspector.dataset import InspectorDataset
        from tests.conftest import make_record
        n = data.draw(st.integers(min_value=1, max_value=12))
        records = []
        for i in range(n):
            vendor = data.draw(st.sampled_from(["V1", "V2", "V3"]))
            device = f"{vendor}-d{data.draw(st.integers(0, 3))}"
            suites = tuple(sorted(data.draw(
                st.sets(st.sampled_from([0x2F, 0x35, 0x0A, 0xC02F]),
                        min_size=1, max_size=3))))
            records.append(make_record(device=device, vendor=vendor,
                                       suites=suites))
        ds = InspectorDataset(records)
        for vendor in ds.vendor_names():
            assert 0.0 <= doc_vendor(ds, vendor) <= 1.0
        for device in ds.device_ids():
            assert 0.0 <= doc_device(ds, device) <= 1.0


def _dataset_view(ds):
    """Every accessor's answer, over the keys the dataset knows."""
    fps = ds.fingerprints()
    vendors = ds.vendor_names()
    devices = ds.device_ids()
    snis = ds.snis()
    return {
        "len": len(ds),
        "user_count": ds.user_count,
        "fingerprints": fps,
        "vendor_names": vendors,
        "vendors_of_fp": {fp: ds.fingerprint_vendors(fp) for fp in fps},
        "devices_of_fp": {fp: ds.fingerprint_devices(fp) for fp in fps},
        "fps_of_vendor": {v: ds.vendor_fingerprints(v) for v in vendors},
        "devices_of_vendor": {v: ds.devices_of_vendor(v)
                              for v in vendors},
        "fps_of_device": {d: ds.device_fingerprints(d) for d in devices},
        "snis": snis,
        "sni_fingerprints": {s: ds.sni_fingerprints(s) for s in snis},
        "sni_devices": {s: ds.sni_devices(s) for s in snis},
        "sni_device_fingerprints": {s: ds.sni_device_fingerprints(s)
                                    for s in snis},
        "sni_users": {s: ds.sni_users(s) for s in snis},
    }


class TestDatasetFoldProperties:
    """Extending a dataset chunk by chunk equals building it at once."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_chunked_extend_equals_single_build(self, data):
        from repro.inspector.dataset import InspectorDataset
        from tests.conftest import make_record
        n = data.draw(st.integers(min_value=0, max_value=16))
        records = []
        for _ in range(n):
            vendor = data.draw(st.sampled_from(["V1", "V2", "V3"]))
            device = f"{vendor}-d{data.draw(st.integers(0, 3))}"
            suites = tuple(sorted(data.draw(
                st.sets(st.sampled_from([0x2F, 0x35, 0x0A, 0xC02F]),
                        min_size=1, max_size=3))))
            records.append(make_record(
                device=device, vendor=vendor,
                user=f"u{data.draw(st.integers(0, 2))}", suites=suites,
                sni=data.draw(st.sampled_from(
                    [None, "", "a.example.com", "b.example.net"]))))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
        bounds = [0] + cuts + [n]
        chunks = [records[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        grown = InspectorDataset(chunks[0])
        for chunk in chunks[1:]:
            grown.extend(chunk)
        whole = InspectorDataset(records)
        assert grown.records == whole.records
        assert _dataset_view(grown) == _dataset_view(whole)


class TestFabricLeaseProperties:
    """The fabric scheduling invariant, under adversarial schedules.

    Random grids, worker counts, and interleavings of complete / fail /
    abandon (a lease left to expire, i.e. a dead worker) — followed by
    a coordinator restart from the persisted ledger — must always end
    with every expanded unit completed exactly once: no duplicates in
    the ledger, no lost units, no unit accepted twice.
    """

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_every_unit_completes_exactly_once_across_resume(self,
                                                             data):
        import tempfile
        from collections import Counter
        from pathlib import Path

        from repro.config import StudyConfig
        from repro.fabric import FabricCoordinator
        from repro.store.campaign import CampaignIndex
        from repro.sweep import expand_grid

        seeds = data.draw(st.integers(1, 3), label="seeds")
        grid = data.draw(st.sampled_from(
            (("seeds",), ("seeds", "stores"), ("seeds", "faults"))),
            label="grid")
        workers = data.draw(st.integers(1, 4), label="workers")
        units = expand_grid(StudyConfig(), seeds=seeds, grid=grid,
                            stage="probe")
        specs = [unit.to_json() for unit in units]
        all_keys = {spec["key"] for spec in specs}

        class Clock:
            now = 1000.0

            def __call__(self):
                return Clock.now

        accepted = Counter()

        def finish(coordinator, lease):
            reply = coordinator.complete(
                lease["lease"],
                {"name": lease["unit"]["name"],
                 "key": lease["unit"]["key"], "ok": True})
            if not reply["duplicate"]:
                accepted[lease["unit"]["key"]] += 1

        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "campaign.json"
            index = CampaignIndex.create(path, specs, "probe")
            first = FabricCoordinator(index, lease_seconds=10.0,
                                      max_attempts=100, clock=Clock())
            # Phase 1: an adversarial partial run, then a hard stop.
            steps = data.draw(st.integers(0, 2 * len(specs)),
                              label="phase1_steps")
            for _ in range(steps):
                who = f"w{data.draw(st.integers(0, workers - 1))}"
                lease = first.lease(who)
                if lease["unit"] is None:
                    if lease["done"]:
                        break
                    Clock.now += 11.0  # let abandoned leases lapse
                    continue
                outcome = data.draw(st.sampled_from(
                    ("complete", "abandon", "fail")), label="outcome")
                if outcome == "complete":
                    finish(first, lease)
                elif outcome == "fail":
                    first.fail(lease["lease"], "injected failure")
                else:
                    Clock.now += 10.5  # the worker dies mid-unit

            # Phase 2: restart from the persisted ledger and drain.
            resumed_index = CampaignIndex.load(path)
            resumed = FabricCoordinator(resumed_index,
                                        lease_seconds=10.0,
                                        max_attempts=100, clock=Clock())
            for _ in range(4 * len(specs) + 4):
                lease = resumed.lease("resumer")
                if lease["unit"] is None:
                    assert lease["done"]
                    break
                finish(resumed, lease)

            assert set(resumed_index.completed) == all_keys  # none lost
            assert not resumed_index.failed  # retries cleared them all
            assert accepted == Counter({key: 1 for key in all_keys})
            assert resumed.done()


#: JSON object keys; the fixed ones collide with the ordinary unit's,
#: so accepted values get aggregated together with it.
json_key = st.one_of(st.sampled_from(("match_rate", "Acme")),
                     st.text(max_size=6))
json_leaf = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.text(max_size=6))
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_key, inner, max_size=4),
    max_leaves=12)
#: near misses of the shapes the aggregator reads, so the accepted
#: branch sees many values too.
result_field = st.one_of(
    json_value,
    st.dictionaries(json_key, json_leaf, max_size=4),
    st.lists(st.fixed_dictionaries({"name": json_leaf, "ok": json_leaf}),
             max_size=3),
    st.fixed_dictionaries({"ok": json_leaf, "checks": json_value}))


class TestSweepResultProperties:
    """A completion is either a 400 or a result the sweep report reads.

    Any JSON value at ``scalars``, ``issuer_shares``, ``invariants`` or
    ``invariants.checks`` of a completed unit, next to an ordinary
    completed unit: the coordinator rejects it with a one-line 400, or
    the reloaded ledger aggregates into a report that renders and
    serializes.
    """

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(where=st.sampled_from(("scalars", "issuer_shares",
                                  "invariants", "invariants.checks")),
           value=result_field)
    # the shape a worker sent in the reproduced crash, and numbers whose
    # squared spread around the ordinary unit's overflows a float
    @example(where="scalars", value=[1])
    @example(where="scalars", value={"match_rate": 1e200})
    @example(where="issuer_shares", value={"Acme": 10 ** 400})
    def test_completion_is_rejected_or_aggregates(self, where, value):
        import json
        import tempfile
        from pathlib import Path

        from repro.fabric import FabricCoordinator
        from repro.http import HTTPError
        from repro.store.campaign import CampaignIndex
        from repro.sweep import SweepAggregator

        def result_for(unit):
            return {"name": unit["name"], "key": unit["key"], "ok": True,
                    "scalars": {"match_rate": 0.026,
                                "validity_max_days": 825.0},
                    "issuer_shares": {"Acme": 0.5},
                    "invariants": {"ok": True, "checks": [
                        {"name": "match_rate_band", "ok": True}]}}

        specs = [{"name": f"u{i}", "key": f"{i:064x}", "stage": "full"}
                 for i in range(2)]
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "campaign.json"
            coordinator = FabricCoordinator(
                CampaignIndex.create(path, specs, "full"))
            ordinary = coordinator.lease("w")
            coordinator.complete(ordinary["lease"],
                                 result_for(ordinary["unit"]))
            lease = coordinator.lease("w")
            result = result_for(lease["unit"])
            if where == "invariants.checks":
                result["invariants"]["checks"] = value
            else:
                result[where] = value
            # exactly what the coordinator reads off the wire
            result = json.loads(json.dumps(result))
            try:
                coordinator.complete(lease["lease"], result)
            except HTTPError as exc:
                assert exc.status == 400
                assert "\n" not in exc.message
                assert lease["unit"]["key"] not in \
                    coordinator.index.completed
                return
            report = SweepAggregator.from_index(
                CampaignIndex.load(path)).report()
            assert report.units_completed == 2
            report.render()
            json.dumps(report.to_json())
