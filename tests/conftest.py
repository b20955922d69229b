"""Shared fixtures.

The full study (world generation + certificate issuance + probing) takes
~10 s, so it is built once per session and shared; unit tests use small
hand-built worlds instead.
"""

import os
import random
import time

import pytest

from repro import obs
from repro.inspector.dataset import InspectorDataset
from repro.inspector.model import ClientHelloRecord
from repro.study import get_study
from repro.tlslib.versions import TLSVersion


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Restore the process-global obs context after every test.

    One boot path, ``serve_study`` (the query server's ``/metrics``
    contract), calls ``obs.ensure_enabled()``, which installs an enabled
    context with no scope to restore — without this fixture the first
    test that boots a query server flips observability on for every
    test that runs after it.  Tests that deactivate obs on purpose rely
    on it too.
    """
    previous = obs.current()
    yield
    obs.deactivate(previous)


@pytest.fixture
def blas_env(monkeypatch):
    """Keep the BLAS thread variables ``worker_main`` pins to one test.

    ``worker_main`` sets them in the process that calls it; a test that
    calls it in-process restores them (set or not) afterwards.
    """
    from repro.fabric.worker import BLAS_THREAD_VARS
    for name in BLAS_THREAD_VARS:
        monkeypatch.setenv(name, os.environ.get(name, "1"))


@pytest.fixture(scope="session")
def study():
    """The memoized full study (seed 2023)."""
    return get_study()


@pytest.fixture(scope="session")
def dataset(study):
    return study.dataset


@pytest.fixture(scope="session")
def corpus(study):
    return study.corpus


@pytest.fixture(scope="session")
def network(study):
    return study.network


@pytest.fixture(scope="session")
def certificates(study):
    return study.certificates


@pytest.fixture(scope="session")
def survey(study, certificates):
    from repro.core.chains import validate_all
    from repro.inspector.timeline import PROBE_TIME
    return validate_all(certificates, study.validator(), at=PROBE_TIME)


@pytest.fixture
def rng():
    return random.Random(1234)


def make_record(device="dev-0", vendor="Acme", dtype="Camera",
                user="user-0", version=TLSVersion.TLS_1_2,
                suites=(0xC02F, 0x002F), extensions=(0, 10, 11),
                sni="api.acme.com", timestamp=1_560_000_000):
    """Build one ClientHelloRecord with overridable fields."""
    return ClientHelloRecord(
        device_id=device, vendor=vendor, device_type=dtype, user_id=user,
        timestamp=timestamp, tls_version=version,
        ciphersuites=tuple(suites), extensions=tuple(extensions), sni=sni)


@pytest.fixture
def mini_dataset():
    """A tiny hand-built dataset with known structure.

    - Acme: two devices; dev-a1 has a unique fingerprint, dev-a2 shares a
      fingerprint with Bolt's device (cross-vendor sharing).
    - Bolt: one device.
    - Both vendors also share the SDK fingerprint toward sdk.shared.net.
    """
    shared = dict(suites=(0xC02F, 0x000A), extensions=(0, 10))
    sdk = dict(suites=(0xC02B, 0xC02F), extensions=(0, 10, 16))
    records = [
        make_record(device="dev-a1", vendor="Acme", user="u1",
                    suites=(0x002F, 0x0035), sni="api.acme.com"),
        make_record(device="dev-a2", vendor="Acme", user="u2",
                    sni="api.acme.com", **shared),
        make_record(device="dev-b1", vendor="Bolt", user="u3",
                    sni="api.bolt.io", **shared),
        make_record(device="dev-a2", vendor="Acme", user="u2",
                    sni="cdn.shared.net", **sdk),
        make_record(device="dev-b1", vendor="Bolt", user="u3",
                    sni="cdn.shared.net", **sdk),
    ]
    return InspectorDataset(records)
