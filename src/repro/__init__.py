"""Reproduction of "Behind the Scenes: Uncovering TLS and Server
Certificate Practice of IoT Device Vendors in the Wild" (IMC 2023).

This top level is the curated public surface: importing from ``repro``
alone is enough to configure and run a study (:class:`StudyConfig`,
:func:`get_study`, :func:`run_full_study`), cache its artifacts
(:class:`ArtifactStore`), sweep it across seeds (:class:`SweepRunner`,
:func:`expand_grid`), stream-ingest and serve it (:class:`Ingester`,
:class:`TimelineStream`, :func:`serve_study`, :func:`run_load`), and
match/compare fingerprints at scale (:class:`SimilarityIndex`,
:class:`CorpusIndex`, :class:`FingerprintVector`).
Everything else is internal layout and may move between releases.
"""

#: Package version; recorded in every run manifest (keep in sync with
#: pyproject.toml).
__version__ = "1.0.0"

from repro.config import DEFAULT_SEED, StudyConfig
from repro.core.pipeline import run_full_study
from repro.ingest.ingester import Ingester
from repro.ingest.loadgen import run_load
from repro.ingest.server import serve_study
from repro.ingest.stream import TimelineStream
from repro.match import CorpusIndex, FingerprintVector, SimilarityIndex
from repro.schema import SCHEMA_VERSION
from repro.store.artifact import ArtifactStore
from repro.study import Study, get_study
from repro.sweep.grid import expand_grid
from repro.sweep.runner import SweepRunner

__all__ = [
    "ArtifactStore",
    "CorpusIndex",
    "DEFAULT_SEED",
    "FingerprintVector",
    "Ingester",
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
]
