"""Streaming ingestion + query serving over the capture timeline.

The batch pipeline (:mod:`repro.core.pipeline`) answers the paper's
questions over the whole 16-month capture at once.  This package
re-presents the same capture as a time-ordered stream
(:class:`TimelineStream`), folds it window by window into a growing
:class:`~repro.inspector.dataset.InspectorDataset` under an
:class:`Ingester` that compacts the dataset into the artifact store (so
a killed ingester resumes), and serves the batch analyses over that
dataset (:mod:`repro.ingest.snapshots`) through a stdlib-only HTTP/JSON
API (:func:`serve_study`, i.e. ``repro serve``).  Both views run the
same analysis code, so the served numbers equal the report's once the
stream is absorbed.
"""

from repro.ingest.ingester import CHECKPOINT_STAGE, Ingester
from repro.ingest.loadgen import run_load
from repro.ingest.server import (API_VERSION, QueryService, make_server,
                                 serve_study)
from repro.ingest.snapshots import ANALYSIS_NAMES, fingerprint_id
from repro.ingest.stream import (DEFAULT_WINDOW_SECONDS, TimelineStream,
                                 Window)

__all__ = [
    "ANALYSIS_NAMES",
    "API_VERSION",
    "CHECKPOINT_STAGE",
    "DEFAULT_WINDOW_SECONDS",
    "Ingester",
    "QueryService",
    "TimelineStream",
    "Window",
    "fingerprint_id",
    "make_server",
    "run_load",
    "serve_study",
]
