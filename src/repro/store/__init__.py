"""``repro.store`` — persistent artifacts and the analysis scheduler.

Large-scan pipelines (ZMap-style measurement, the DoH-IoT capture →
analyze split) never recompute an expensive artifact twice: the scan is
written once and every analysis reads it back.  This package gives the
reproduction the same shape:

- :class:`~repro.store.artifact.ArtifactStore` — a content-addressed
  on-disk cache keyed by ``(StudyConfig.artifact_digest(), stage,
  package version)``.  Every expensive artifact — the ClientHello
  capture, the three-vantage certificate dataset, the chain-validation
  survey, each individual analysis result — is stored once and reused by
  any later command with an equivalent config, so a warm ``repro
  report`` after ``repro probe`` is near-instant.  Entries carry a
  payload checksum; corruption, partial writes, and version mismatches
  all degrade to a cache miss, never to wrong bytes.
- :class:`~repro.store.scheduler.AnalysisScheduler` — executes a
  declarative registry of :class:`~repro.store.scheduler.AnalysisSpec`
  nodes in their declaration order, which follows the dependencies, and
  every node transparently consults the store before computing.
- :class:`~repro.store.campaign.CampaignIndex` — the atomic (temp file +
  rename, like ``.art`` entries) campaign-level ledger a multi-config
  sweep (:mod:`repro.sweep`) writes after every finished unit, so a
  killed campaign resumes by re-running only incomplete configs.
- :class:`~repro.store.remote.RemoteArtifactStore` — the HTTP client for
  a store served by the fabric coordinator (:mod:`repro.fabric`).  It
  shares the local store's ``get``/``put``/provenance code
  (:class:`~repro.store.artifact.StoreBase`) and adds only the
  transport: GET/PUT over :mod:`repro.http` behind a deterministic
  in-memory LRU that admits only checked blobs.  Every read is checked
  before use, so every defect degrades to a retriable miss.
  :func:`~repro.store.backend.store_from_spec` turns the JSON backend
  spec a campaign ledger records into whichever store it names.
"""

from repro.store.artifact import MISS, ArtifactStore, blob_key_of, \
    content_key, decode_entry, encode_entry, read_entry
from repro.store.backend import http_spec, local_spec, store_from_spec
from repro.store.campaign import CampaignIndex, campaign_id_for
from repro.store.remote import BlobCache, RemoteArtifactStore, \
    StoreUnreachable
from repro.store.scheduler import AnalysisScheduler, AnalysisSpec

__all__ = ["MISS", "AnalysisScheduler", "AnalysisSpec", "ArtifactStore",
           "BlobCache", "CampaignIndex", "RemoteArtifactStore",
           "StoreUnreachable", "blob_key_of", "campaign_id_for",
           "content_key", "decode_entry", "encode_entry", "http_spec",
           "local_spec", "read_entry", "store_from_spec"]
