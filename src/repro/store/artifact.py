"""The content-addressed artifact store.

One cache entry per ``(config artifact digest, stage name, package
version)`` triple.  The triple is hashed into a single content key; the
entry lives at ``<root>/<key[:2]>/<key>.art`` as::

    repro-artifact/1\\n
    {"artifact": ..., "stage": ..., "version": ..., "sha256": ..., ...}\\n
    <pickled payload bytes>

Design invariants:

- **Keyed by meaning, not by flags.**  The key uses
  :meth:`repro.config.StudyConfig.artifact_digest`, which covers every
  config field (seed, trust stores) and nothing else, so ``probe`` and
  a later ``report`` over the same config share artifacts whatever
  their other flags.
- **Version-fenced.**  The package version participates in the key, so
  upgrading the code silently invalidates every cached artifact (old
  entries become unreachable; ``repro cache stats`` still counts them
  and ``repro cache clear`` removes them).
- **Corruption degrades to a miss.**  Reads verify the header and a
  SHA-256 of the payload; any mismatch (truncation, bit rot, a torn
  write) deletes the entry and reports a miss.  Writes go through a
  same-directory temp file and an atomic ``os.replace``, so a crashed
  writer can never leave a half-written entry under a live key.
- **Observable.**  ``get``/``put`` run inside ``store.get`` /
  ``store.put`` spans, hits and misses feed per-stage counter families
  (``store.hits`` / ``store.misses``), and :meth:`provenance`
  summarizes the run's cache traffic for the
  :class:`~repro.obs.manifest.RunManifest`.
"""

import hashlib
import io
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path

from repro import obs

_MAGIC = b"repro-artifact/1\n"
_SUFFIX = ".art"


class _Miss:
    """Sentinel for a cache miss (distinct from a cached ``None``)."""

    def __repr__(self):
        return "<repro.store.MISS>"

    def __bool__(self):
        return False


MISS = _Miss()


# -- the shared .art wire format ----------------------------------------------
#
# Both store backends — the local on-disk store below and the remote
# HTTP store (:mod:`repro.store.remote`) — speak exactly this format, so
# a blob written by one is byte-for-byte readable (and verifiable) by
# the other, and a blob server can validate uploads without knowing the
# config that produced them: the content key is recomputable from the
# header alone.

def content_key(artifact, stage, version):
    """The content key of an ``(artifact digest, stage, version)`` triple."""
    payload = {"artifact": artifact, "stage": stage, "version": version}
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_entry(artifact, stage, version, payload):
    """The full ``.art`` blob for a pickled ``payload`` byte string."""
    header = {
        "artifact": artifact,
        "stage": stage,
        "version": version,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "size": len(payload),
    }
    return (_MAGIC + json.dumps(header, sort_keys=True).encode("utf-8")
            + b"\n" + payload)


def read_entry(raw):
    """Parse + integrity-check a raw blob; ``(header, payload)`` or ``None``.

    Verifies the magic line and the payload SHA-256 against the header —
    truncation, bit rot, and torn writes all return ``None``.
    """
    buffer = io.BytesIO(raw)
    if buffer.readline() != _MAGIC:
        return None
    try:
        header = json.loads(buffer.readline().decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(header, dict):
        return None
    payload = buffer.read()
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        return None
    return header, payload


def decode_entry(raw, expected):
    """The cached value inside ``raw``, or :data:`MISS`.

    ``expected`` maps header fields (``artifact``/``stage``/``version``)
    to the values the caller's key was built from; any mismatch — the
    wrong blob, a version-skewed blob, a forged header — is a miss.
    """
    parsed = read_entry(raw)
    if parsed is None:
        return MISS
    header, payload = parsed
    if any(header.get(field) != value
           for field, value in expected.items()):
        return MISS
    try:
        return pickle.loads(payload)
    except Exception:
        return MISS


def blob_key_of(raw):
    """The content key a raw blob's own header claims, or ``None``.

    A blob server uses this to validate an upload end-to-end: the key
    recomputed from the header must equal the key the client addressed,
    and :func:`read_entry` has already checked the payload checksum.
    """
    parsed = read_entry(raw)
    if parsed is None:
        return None
    header, _ = parsed
    if not all(isinstance(header.get(field), str)
               for field in ("artifact", "stage", "version")):
        return None
    return content_key(header["artifact"], header["stage"],
                       header["version"])


class StoreBase:
    """The store surface both backends share: get/put over ``.art`` blobs.

    A backend supplies hooks over raw blobs: ``_read(key)`` returns the
    blob stored under ``key`` or ``None``; ``_write(key, blob)`` stores
    one and returns what :meth:`put` returns (``None`` on failure);
    ``_forget(key)`` drops a blob that failed its checks; and the
    optional ``_verified(key, blob, stage)`` hears of one that passed.
    Every blob ``_read`` returns is decoded and checked here before use,
    so a defective one is a miss — never a wrong value.
    """

    def __init__(self, version=None):
        from repro import __version__
        self.version = __version__ if version is None else str(version)
        self._lock = threading.Lock()
        #: per-run cache traffic, by stage name (for provenance).
        self.hit_stages = []
        self.miss_stages = []
        self.written_stages = []
        self.error_stages = []

    def key(self, config, stage):
        """The content key of ``(config, stage)`` under this version."""
        return content_key(config.artifact_digest(), stage, self.version)

    def get(self, config, stage):
        """The cached artifact for ``(config, stage)``, or :data:`MISS`.

        Any defect — absent or unreadable blob, header mismatch,
        checksum failure, unpicklable payload — is a miss; defective
        blobs are forgotten so they are rebuilt cleanly.
        """
        key = self.key(config, stage)
        with obs.span("store.get") as span:
            raw = self._read(key)
            if raw is None:
                return self._miss(stage)
            value = decode_entry(raw, {"artifact": config.artifact_digest(),
                                       "stage": stage,
                                       "version": self.version})
            if value is MISS:
                self._forget(key)
                obs.incr("store.corrupt", key=stage)
                return self._miss(stage)
            span.incr("bytes", len(raw))
            self._verified(key, raw, stage)
        self._record(self.hit_stages, "store.hits", stage)
        return value

    def _verified(self, key, raw, stage):
        """Hook: the blob ``_read`` returned for ``key`` passed its checks."""

    def _miss(self, stage):
        self._record(self.miss_stages, "store.misses", stage)
        return MISS

    def _record(self, stages, counter, stage):
        with self._lock:
            stages.append(stage)
        obs.incr(counter, key=stage)

    def put(self, config, stage, value):
        """Cache ``value`` for ``(config, stage)``.

        Returns where it landed (the backend's ``_write`` result), or
        ``None``.  Caching is best-effort: an unpicklable value or a
        failed write is counted and skipped, never fatal — the
        pipeline's correctness must not depend on the cache.
        """
        with obs.span("store.put") as span:
            try:
                payload = pickle.dumps(value,
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                where = None
            else:
                blob = encode_entry(config.artifact_digest(), stage,
                                    self.version, payload)
                where = self._write(self.key(config, stage), blob)
            if where is None:
                self._record(self.error_stages, "store.errors", stage)
                return None
            span.incr("bytes", len(blob))
        self._record(self.written_stages, "store.writes", stage)
        return where

    def get_or_compute(self, config, stage, compute):
        """``get``, falling back to ``compute()`` + ``put`` on a miss."""
        value = self.get(config, stage)
        if value is MISS:
            value = compute()
            self.put(config, stage, value)
        return value

    def provenance(self):
        """This run's cache traffic, for the run manifest."""
        with self._lock:
            return {
                "version": self.version,
                "hits": sorted(self.hit_stages),
                "misses": sorted(self.miss_stages),
                "writes": sorted(self.written_stages),
                "errors": sorted(self.error_stages),
            }


class ArtifactStore(StoreBase):
    """A persistent content-addressed cache of study artifacts."""

    def __init__(self, root, version=None):
        super().__init__(version)
        self.root = Path(root)

    def blob_path(self, key):
        """Where the raw ``.art`` blob for ``key`` lives under this root."""
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    # -- the store hooks: one file per blob -----------------------------------

    def _write(self, key, blob):
        """Atomically write one blob (temp file + rename); its path."""
        path = self.blob_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                dir=path.parent, prefix=".tmp-", delete=False)
            with handle:
                handle.write(blob)
            os.replace(handle.name, path)
        except OSError:
            return None
        return path

    def _forget(self, key):
        self._discard(self.blob_path(key))

    @staticmethod
    def _discard(path):
        try:
            path.unlink()
        except OSError:
            pass

    # -- raw blob access (the remote-store server side) -----------------------

    def read_raw(self, key):
        """The raw ``.art`` bytes stored under ``key``, or ``None``."""
        try:
            return self.blob_path(key).read_bytes()
        except OSError:
            return None

    _read = read_raw  # the store hook

    def write_raw(self, key, raw):
        """Store an uploaded blob after end-to-end validation.

        The blob must parse, pass its payload checksum, and its header
        must hash back to exactly ``key`` — a remote client can never
        plant bytes under a key they do not own.  Returns ``True`` when
        the blob landed.
        """
        if blob_key_of(raw) != key:
            return False
        return self._write(key, raw) is not None

    # -- inspection / maintenance ---------------------------------------------

    def _entry_paths(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{_SUFFIX}"))

    def entries(self):
        """Header metadata of every readable entry (any version)."""
        headers = []
        for path in self._entry_paths():
            try:
                with open(path, "rb") as handle:
                    if handle.readline() != _MAGIC:
                        continue
                    header = json.loads(
                        handle.readline().decode("utf-8"))
            except (OSError, UnicodeDecodeError, ValueError):
                continue
            header["path"] = str(path)
            headers.append(header)
        return headers

    def stats(self):
        """Aggregate cache statistics (entry counts, bytes, breakdowns)."""
        entries = self.entries()
        by_stage = {}
        by_version = {}
        total_bytes = 0
        for header in entries:
            size = header.get("size", 0)
            total_bytes += size
            stage = header.get("stage", "?")
            by_stage[stage] = by_stage.get(stage, 0) + 1
            version = header.get("version", "?")
            by_version[version] = by_version.get(version, 0) + 1
        return {
            "dir": str(self.root),
            "version": self.version,
            "entries": len(entries),
            "bytes": total_bytes,
            "by_stage": dict(sorted(by_stage.items())),
            "by_version": dict(sorted(by_version.items())),
        }

    def clear(self):
        """Delete every entry (all versions); returns how many."""
        removed = 0
        for path in self._entry_paths():
            self._discard(path)
            removed += 1
        if self.root.is_dir():
            for stray in self.root.glob("*/.tmp-*"):
                self._discard(stray)
        return removed

    def provenance(self):
        return dict(super().provenance(), dir=str(self.root))
