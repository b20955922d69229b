"""The remote artifact-store backend: content-addressed blobs over HTTP.

A sweep campaign sharded across machines cannot share an on-disk
:class:`~repro.store.artifact.ArtifactStore` root, so the fabric
coordinator (:mod:`repro.fabric`) serves the store's raw ``.art`` blobs
over a two-verb HTTP interface and workers talk to it through
:class:`RemoteArtifactStore`:

- ``GET /blob/<key>`` — the raw blob bytes, 404 when absent;
- ``PUT /blob/<key>`` — upload one blob; the server re-derives the
  content key from the blob's own header and rejects any mismatch, so
  a client can never plant bytes under a key it does not own.

The client inherits the local store's whole surface (``key``/``get``/
``put``/``get_or_compute``/``provenance``, from
:class:`~repro.store.artifact.StoreBase`) and with it the failure
discipline: **every defect degrades to a retriable miss, never to wrong
bytes.**  A truncated response, a checksum mismatch, a version-skewed
header, an HTTP 5xx, or an unreachable server all count a miss (with a
taxonomy counter) and the caller recomputes.  What this module adds is
only the transport: GET and PUT through :func:`repro.http.request`,
fronted by a deterministic :class:`BlobCache` LRU, plus :meth:`ping
<RemoteArtifactStore.ping>`.

LRU hits are served from memory without a round trip (a warm worker
keeps working through a coordinator restart), and insertion order +
access order fully determine eviction order.  Every read, from the LRU
or from the network, is decoded and checked before use, and the LRU
only ever admits blobs that passed: a defective download never evicts
a good entry, and a corrupt hit cannot happen.
"""

import threading
from collections import OrderedDict

from repro import obs
from repro.http import TransportError, request
from repro.store.artifact import StoreBase

#: default number of blobs the client-side LRU holds.
DEFAULT_CACHE_ENTRIES = 64


class StoreUnreachable(RuntimeError):
    """The remote store's endpoint cannot be reached (one-line message)."""


class BlobCache:
    """A deterministic LRU of raw blobs, keyed by content key.

    Eviction is a pure function of the put/get sequence: ``put`` moves
    (or inserts) the key at the most-recent end, ``get`` refreshes it,
    and overflow evicts the least-recently-used key.  ``evicted``
    records the eviction order for tests and provenance.
    """

    def __init__(self, capacity=DEFAULT_CACHE_ENTRIES):
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        #: content keys evicted so far, oldest first.
        self.evicted = []

    def get(self, key):
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
            return blob

    def put(self, key, blob):
        with self._lock:
            self._entries[key] = blob
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self.evicted.append(evicted)

    def discard(self, key):
        with self._lock:
            self._entries.pop(key, None)

    def keys(self):
        """Current keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self):
        with self._lock:
            return len(self._entries)


class RemoteArtifactStore(StoreBase):
    """The HTTP artifact-store client (drop-in for ``ArtifactStore``).

    Speaks the same ``.art`` wire format as the local store — the same
    magic line, header, and payload SHA-256 — so digests and cache keys
    are byte-identical across backends, which is what lets a campaign
    move between ``--store-backend local`` and ``http`` mid-flight.
    :meth:`put` returns the content key where the local store returns a
    path.
    """

    def __init__(self, base_url, version=None,
                 cache_entries=DEFAULT_CACHE_ENTRIES, timeout=10.0):
        super().__init__(version)
        self.base_url = str(base_url).rstrip("/")
        self.timeout = timeout
        self.cache = BlobCache(cache_entries)

    # -- the store hooks: the LRU, then the network ---------------------------

    def _read(self, key):
        blob = self.cache.get(key)
        if blob is not None:
            return blob
        status, blob = self._exchange("GET", key)
        return blob if status == 200 else None

    def _verified(self, key, blob, stage):
        """Count an LRU hit, or admit a download — only once it decoded."""
        if self.cache.get(key) is blob:  # _read served this very object
            obs.incr("store.lru_hits", key=stage)
        else:
            self.cache.put(key, blob)

    def _write(self, key, blob):
        """Upload one blob; its key, or ``None`` if the server refused.

        A failed upload is *not* admitted to the LRU, so a later ``get``
        retries the network instead of serving a value the rest of the
        cluster never saw.
        """
        status, _ = self._exchange("PUT", key, blob)
        if status != 200:
            return None
        self.cache.put(key, blob)
        return key

    def _forget(self, key):
        self.cache.discard(key)

    def _exchange(self, method, key, blob=None):
        """One blob request: ``(status, body)``, ``(None, None)`` if dead.

        Every failure but a plain 404 miss counts in the
        ``store.remote_errors`` taxonomy.
        """
        verb = method.lower()
        try:
            status, body = request(
                method, f"{self.base_url}/blob/{key}", body=blob,
                headers={"Content-Type": "application/octet-stream"},
                timeout=self.timeout)
        except TransportError:
            obs.incr("store.remote_errors", key=f"{verb}:unreachable")
            return None, None
        if status != 200 and (verb, status) != ("get", 404):
            obs.incr("store.remote_errors", key=f"{verb}:{status}")
        return status, body

    def ping(self):
        """Probe the endpoint; raises :class:`StoreUnreachable` if dead."""
        try:
            status, _ = request("GET", f"{self.base_url}/fabric/ping",
                                timeout=self.timeout)
        except TransportError as exc:
            raise StoreUnreachable(
                f"store backend {self.base_url} is unreachable: "
                f"{exc}") from None
        if status != 200:
            raise StoreUnreachable(
                f"store backend {self.base_url} answered "
                f"HTTP {status} to a ping")
        return True

    def provenance(self):
        return dict(super().provenance(), url=self.base_url,
                    lru_entries=len(self.cache),
                    lru_evicted=len(self.cache.evicted))
