"""One-stop study context: the world, its capture, and its probes.

Building the world and probing 1,151 servers takes a few seconds; tests,
benchmarks, and examples share a memoized :class:`Study` per
:class:`~repro.config.StudyConfig` instead of regenerating.  Expensive
config-independent artifacts (the world, the simulated network, the
library corpus) are additionally memoized per *seed*, so two configs that
differ only in trust-store selection share them.

A study may also carry a persistent
:class:`~repro.store.artifact.ArtifactStore`
(:meth:`Study.attach_store`): the capture, the library corpus and the
certificate dataset are then read from / written to the cache, so a
fresh process with a warm cache skips world generation, corpus
building and probing entirely.

The constructor is config-first: pass a :class:`StudyConfig` (or
nothing, for the default config).  Anything else — such as a bare seed,
``get_study(7)`` — raises :class:`TypeError`.
"""

from functools import lru_cache

from repro import obs
from repro.config import DEFAULT_SEED, MAJOR_STORES, StudyConfig
from repro.inspector.dataset import InspectorDataset
from repro.inspector.generator import WorldGenerator
from repro.libraries.corpus import build_default_corpus
from repro.probing.engine import ProbeEngine
from repro.probing.network import SimulatedNetwork
from repro.store.artifact import MISS
from repro.x509.validation import ChainValidator

__all__ = ["DEFAULT_SEED", "Study", "StudyConfig", "get_study"]


@lru_cache(maxsize=4)
def _world_for_seed(seed):
    return WorldGenerator(seed=seed).generate()


@lru_cache(maxsize=4)
def _network_for_seed(seed):
    return SimulatedNetwork(_world_for_seed(seed))


@lru_cache(maxsize=1)
def _shared_corpus():
    return build_default_corpus()


def _config_or_default(config, caller):
    """``config`` itself, or the default config for ``None``.

    Anything but a :class:`StudyConfig` fails here with a
    :class:`TypeError`, not as an ``AttributeError`` deep in a build.
    """
    if config is None:
        return StudyConfig(seed=DEFAULT_SEED)
    if not isinstance(config, StudyConfig):
        raise TypeError(f"{caller}() takes a StudyConfig, not "
                        f"{type(config).__name__}")
    return config


class Study:
    """Lazily-built handles to every artifact of one study run."""

    def __init__(self, config=None, store=None):
        self.config = _config_or_default(config, "Study")
        self.seed = self.config.seed
        self.store = store
        self._world = None
        self._dataset = None
        self._corpus = None
        self._network = None
        self._certificates = None
        self._trust_store = None

    def attach_store(self, store):
        """Attach (or detach, with ``None``) an artifact store."""
        self.store = store
        return self

    def _cached(self, stage):
        if self.store is None:
            return MISS
        return self.store.get(self.config, stage)

    def _store_put(self, stage, value):
        if self.store is not None:
            self.store.put(self.config, stage, value)

    @property
    def world(self):
        if self._world is None:
            with obs.span("study.world"):
                self._world = _world_for_seed(self.seed)
        return self._world

    @property
    def dataset(self):
        """The ClientHello capture (client-side analyses, Section 4).

        Store-backed: with an attached artifact store, a cached capture
        is reused without generating the world.
        """
        if self._dataset is None:
            with obs.span("study.dataset") as span:
                dataset = self._cached("capture")
                if dataset is MISS:
                    dataset = InspectorDataset.from_world(self.world)
                    self._store_put("capture", dataset)
                self._dataset = dataset
                span.incr("records", len(dataset.records))
        return self._dataset

    @property
    def corpus(self):
        """The 6,891-entry known-library fingerprint corpus.

        Store-backed: with an attached artifact store, a cached corpus
        is reused without rebuilding the library fingerprints.
        """
        if self._corpus is None:
            with obs.span("study.corpus"):
                corpus = self._cached("corpus")
                if corpus is MISS:
                    corpus = _shared_corpus()
                    self._store_put("corpus", corpus)
                self._corpus = corpus
        return self._corpus

    @property
    def network(self):
        """The simulated Internet with issued certificates."""
        if self._network is None:
            self.world  # built (and traced) as its own stage
            with obs.span("study.network"):
                self._network = _network_for_seed(self.seed)
        return self._network

    @property
    def ecosystem(self):
        return self.network.ecosystem

    @property
    def certificates(self):
        """The three-vantage certificate dataset (Section 5).

        Probed by a one-worker :class:`~repro.probing.engine.ProbeEngine`
        (see :meth:`probe_with`).
        """
        if self._certificates is None:
            self.probe_with(ProbeEngine)
        return self._certificates

    def probe_with(self, make_engine):
        """:attr:`certificates`, probed through ``make_engine(network)``.

        Store-backed: with an attached artifact store, a cached dataset
        is reused without building the network or probing, and a probed
        one is stored.  Every engine probes to the same bytes (workers
        and latency sleeps change only wall-clock), so one ``certificates``
        entry serves them all.
        """
        with obs.span("study.certificates") as span:
            certificates = self._cached("certificates")
            if certificates is MISS:
                snis = [spec.fqdn for spec in self.world.servers]
                certificates = make_engine(self.network).probe_all(snis)
                self._store_put("certificates", certificates)
            self._certificates = certificates
            span.incr("snis", len(certificates))
        return certificates

    @property
    def trust_store(self):
        """The union of the config's selected major stores (built once).

        Selection is order-insensitive: any permutation of all major
        stores reuses the prebuilt union store.
        """
        if self._trust_store is None:
            with obs.span("study.trust_store"):
                if set(self.config.trust_stores) == set(MAJOR_STORES):
                    self._trust_store = self.ecosystem.union_store
                else:
                    selected = [self.ecosystem.stores[name]
                                for name in self.config.trust_stores]
                    self._trust_store = selected[0].union(*selected[1:])
        return self._trust_store

    def validator(self):
        """A Zeek-style validator over the config's trust stores."""
        return ChainValidator(self.trust_store)


@lru_cache(maxsize=8)
def _study_for_config(config):
    return Study(config=config)


def get_study(config=None):
    """The memoized study context for a config.

    Config-first: pass a :class:`StudyConfig` (or nothing for the
    default); anything else raises :class:`TypeError`.  Equal configs
    share one :class:`Study`.
    """
    return _study_for_config(_config_or_default(config, "get_study"))
