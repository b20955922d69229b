"""In-order execution of the analysis registry.

:mod:`repro.core.pipeline` used to hand-order ~30 analysis calls; the
registry/scheduler split makes the wiring *data*: each analysis is an
:class:`AnalysisSpec` naming its inputs, and :class:`AnalysisScheduler`
runs the registry in declaration order, which must follow the
dependencies (the constructor rejects a node that consumes a result key
only a later node provides).

Determinism contract: every analysis is a pure function of its declared
inputs, and the returned mapping is assembled in registry declaration
order, so its key order (and therefore serialized bytes) is fixed by
the registry alone.

When a store is attached, each cacheable node consults it before
computing (stage name ``analysis.<side>.<name>``), which is what makes a
warm re-run of the full pipeline near-instant.  Base resources (the
dataset, the certificate capture, the validator...) are resolved
*lazily*: a fully-cached run never touches them, so it never pays for
world generation or probing at all.
"""

from dataclasses import dataclass, field

from repro import obs
from repro.store.artifact import MISS


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis node: a named pure function over named inputs.

    Attributes:
        name: unique node name (also the default result key).
        fn: callable taking a ``{input name: value}`` dict.  With one
            ``provides`` key it returns the bare value; with several it
            returns a tuple aligned with ``provides``.
        inputs: names this node consumes — base resources or result
            keys ``provides``-ed by other nodes in the same registry.
        provides: result keys this node contributes (default:
            ``(name,)``).
        span: tracing span name (default ``analysis.<side>.<name>``).
        cacheable: whether the artifact store may persist the result.
        tally: optional ``tally(span, value)`` hook for per-node span
            counters.
    """

    name: str
    fn: object
    inputs: tuple = ()
    provides: tuple = None
    span: str = None
    cacheable: bool = True
    tally: object = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        provides = (self.name,) if self.provides is None \
            else tuple(self.provides)
        object.__setattr__(self, "provides", provides)


class _LazyResources:
    """Base inputs resolved (and memoized) only on first use."""

    def __init__(self, mapping):
        self._mapping = dict(mapping)
        self._resolved = {}

    def __contains__(self, name):
        return name in self._mapping

    def resolve(self, name):
        if name not in self._resolved:
            provider = self._mapping[name]
            self._resolved[name] = provider() \
                if callable(provider) else provider
        return self._resolved[name]


class AnalysisScheduler:
    """Runs one registry of specs in declaration order.

    Args:
        specs: the registry, in dependency order; it is also the key
            order of the output mapping.
        side: registry label (``"client"``/``"server"``); prefixes span
            and cache-stage names.
        store: optional :class:`~repro.store.artifact.ArtifactStore`.
        config: the :class:`~repro.config.StudyConfig` keying the store.
        node_observer: optional ``observer(stage_name, packed_value)``
            called exactly once per node, with the node's packed result
            — whether computed or served from the store.  The
            conformance harness (:mod:`repro.verify`) uses this to
            collect per-node digests/snapshots without re-running
            anything.
    """

    def __init__(self, specs, side, store=None, config=None,
                 node_observer=None):
        self.specs = tuple(specs)
        self.side = side
        self.store = store
        self.config = config
        self.node_observer = node_observer
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate analysis names in registry")
        self._result_keys = set()
        for spec in self.specs:
            for key in spec.provides:
                if key in self._result_keys:
                    raise ValueError(f"result key {key!r} provided twice")
                self._result_keys.add(key)
        provided = set()
        for spec in self.specs:
            for name in spec.inputs:
                if name in self._result_keys and name not in provided:
                    raise ValueError(
                        f"analysis {spec.name!r} consumes {name!r} before "
                        f"any node provides it; declare the registry in "
                        f"dependency order (a dependency cycle has none)")
            provided.update(spec.provides)

    def stage_name(self, spec):
        return f"analysis.{self.side}.{spec.name}"

    # -- single-node execution ------------------------------------------------

    def _execute(self, spec, resources, values):
        """Run one node (store-aware); returns its packed result."""
        use_store = (self.store is not None and self.config is not None
                     and spec.cacheable)
        if use_store:
            cached = self.store.get(self.config, self.stage_name(spec))
            if cached is not MISS:
                self._observe(spec, cached)
                return cached
        inputs = {}
        for name in spec.inputs:
            if name in self._result_keys:
                inputs[name] = values[name]
            else:
                inputs[name] = resources.resolve(name)
        with obs.span(spec.span
                      or f"analysis.{self.side}.{spec.name}") as span:
            packed = spec.fn(inputs)
            if spec.tally is not None:
                spec.tally(span, packed)
        if use_store:
            self.store.put(self.config, self.stage_name(spec), packed)
        self._observe(spec, packed)
        return packed

    def _observe(self, spec, packed):
        if self.node_observer is not None:
            self.node_observer(self.stage_name(spec), packed)

    def _unpack(self, spec, packed, values):
        if len(spec.provides) == 1:
            values[spec.provides[0]] = packed
        else:
            for key, item in zip(spec.provides, packed):
                values[key] = item

    # -- the run loop ---------------------------------------------------------

    def run(self, resources):
        """Execute every node in order; returns ``{result key: value}``.

        ``resources`` maps base-input names to values or zero-argument
        callables (resolved lazily, once).  Key order of the returned
        dict follows the registry declaration order.
        """
        resources = _LazyResources(resources)
        values = {}
        for spec in self.specs:
            self._unpack(spec, self._execute(spec, resources, values),
                         values)
        return values
