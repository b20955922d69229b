"""The server certificate dataset (paper Section 5.1, Table 6).

Wraps the probe results with the joins the server-side analyses need:
distinct leaf certificates, certificate↔FQDN and certificate↔IP sharing,
issuer organizations, and per-vantage slices.
"""

import hashlib
from collections import Counter, defaultdict

from repro.probing.vantage import PRIMARY_VANTAGE


class ProbeStatsSnapshot:
    """The probe telemetry of one ``probe_all`` run, as a frozen value.

    :meth:`~repro.probing.engine.ProbeEngine.probe_all` builds one from
    that run's own counts, so it pickles into the artifact store as is
    and a cached dataset answers ``--stats`` and the ``probe_stats``
    pipeline node exactly like the run that produced it.
    """

    def __init__(self, data):
        self._data = dict(data)

    probes = property(lambda self: self._data.get("probes", 0))
    wall_seconds = property(
        lambda self: self._data.get("wall_seconds", 0.0))
    #: one attempt per probe and no retries: kept only because
    #: perfbench's ``study_counts`` still reads both.
    attempts = probes
    retries = property(lambda self: 0)

    def _counter(self, key):
        return Counter(self._data.get(key, {}))

    outcomes = property(lambda self: self._counter("outcomes"))
    latency_buckets = property(
        lambda self: self._counter("latency_buckets"))
    reachable_by_vantage = property(
        lambda self: self._counter("reachable_by_vantage"))
    unreachable_by_vantage = property(
        lambda self: self._counter("unreachable_by_vantage"))

    def to_json(self):
        return dict(self._data)

    def summary(self):
        """The compact ``--stats`` rendering.

        The wall time is rounded once, to the dict's 3 decimals, then
        shown with 2.
        """
        data = self._data

        def pairs(key):
            return "  ".join(f"{name}={count}" for name, count
                             in sorted(data.get(key, {}).items()))

        return "\n".join([
            f"probes {self.probes}  wall {self.wall_seconds:.2f}s",
            "outcomes: " + pairs("outcomes"),
            "reachable: " + pairs("reachable_by_vantage")])


class CertificateDataset:
    """Probe results indexed for analysis.

    ``stats`` carries the :class:`ProbeStatsSnapshot` of the engine run
    that produced the dataset (``None`` for the serial prober).
    """

    def __init__(self, results, probed_at=None, stats=None):
        self.results = list(results)
        self.probed_at = probed_at
        self.stats = stats
        self._by_vantage = defaultdict(dict)
        for result in self.results:
            self._by_vantage[result.vantage][result.fqdn] = result

    # --- vantage slices -----------------------------------------------------------

    def vantages(self):
        return sorted(self._by_vantage)

    def results_at(self, vantage=PRIMARY_VANTAGE.name):
        """fqdn → ProbeResult for one vantage."""
        return dict(self._by_vantage[vantage])

    def result(self, fqdn, vantage=PRIMARY_VANTAGE.name):
        return self._by_vantage[vantage].get(fqdn)

    # --- headline counts (Table 6) ---------------------------------------------------

    def reachable_fqdns(self, vantage=PRIMARY_VANTAGE.name):
        return sorted(f for f, r in self._by_vantage[vantage].items()
                      if r.reachable and r.leaf is not None)

    def unreachable_fqdns(self, vantage=PRIMARY_VANTAGE.name):
        return sorted(f for f, r in self._by_vantage[vantage].items()
                      if not r.reachable)

    def leaf_certificates(self, vantage=PRIMARY_VANTAGE.name):
        """Distinct leaf certificates (by DER fingerprint)."""
        leaves = {}
        for result in self._by_vantage[vantage].values():
            if result.leaf is not None:
                leaves[result.leaf.fingerprint()] = result.leaf
        return leaves

    def issuer_organizations(self, vantage=PRIMARY_VANTAGE.name):
        """Distinct issuer organizations across leaf certificates."""
        return sorted({leaf.issuer.organization or leaf.issuer.common_name
                       for leaf in self.leaf_certificates(vantage).values()})

    # --- sharing (Section 5.1) ---------------------------------------------------------

    def fqdns_by_leaf(self, vantage=PRIMARY_VANTAGE.name):
        """leaf fingerprint → sorted FQDNs presenting that leaf."""
        sharing = defaultdict(list)
        for fqdn, result in sorted(self._by_vantage[vantage].items()):
            if result.leaf is not None:
                sharing[result.leaf.fingerprint()].append(fqdn)
        return dict(sharing)

    def ips_by_leaf(self, network, vantage=PRIMARY_VANTAGE.name):
        """leaf fingerprint → set of IPs serving that leaf."""
        sharing = defaultdict(set)
        for fqdn, result in self._by_vantage[vantage].items():
            if result.leaf is not None:
                endpoint = network.endpoints.get(fqdn)
                if endpoint is not None:
                    sharing[result.leaf.fingerprint()].update(endpoint.ips)
        return dict(sharing)

    # --- serialization / identity ----------------------------------------------------

    def to_json_rows(self, vantage=PRIMARY_VANTAGE.name, ct_logs=None):
        """Per-server summary rows for one vantage, sorted by FQDN.

        The row schema is defined once, on
        :meth:`~repro.probing.prober.ProbeResult.to_json`; this is what
        ``python -m repro probe`` writes as JSONL.
        """
        return [result.to_json(ct_logs=ct_logs)
                for _fqdn, result in
                sorted(self._by_vantage[vantage].items())]

    def __getstate__(self):
        """Pickle the per-vantage index as plain dicts."""
        state = self.__dict__.copy()
        state["_by_vantage"] = {vantage: dict(results) for
                                vantage, results in
                                state["_by_vantage"].items()}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        by_vantage = defaultdict(dict)
        by_vantage.update(self._by_vantage)
        self._by_vantage = by_vantage

    def fingerprint(self):
        """SHA-256 over every result's canonical bytes, in result order.

        Two datasets with equal fingerprints observed identical bytes in
        an identical order — the equality the parallel engine's
        determinism guarantee is checked against.
        """
        digest = hashlib.sha256()
        for result in self.results:
            digest.update(result.signature_bytes())
            digest.update(b"\x1e")
        return digest.hexdigest()

    def __len__(self):
        return len(self.results)
