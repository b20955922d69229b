"""The server certificate dataset (paper Section 5.1, Table 6).

Wraps the probe results with the joins the server-side analyses need:
distinct leaf certificates, certificate↔FQDN and certificate↔IP sharing,
issuer organizations, and per-vantage slices.
"""

import hashlib
from collections import Counter, defaultdict

from repro.probing.vantage import PRIMARY_VANTAGE


class ProbeStatsSnapshot:
    """A frozen, picklable view of one run's probe telemetry.

    Live :class:`~repro.probing.engine.ProbeStats` is a view over metric
    instruments (which hold locks and can't be pickled), so a
    :class:`CertificateDataset` headed into the artifact store freezes its
    stats into this value type first.  It exposes the same read surface —
    the count attributes, the Counter views, ``to_json`` and ``summary``
    — so cached datasets answer ``--stats`` and ``probe_stats`` pipeline
    queries byte-identically to the run that produced them.
    """

    def __init__(self, data):
        self._data = dict(data)

    probes = property(lambda self: self._data.get("probes", 0))
    attempts = property(lambda self: self._data.get("attempts", 0))
    retries = property(lambda self: self._data.get("retries", 0))
    exhausted = property(lambda self: self._data.get("exhausted", 0))
    wall_seconds = property(
        lambda self: self._data.get("wall_seconds", 0.0))

    def _counter(self, key):
        return Counter(self._data.get(key, {}))

    outcomes = property(lambda self: self._counter("outcomes"))
    faults = property(lambda self: self._counter("faults"))
    latency_buckets = property(
        lambda self: self._counter("latency_buckets"))
    reachable_by_vantage = property(
        lambda self: self._counter("reachable_by_vantage"))
    unreachable_by_vantage = property(
        lambda self: self._counter("unreachable_by_vantage"))

    def to_json(self):
        return dict(self._data)

    def summary(self):
        return render_probe_stats(self._data)


def render_probe_stats(data):
    """The compact ``--stats`` rendering of a probe-stats JSON dict.

    Live :class:`~repro.probing.engine.ProbeStats` and its snapshot both
    render through here from their ``to_json`` dict, so they print the
    same wall time (rounded once, to the dict's 3 decimals, then shown
    with 2).
    """
    lines = [f"probes {data.get('probes', 0)}  "
             f"attempts {data.get('attempts', 0)}  "
             f"retries {data.get('retries', 0)}  "
             f"exhausted {data.get('exhausted', 0)}  "
             f"wall {data.get('wall_seconds', 0.0):.2f}s"]

    def pairs(key):
        return "  ".join(f"{name}={count}" for name, count
                         in sorted(data.get(key, {}).items()))

    if data.get("faults"):
        lines.append("faults:   " + pairs("faults"))
    lines.append("outcomes: " + pairs("outcomes"))
    lines.append("reachable: " + pairs("reachable_by_vantage"))
    return "\n".join(lines)


class CertificateDataset:
    """Probe results indexed for analysis.

    ``stats`` carries the :class:`~repro.probing.engine.ProbeStats` of the
    run that produced the dataset (``None`` for the serial prober).
    """

    def __init__(self, results, probed_at=None, network=None, stats=None):
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
        """Freeze live ``stats`` (lock-holding metric views) for pickling."""
        state = self.__dict__.copy()
        stats = state.get("stats")
        if stats is not None and not isinstance(stats,
                                                ProbeStatsSnapshot):
            state["stats"] = ProbeStatsSnapshot(stats.to_json())
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
