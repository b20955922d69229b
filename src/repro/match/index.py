"""Similarity and corpus indexes: inverted-index pruning + exact rescoring.

Two index structures back the Section 4 matching analyses:

- :class:`SimilarityIndex` — a set-similarity index over arbitrary
  items.  Candidate pairs come from an *element inverted index* (items
  sharing >= 1 feature), which is provably complete for any Jaccard
  threshold > 0 (``J(A, B) >= t > 0`` implies a shared element).  Every
  candidate is rescored through the exact bitset Jaccard, so results
  are exactly what a brute-force scan would return — the index only
  decides how little work reaches the rescoring pass.
- :class:`CorpusIndex` — near-match search over a library corpus:
  queries run over the *distinct* fingerprint keys (6,891 corpus
  entries collapse to a few dozen distinct keys) instead of scanning
  every entry.
"""

from collections import defaultdict

from repro.match.vector import (FeatureSpace, FingerprintVector,
                                bits_from_positions,
                                fingerprint_tokens)


class SimilarityIndex:
    """Exact set-similarity search over an element inverted index.

    Items are added with :meth:`add` (any sortable, hashable ids).
    :meth:`query` and :meth:`all_pairs` return precisely the items/pairs
    a brute-force exact Jaccard scan would, in a deterministic order.
    """

    def __init__(self, space=None):
        self.space = space if space is not None else FeatureSpace()
        self._vectors = {}        # item id -> FingerprintVector
        self._postings = defaultdict(list)  # bit position -> [ids]
        self._by_bits = defaultdict(list)   # bitset int -> [ids]

    def __len__(self):
        return len(self._vectors)

    def __contains__(self, item_id):
        return item_id in self._vectors

    def items(self):
        return sorted(self._vectors)

    def vector(self, item_id):
        return self._vectors[item_id]

    def add(self, item_id, tokens):
        """Index one item; re-adding an existing id is an error."""
        if item_id in self._vectors:
            raise ValueError(f"item already indexed: {item_id!r}")
        positions = self.space.positions(tokens)
        vector = FingerprintVector(bits_from_positions(positions),
                                   self.space)
        self._vectors[item_id] = vector
        for position in positions:
            self._postings[position].append(item_id)
        self._by_bits[vector.bits].append(item_id)
        return vector

    def _element_pairs(self):
        """Every ``(a, b)`` pair (a < b) sharing at least one posting."""
        from itertools import combinations
        pairs = set()
        for posting in self._postings.values():
            if len(posting) > 1:
                pairs.update(combinations(sorted(posting), 2))
        return pairs

    # -- exact queries --------------------------------------------------------

    def query(self, tokens, threshold, limit=None):
        """Exact-threshold search: ``[(similarity, item_id), ...]``.

        Scans the *distinct* vectors (identical sets share one popcount)
        inside the size window ``[t * |q|, |q| / t]`` implied by the
        threshold, rescoring each exactly.  Results are every indexed
        item with ``jaccard >= threshold``, sorted by
        ``(-similarity, item_id)``.
        """
        probe = FingerprintVector.from_tokens(tokens, self.space)
        hits = []
        for bits, members in self._by_bits.items():
            vector = self._vectors[members[0]]
            if threshold > 0 and probe.count:
                # J >= t implies t*|B| <= |A| and t*|A| <= |B|; the 1e-9
                # slack keeps float rounding from skipping a boundary
                # candidate (exactness is non-negotiable, speed is not).
                size = vector.count
                if size * threshold - probe.count > 1e-9 \
                        or probe.count * threshold - size > 1e-9:
                    continue
            similarity = probe.jaccard(vector)
            if similarity >= threshold:
                hits.extend((similarity, member) for member in members)
        hits.sort(key=lambda hit: (-hit[0], hit[1]))
        return hits if limit is None else hits[:limit]

    def all_pairs(self, threshold):
        """Every pair at or above the threshold, exactly.

        For ``threshold > 0`` the pair universe is pruned through the
        element inverted index (complete by the shared-element
        argument) before exact popcount rescoring; ``threshold <= 0``
        falls back to the full pairwise scan, because disjoint pairs
        (similarity 0.0) have no shared posting to be found through.
        Returns ``[(similarity, a, b), ...]`` with ``a < b``, sorted by
        ``(-similarity, a, b)``.
        """
        results = []
        if threshold > 0:
            for item_a, item_b in self._element_pairs():
                similarity = self._vectors[item_a].jaccard(
                    self._vectors[item_b])
                if similarity >= threshold:
                    results.append((similarity, item_a, item_b))
        else:
            members = self.items()
            for i, item_a in enumerate(members):
                vec_a = self._vectors[item_a]
                for item_b in members[i + 1:]:
                    similarity = vec_a.jaccard(self._vectors[item_b])
                    if similarity >= threshold:
                        results.append((similarity, item_a, item_b))
        results.sort(key=lambda row: (-row[0], row[1], row[2]))
        return results

    def stats(self):
        postings = [len(ids) for ids in self._postings.values()]
        return {
            "items": len(self._vectors),
            "distinct_vectors": len(self._by_bits),
            "feature_space": len(self.space),
            "max_posting": max(postings) if postings else 0,
            "candidate_pairs": len(self._element_pairs()),
            "total_pairs": len(self._vectors)
            * (len(self._vectors) - 1) // 2,
        }


class CorpusIndex:
    """Exact near-match search over a library corpus's distinct keys.

    A :class:`SimilarityIndex` over the corpus's distinct fingerprint
    keys answers threshold-Jaccard near-match queries (the Active TLS
    Stack Fingerprinting "feature match" direction); each hit is
    reported as its key's highest-version entry, the same entry
    ``LibraryCorpus.match`` returns for that key.
    """

    def __init__(self, corpus):
        self.corpus = corpus
        self.similarity = SimilarityIndex()
        for key in sorted(corpus.keys()):
            self.similarity.add(key, fingerprint_tokens(key))

    def __len__(self):
        return len(self.corpus)

    @property
    def distinct_count(self):
        return len(self.similarity)

    def near_matches(self, fp, threshold=0.7, limit=10):
        """Libraries whose fingerprint is Jaccard-similar to ``fp``.

        Exact: returns ``[(similarity, LibraryFingerprint), ...]`` for
        every distinct corpus key with feature-set Jaccard >=
        ``threshold``, highest-version entry per key, sorted by
        ``(-similarity, key)``.
        """
        hits = self.similarity.query(fingerprint_tokens(fp), threshold,
                                     limit=limit)
        return [(similarity, self.corpus.match(*key))
                for similarity, key in hits]

    def stats(self):
        return {
            "entries": len(self.corpus),
            "distinct_keys": self.distinct_count,
            "dedup_ratio": round(len(self.corpus)
                                 / max(1, self.distinct_count), 2),
            "similarity": self.similarity.stats(),
        }
