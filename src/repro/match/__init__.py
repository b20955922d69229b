"""``repro.match`` — the exact matching core.

The unified home of every set-similarity and corpus-matching primitive
the Section 4 analytics use.  Layering, bottom up:

- :mod:`repro.match.vector` — bitset encoding (:class:`FeatureSpace`,
  :class:`FingerprintVector`) and the reference :func:`set_jaccard`;
- :mod:`repro.match.index` — :class:`SimilarityIndex` (exact queries
  over inverted-index candidates) and :class:`CorpusIndex` (near-match
  search over the library corpus's distinct keys);
- :mod:`repro.match.engine` — :class:`MatchEngine`, the facade the free
  functions in :mod:`repro.core.matching` and :mod:`repro.core.sharing`
  delegate to through :func:`shared_engine`.

Exactness is the package invariant: indexes prune candidates, never
results.  Every query rescores its candidates with exact popcount
Jaccard, so each result equals what a brute-force scan returns (the
test suite keeps those scans as oracles).
"""

from repro.match.engine import MatchEngine, shared_engine
from repro.match.index import CorpusIndex, SimilarityIndex
from repro.match.vector import (FeatureSpace, FingerprintVector,
                                fingerprint_tokens, popcount,
                                set_jaccard)

__all__ = [
    "CorpusIndex",
    "FeatureSpace",
    "FingerprintVector",
    "MatchEngine",
    "SimilarityIndex",
    "fingerprint_tokens",
    "popcount",
    "set_jaccard",
    "shared_engine",
]
