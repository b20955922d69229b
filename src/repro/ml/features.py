"""Deterministic ClientHello feature extraction for learned attribution.

Every fingerprint — the study's ``(version, ciphersuites, extensions)``
3-tuple — is tokenized into a bag of string features and hashed into a
fixed-width numpy vector:

- cipher-suite and extension *n-grams* (n=1, 2) over the
  GREASE-normalized code lists, so a reordered or GREASE-decorated
  variant of a library default shares most of its mass with the
  original;
- the proposed TLS version;
- ordering features (first/last suite and extension, the leading
  suite prefix) — the preference order is exactly what vendors tweak
  least (Appendix B.2), so it carries most of the provenance signal;
- bucketed suite/extension counts;
- GREASE-adoption flags (the only place the raw, un-normalized lists
  are consulted).

Hashing uses SHA-256 over ``"{seed}|{token}"`` — never Python's
``hash()`` — so the column a token lands in is a pure function of the
token and the extractor seed: stable across processes, platforms, and
``PYTHONHASHSEED``.  The seed itself derives from a canonical hash of
the :func:`training_config` via :func:`feature_seed`, which is what
makes the whole train/eval pipeline conformance-checkable.
"""

import hashlib
import json

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - numpy is a CI dep
    raise ImportError(
        "repro.ml requires numpy (listed in requirements-ci.txt); "
        "the rest of the package stays stdlib-only") from exc

from repro.config import StudyConfig
from repro.tlslib.grease import contains_grease, strip_grease

#: Default hashed feature-space width (columns in the design matrix).
DEFAULT_WIDTH = 1024

#: Length of the leading cipher-suite prefix used as one ordering token.
SUITE_PREFIX = 4


def training_config(config):
    """The config the learned attribution is a function of.

    Training and eval read only the capture, the corpus and the world's
    ground truth, which the seed alone determines.  The trust-store
    selection therefore maps to the seed's default config: it moves
    neither a feature index nor the model's identity.
    """
    return StudyConfig(seed=config.seed)


def feature_seed(config):
    """The extractor/split seed derived from a config's digest.

    Taking the first 16 hex digits of the :func:`training_config`
    digest ties every hashed feature index (and the stratified split)
    to the study seed, which is what makes two runs of the same config
    produce byte-identical eval reports.
    """
    # The hashed payload still carries the retired ``probe_jobs`` field
    # at its only value, 1: dropping it would move every feature column
    # and the split, and with them the committed ML eval digest.
    payload = dict(training_config(config).digest_payload(), probe_jobs=1)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return int(hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16],
               16)


def fingerprint_tokens(fp):
    """The token bag of one 3-tuple fingerprint (deterministic order)."""
    version, suites, extensions = fp
    clean_suites = strip_grease(suites)
    clean_exts = strip_grease(extensions)
    tokens = [f"v:{int(version)}"]
    tokens += [f"s1:{code:04x}" for code in clean_suites]
    tokens += [f"s2:{a:04x}>{b:04x}"
               for a, b in zip(clean_suites, clean_suites[1:])]
    tokens += [f"e1:{int(code)}" for code in clean_exts]
    tokens += [f"e2:{int(a)}>{int(b)}"
               for a, b in zip(clean_exts, clean_exts[1:])]
    if clean_suites:
        tokens.append(f"s_first:{clean_suites[0]:04x}")
        tokens.append(f"s_last:{clean_suites[-1]:04x}")
        tokens.append("s_head:" + ",".join(
            f"{code:04x}" for code in clean_suites[:SUITE_PREFIX]))
    if clean_exts:
        tokens.append(f"e_first:{int(clean_exts[0])}")
        tokens.append(f"e_last:{int(clean_exts[-1])}")
    tokens.append(f"ns:{min(len(clean_suites) // 4, 15)}")
    tokens.append(f"ne:{min(len(clean_exts) // 2, 15)}")
    tokens.append(f"gs:{int(contains_grease(suites))}")
    tokens.append(f"ge:{int(contains_grease(extensions))}")
    return tokens


class FeatureExtractor:
    """Seeded stable-hash vectorizer: fingerprints → numpy matrix."""

    def __init__(self, width=DEFAULT_WIDTH, seed=0):
        width = int(width)
        if width < 16:
            raise ValueError(f"feature width must be >= 16, got {width}")
        self.width = width
        self.seed = int(seed)
        self._index_memo = {}

    def index(self, token):
        """The column ``token`` hashes to (seeded, process-independent)."""
        cached = self._index_memo.get(token)
        if cached is not None:
            return cached
        data = f"{self.seed}|{token}".encode("utf-8")
        column = int.from_bytes(hashlib.sha256(data).digest()[:8],
                                "big") % self.width
        self._index_memo[token] = column
        return column

    def vector(self, fp):
        """One fingerprint's hashed token-count vector."""
        row = np.zeros(self.width, dtype=np.float64)
        for token in fingerprint_tokens(fp):
            row[self.index(token)] += 1.0
        return row

    def matrix(self, fps):
        """The ``(len(fps), width)`` float64 design matrix."""
        X = np.zeros((len(fps), self.width), dtype=np.float64)
        for i, fp in enumerate(fps):
            for token in fingerprint_tokens(fp):
                X[i, self.index(token)] += 1.0
        return X

    def to_json(self):
        return {"width": self.width, "seed": self.seed}

    @classmethod
    def from_json(cls, payload):
        return cls(width=payload["width"], seed=payload["seed"])
