"""Bitset fingerprint encoding: popcount set algebra on plain ints.

The matching analytics compare *sets* — a vendor's fingerprint set, a
ClientHello's suite/extension feature set — millions of times at scale.
Python ``set`` intersection allocates a new set per comparison; a
fixed-width int bitset answers the same question with two bitwise ops
and a popcount, an order of magnitude faster and allocation-free.

- :class:`FeatureSpace` is the shared token → bit-position bijection a
  family of vectors is encoded against (positions are assigned in first-
  seen order, so one builder produces one deterministic layout);
- :class:`FingerprintVector` wraps the encoded int with the exact set
  operations the analytics need (`intersection_count`, `union_count`,
  `jaccard`);
- :func:`set_jaccard` is the reference implementation on plain sets.

The Jaccard contract (pinned by tests): two empty sets → ``0.0``; one
empty set → ``0.0``; ``jaccard(s, s) == 1.0`` for non-empty ``s``;
symmetric; bounded in ``[0, 1]``.  Popcounts and set cardinalities are
the same integers, so the float ratios are bit-identical between the
two implementations.

Everything here is stdlib-only (``int.bit_count`` on Python >= 3.10,
with a ``bin().count`` fallback for 3.9) — no numpy.
"""


def _popcount_native(value):
    return value.bit_count()


def _popcount_compat(value):
    return bin(value).count("1")


#: number of set bits in a non-negative int (3.9-compatible).
popcount = _popcount_native if hasattr(int, "bit_count") \
    else _popcount_compat


def set_jaccard(set_a, set_b):
    """Jaccard similarity of two plain sets (0.0 for two empty sets)."""
    if not set_a and not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def bits_from_positions(positions):
    """The bitset int with exactly ``positions`` set.

    Builds through a little-endian bytearray instead of repeated
    ``bits |= 1 << p`` — each big-int OR copies the whole integer, so
    the naive loop is O(k * width) while this is O(k + width).
    """
    positions = list(positions)
    if not positions:
        return 0
    buf = bytearray(max(positions) // 8 + 1)
    for position in positions:
        buf[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(bytes(buf), "little")


def fingerprint_tokens(fp):
    """The feature-token set of one 3-tuple ClientHello fingerprint.

    Tokens are namespaced int pairs — ``(0, version)``, ``(1, suite)``,
    ``(2, extension)`` — so a suite code and an extension code with the
    same numeric value stay distinct features.  Int-only tokens keep
    ``hash()`` (and therefore every derived structure) independent of
    ``PYTHONHASHSEED``.
    """
    version, suites, extensions = fp
    tokens = {(0, int(version))}
    tokens.update((1, int(code)) for code in suites)
    tokens.update((2, int(code)) for code in extensions)
    return tokens


class FeatureSpace:
    """A grow-on-first-sight bijection from tokens to bit positions.

    All vectors that should be comparable must be encoded against the
    *same* space instance; :meth:`FingerprintVector.jaccard` enforces
    this.  Positions are dense (0, 1, 2, ...) in first-seen order, which
    keeps the bitset ints as narrow as the observed universe.
    """

    def __init__(self):
        self._positions = {}
        self._tokens = []

    def __len__(self):
        return len(self._positions)

    def position(self, token):
        """The bit position for ``token``, assigning one if new."""
        pos = self._positions.get(token)
        if pos is None:
            pos = self._positions[token] = len(self._tokens)
            self._tokens.append(token)
        return pos

    def positions(self, tokens):
        """Sorted bit positions for a token set (assigning new ones)."""
        if not isinstance(tokens, (set, frozenset)):
            tokens = set(tokens)
        position = self.position
        return sorted([position(token) for token in tokens])

    def encode(self, tokens):
        """The bitset int for a token set."""
        return bits_from_positions(self.position(token)
                                   for token in set(tokens))

    def decode(self, bits):
        """The token set a bitset int encodes."""
        tokens = set()
        position = 0
        while bits:
            if bits & 1:
                tokens.add(self._tokens[position])
            bits >>= 1
            position += 1
        return tokens


class FingerprintVector:
    """A fixed-width bitset over a :class:`FeatureSpace`.

    Construction goes through :meth:`from_tokens` (any hashable tokens)
    or :meth:`from_fingerprint` (the canonical 3-tuple ClientHello
    fingerprint, tokenized by :func:`fingerprint_tokens`).
    """

    __slots__ = ("bits", "space", "_count")

    def __init__(self, bits, space):
        self.bits = bits
        self.space = space
        self._count = popcount(bits)

    @classmethod
    def from_tokens(cls, tokens, space):
        return cls(space.encode(tokens), space)

    @classmethod
    def from_fingerprint(cls, fp, space):
        return cls(space.encode(fingerprint_tokens(fp)), space)

    @property
    def count(self):
        """Number of features set (``len()`` of the encoded set)."""
        return self._count

    def __len__(self):
        return self._count

    def __eq__(self, other):
        return (isinstance(other, FingerprintVector)
                and self.space is other.space
                and self.bits == other.bits)

    def __hash__(self):
        return hash((id(self.space), self.bits))

    def __repr__(self):
        return (f"FingerprintVector(count={self._count}, "
                f"space={len(self.space)} features)")

    def tokens(self):
        return self.space.decode(self.bits)

    def _check_space(self, other):
        if self.space is not other.space:
            raise ValueError(
                "vectors from different FeatureSpaces are not "
                "comparable; encode both against one space")

    def intersection_count(self, other):
        self._check_space(other)
        return popcount(self.bits & other.bits)

    def union_count(self, other):
        self._check_space(other)
        return popcount(self.bits | other.bits)

    def jaccard(self, other):
        """Exact Jaccard similarity via two popcounts.

        Same contract as :func:`set_jaccard`: 0.0 when both vectors are
        empty, and the exact same float otherwise (identical integer
        numerator/denominator).
        """
        self._check_space(other)
        union = popcount(self.bits | other.bits)
        if union == 0:
            return 0.0
        return popcount(self.bits & other.bits) / union
