"""RSA keys and PKCS#1-style signatures (Miller–Rabin, CRT signing,
reduced key sizes).

The paper's substrate needs *real* sign/verify semantics — chains must
actually verify, tampered certificates must actually fail — but not
production key sizes.  We generate RSA keys with Miller–Rabin primes
(default 512-bit modulus; plenty for a simulator, instant to generate) and
sign SHA-256 digests with deterministic PKCS#1 v1.5-style padding.
Signing uses the Chinese Remainder Theorem: two half-size
exponentiations modulo ``p`` and ``q``, recombined with Garner's
formula, give the same integer as ``pow(m, d, n)`` in well under half the
time.

Key generation accepts a seeded ``random.Random`` so that the synthetic
world is fully reproducible.
"""

import hashlib
import math
import random
from dataclasses import dataclass

from repro.x509.errors import SignatureError

#: Small primes for fast trial division before Miller–Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)

#: DER prefix of the DigestInfo structure for SHA-256 (RFC 8017 section 9.2).
_SHA256_DIGEST_INFO_PREFIX = bytes.fromhex(
    "3031300d060960864801650304020105000420")


#: Product of the primes from 151 to 4,093 (below 151**2, a number with
#: no factor up to 149 is prime): its ``gcd`` with a candidate is the
#: candidate's part made of those primes (1 for 61% of the candidates
#: that pass trial division).
_SCREEN_PRODUCT = math.prod(p for p in range(151, 4094)
                            if all(p % q for q in _SMALL_PRIMES))


def _round_fails_modulo(witness, d, r, factor):
    """Whether the Miller–Rabin round of ``witness`` fails modulo
    ``factor``, where ``candidate - 1 = d * 2**r`` with ``d`` odd.

    For a divisor ``factor`` of the candidate, a round that passes modulo
    the candidate (``w**d == 1``, or ``w**(d * 2**i) == -1`` for some
    ``i < r``) passes modulo ``factor`` too; so a round that fails here
    fails modulo the candidate, at the cost of a small ``pow``.
    """
    x = pow(witness, d, factor)
    if x in (1, factor - 1):
        return False
    for _ in range(r - 1):
        x = x * x % factor
        if x == factor - 1:
            return False
    return True


def _is_probable_prime(candidate, rng, rounds=10):
    """Miller–Rabin primality test with ``rounds`` random witnesses.

    For a candidate with factors between 151 and 4,093, each witness,
    drawn as always, is first tried modulo the product of those
    factors.  A round that fails there fails modulo the candidate, so
    the verdict and the RNG draws are those of the full test, without
    its 256-bit ``pow`` (the first witness decides 98% of these
    candidates).
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    d, r = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    factor = math.gcd(candidate, _SCREEN_PRODUCT)
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
        if factor > 1 and _round_fails_modulo(witness, d, r, factor):
            return False
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits, rng):
    """Generate a ``bits``-bit probable prime using ``rng``."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bit_length(self):
        return self.n.bit_length()

    @property
    def byte_length(self):
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self):
        """SHA-256 hex digest identifying this key (subject key identifier)."""
        blob = self.n.to_bytes(self.byte_length, "big") + self.e.to_bytes(4, "big")
        return hashlib.sha256(blob).hexdigest()

    def verify(self, message, signature):
        """Verify a signature over ``message``; raise SignatureError on failure."""
        if len(signature) != self.byte_length:
            raise SignatureError("signature length does not match modulus")
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            raise SignatureError("signature value out of range")
        recovered = pow(sig_int, self.e, self.n)
        expected = int.from_bytes(_pad_digest(message, self.byte_length), "big")
        if recovered != expected:
            raise SignatureError("signature does not verify")

    def verifies(self, message, signature):
        """Boolean convenience wrapper around :meth:`verify`."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA keypair; the private values stay inside this object.

    The private values are those of a PKCS#1 ``RSAPrivateKey``: ``d``,
    the primes, and the CRT values ``dp = d mod (p-1)``,
    ``dq = d mod (q-1)`` and ``q_inv = q^-1 mod p``.  Build it with
    :func:`generate_keypair`, which derives them.
    """

    public: RSAPublicKey
    d: int
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int

    def sign(self, message):
        """Sign SHA-256(message) with deterministic PKCS#1 v1.5 padding."""
        padded = _pad_digest(message, self.public.byte_length)
        value = int.from_bytes(padded, "big")
        s_p = pow(value, self.dp, self.p)
        s_q = pow(value, self.dq, self.q)
        signature = s_q + self.q * (self.q_inv * (s_p - s_q) % self.p)
        return signature.to_bytes(self.public.byte_length, "big")


def _pad_digest(message, length):
    """EMSA-PKCS1-v1_5 padding of the SHA-256 DigestInfo of ``message``."""
    digest_info = _SHA256_DIGEST_INFO_PREFIX + hashlib.sha256(message).digest()
    pad_len = length - len(digest_info) - 3
    if pad_len < 8:
        raise SignatureError("modulus too small for SHA-256 DigestInfo")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest_info


class KeyPool:
    """A deterministic pool of pre-generated keypairs.

    Issuing ~900 leaf certificates dominates world-build time when every
    leaf gets a fresh RSA key.  The simulator's analyses never depend on
    key uniqueness across unrelated certificates, so leaf keys cycle
    through a seeded pool (CA keys stay unique).  Certificate *sharing*
    semantics are unaffected: shared certs reuse the same certificate
    object, not merely the same key.
    """

    def __init__(self, size=48, bits=512, rng=None):
        rng = rng or random.Random(0xC0FFEE)
        self._keys = [generate_keypair(bits, rng=rng) for _ in range(size)]
        self._next = 0

    def take(self):
        key = self._keys[self._next % len(self._keys)]
        self._next += 1
        return key


def generate_keypair(bits=512, rng=None, e=65537):
    """Generate an RSA keypair with a ``bits``-bit modulus.

    Args:
        bits: modulus size; the simulator default of 512 keeps world
            generation fast while exercising real signature math.
        rng: a ``random.Random`` for reproducibility; a fresh system-seeded
            instance is used when omitted.
        e: public exponent.
    """
    if bits < 384:
        raise ValueError("modulus below 384 bits cannot carry a SHA-256 signature")
    rng = rng or random.Random()
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return RSAKeyPair(public=RSAPublicKey(n=n, e=e), d=d, p=p, q=q,
                          dp=d % (p - 1), dq=d % (q - 1),
                          q_inv=pow(q, -1, p))
