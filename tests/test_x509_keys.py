"""Unit tests for RSA keys and signatures."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.x509 import keys as keys_module
from repro.x509.errors import SignatureError
from repro.x509.keys import (
    _SCREEN_PRODUCT,
    _SMALL_PRIMES,
    KeyPool,
    RSAPublicKey,
    _is_probable_prime,
    _pad_digest,
    generate_keypair,
)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(512, rng=random.Random(7))


class TestGeneration:
    def test_modulus_size(self, keypair):
        assert keypair.public.bit_length == 512
        assert keypair.public.byte_length == 64

    def test_deterministic_given_rng(self):
        a = generate_keypair(512, rng=random.Random(99))
        b = generate_keypair(512, rng=random.Random(99))
        assert a.public.n == b.public.n

    def test_different_seeds_different_keys(self):
        a = generate_keypair(512, rng=random.Random(1))
        b = generate_keypair(512, rng=random.Random(2))
        assert a.public.n != b.public.n

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(256)

    def test_public_exponent(self, keypair):
        assert keypair.public.e == 65537


class TestSignVerify:
    def test_sign_verify_roundtrip(self, keypair):
        message = b"the quick brown fox"
        signature = keypair.sign(message)
        keypair.public.verify(message, signature)  # no exception

    def test_signature_deterministic(self, keypair):
        assert keypair.sign(b"m") == keypair.sign(b"m")

    def test_tampered_message_fails(self, keypair):
        signature = keypair.sign(b"original")
        assert not keypair.public.verifies(b"tampered", signature)

    def test_tampered_signature_fails(self, keypair):
        signature = bytearray(keypair.sign(b"message"))
        signature[10] ^= 0xFF
        assert not keypair.public.verifies(b"message", bytes(signature))

    def test_wrong_key_fails(self, keypair):
        other = generate_keypair(512, rng=random.Random(55))
        signature = keypair.sign(b"message")
        assert not other.public.verifies(b"message", signature)

    def test_wrong_length_raises(self, keypair):
        with pytest.raises(SignatureError):
            keypair.public.verify(b"m", b"\x01\x02")

    def test_out_of_range_signature(self, keypair):
        too_big = (keypair.public.n + 1).to_bytes(
            keypair.public.byte_length, "big", signed=False) \
            if keypair.public.n + 1 < 1 << (8 * keypair.public.byte_length) \
            else b"\xff" * keypair.public.byte_length
        with pytest.raises(SignatureError):
            keypair.public.verify(b"m", too_big)

    def test_fingerprint_stability(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        other = generate_keypair(512, rng=random.Random(3))
        assert keypair.public.fingerprint() != other.public.fingerprint()


def _textbook_sign(key, message):
    """Full-modulus ``pow(m, d, n)``: the oracle for CRT signing."""
    length = key.public.byte_length
    value = int.from_bytes(_pad_digest(message, length), "big")
    return pow(value, key.d, key.public.n).to_bytes(length, "big")


@pytest.fixture(scope="module")
def oracle_keys():
    """Keys from six seeds at the simulator's 512 bits, plus two other
    modulus sizes (one not a multiple of 8)."""
    keys = [generate_keypair(512, rng=random.Random(seed))
            for seed in (1, 7, 23, 2023, 4242, 99991)]
    keys += [generate_keypair(bits, rng=random.Random(bits))
             for bits in (516, 1024)]
    return keys


class TestCRTSigning:
    def test_private_values_are_consistent(self, oracle_keys):
        for key in oracle_keys:
            assert key.p * key.q == key.public.n
            assert key.dp == key.d % (key.p - 1)
            assert key.dq == key.d % (key.q - 1)
            assert key.q * key.q_inv % key.p == 1

    @settings(max_examples=60, deadline=None)
    @given(message=st.binary(max_size=300))
    def test_sign_equals_textbook_exponentiation(self, oracle_keys,
                                                 message):
        for key in oracle_keys:
            signature = key.sign(message)
            assert signature == _textbook_sign(key, message)
            key.public.verify(message, signature)


class TestKeyPool:
    def test_cycles_deterministically(self):
        pool_a = KeyPool(size=4, rng=random.Random(0))
        pool_b = KeyPool(size=4, rng=random.Random(0))
        for _ in range(6):
            assert pool_a.take().public.n == pool_b.take().public.n

    def test_wraps_around(self):
        pool = KeyPool(size=2, rng=random.Random(0))
        first = pool.take()
        pool.take()
        assert pool.take().public.n == first.public.n


def _miller_rabin(candidate, rng, rounds=10):
    """Miller–Rabin without the small-factor screen: the oracle."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    d, r = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
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


class _FixedWitness:
    """Stands in for the RNG: every witness is ``witness``; counts draws."""

    def __init__(self, witness):
        self.witness = witness
        self.draws = 0

    def randrange(self, start, stop):
        self.draws += 1
        return self.witness


#: Strong pseudoprimes whose factors trial division (primes to 149)
#: misses and the screen (primes 151 to 4,093) finds: 829 * 1657 (all
#: screened, so the screen's divisor is the candidate), 2251 * 11251,
#: and 151 * 751 * 28351, strong to bases 2, 3, 5 and 7.
_PSEUDOPRIMES = (1373653, 25326001, 3215031751)


class TestPrimalityScreen:
    """The gcd screen must not change a verdict or an RNG draw of the
    Miller–Rabin test, or every key after it would change."""

    def test_agrees_with_miller_rabin_in_verdict_and_draws(self):
        source = random.Random(2023)
        candidates = [source.getrandbits(256) | (1 << 255) | 1
                      for _ in range(3000)]
        candidates += [p * q for p in (151, 757, 4093)
                       for q in (1000003, 2 ** 127 - 1)]
        candidates += list(_PSEUDOPRIMES)
        screened = 0
        for i, candidate in enumerate(candidates):
            ours, theirs = random.Random(i), random.Random(i)
            assert _is_probable_prime(candidate, ours) == \
                _miller_rabin(candidate, theirs), candidate
            assert ours.getstate() == theirs.getstate(), candidate
            screened += math.gcd(candidate, _SCREEN_PRODUCT) > 1
        assert screened > 300

    def test_fixed_witnesses_on_strong_pseudoprimes(self):
        for candidate in _PSEUDOPRIMES:
            for witness in range(2, 40):
                ours, theirs = _FixedWitness(witness), \
                    _FixedWitness(witness)
                assert _is_probable_prime(candidate, ours) == \
                    _miller_rabin(candidate, theirs), (candidate, witness)
                assert ours.draws == theirs.draws, (candidate, witness)
            # A round that passes modulo the candidate passes modulo its
            # screened part, so witness 2 never stops early.
            two = _FixedWitness(2)
            assert _is_probable_prime(candidate, two)
            assert two.draws == 10

    def test_keys_equal_the_unscreened_search(self, monkeypatch):
        screened = []
        for seed in (1, 7, 2023):
            rng = random.Random(seed)
            screened.append((generate_keypair(512, rng=rng),
                             rng.getstate()))
        monkeypatch.setattr(keys_module, "_is_probable_prime",
                            _miller_rabin)
        for seed, (key, state) in zip((1, 7, 2023), screened):
            rng = random.Random(seed)
            assert generate_keypair(512, rng=rng) == key
            assert rng.getstate() == state
