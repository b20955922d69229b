"""Unit tests for RSA keys and signatures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.x509.errors import SignatureError
from repro.x509.keys import (
    KeyPool,
    RSAPublicKey,
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
