"""RSA key generation, raw integer encryption and byte framing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.numbers import is_prime
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.exceptions import CryptoError, MessageRangeError


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(bits=128, rng=random.Random(42))


@pytest.fixture(scope="module")
def cipher(keypair):
    return RSA(keypair)


class TestKeyGeneration:
    def test_primes_are_prime(self, keypair):
        assert is_prime(keypair.p)
        assert is_prime(keypair.q)
        assert keypair.p != keypair.q

    def test_modulus_is_product(self, keypair):
        assert keypair.n == keypair.p * keypair.q

    def test_exponents_are_inverse(self, keypair):
        phi = (keypair.p - 1) * (keypair.q - 1)
        assert keypair.e * keypair.d % phi == 1

    def test_deterministic_default(self):
        k1 = generate_rsa_keypair(bits=64)
        k2 = generate_rsa_keypair(bits=64)
        assert k1.n == k2.n

    def test_distinct_with_distinct_rngs(self):
        k1 = generate_rsa_keypair(bits=64, rng=random.Random(1))
        k2 = generate_rsa_keypair(bits=64, rng=random.Random(2))
        assert k1.n != k2.n

    def test_bit_length(self):
        for bits in (64, 128, 256):
            kp = generate_rsa_keypair(bits=bits, rng=random.Random(bits))
            assert abs(kp.bits - bits) <= 1

    def test_tiny_modulus_rejected(self):
        with pytest.raises(CryptoError):
            generate_rsa_keypair(bits=8)

    def test_cryptogram_size(self, keypair):
        assert keypair.cryptogram_size_bytes() == (keypair.bits + 7) // 8


class TestIntegerEncryption:
    def test_roundtrip_small_values(self, cipher):
        for m in (0, 1, 2, 12345, 10**9):
            assert cipher.decrypt_int(cipher.encrypt_int(m)) == m

    @given(st.integers(min_value=0, max_value=2**100))
    @settings(max_examples=100)
    def test_roundtrip_property(self, m):
        cipher = RSA(generate_rsa_keypair(bits=128, rng=random.Random(42)))
        m %= cipher.modulus
        assert cipher.decrypt_int(cipher.encrypt_int(m)) == m

    @given(
        bits=st.integers(min_value=16, max_value=256),
        seed=st.integers(min_value=0, max_value=2**32),
        c=st.integers(min_value=0, max_value=2**256),
    )
    @settings(max_examples=40, deadline=None)
    def test_garner_decrypt_equals_plain_pow(self, bits, seed, c):
        keypair = generate_rsa_keypair(bits=bits, rng=random.Random(seed))
        c %= keypair.n
        assert RSA(keypair).decrypt_int(c) == pow(c, keypair.d, keypair.n)

    def test_out_of_range_rejected(self, cipher):
        with pytest.raises(MessageRangeError):
            cipher.encrypt_int(-1)
        with pytest.raises(MessageRangeError):
            cipher.encrypt_int(cipher.modulus)
        with pytest.raises(MessageRangeError):
            cipher.decrypt_int(cipher.modulus + 5)

    def test_deterministic_permutation(self, cipher):
        # raw RSA is a fixed permutation of Z_n (the paper's usage keeps
        # all parameters secret, so determinism is by design)
        assert cipher.encrypt_int(99) == cipher.encrypt_int(99)
        assert cipher.encrypt_int(98) != cipher.encrypt_int(99)


class TestByteEncryption:
    def test_roundtrip(self, cipher):
        for payload in (b"", b"x", b"hello world", bytes(range(256))):
            assert cipher.decrypt_bytes(cipher.encrypt_bytes(payload)) == payload

    def test_leading_zeros_survive(self, cipher):
        payload = b"\x00\x00\x00data"
        assert cipher.decrypt_bytes(cipher.encrypt_bytes(payload)) == payload

    def test_corrupt_framing_detected(self, cipher):
        cryptograms = cipher.encrypt_bytes(b"payload")
        # encrypting an unframed integer produces a chunk without the 0x01 tag
        bogus = [cipher.encrypt_int(0)]
        with pytest.raises(CryptoError):
            cipher.decrypt_bytes(bogus)
        assert cipher.decrypt_bytes(cryptograms) == b"payload"
