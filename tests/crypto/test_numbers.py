"""Unit and property tests for the number-theory substrate."""

from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.numbers import (
    discrete_log,
    egcd,
    euler_phi,
    factorize,
    is_prime,
    is_primitive_root,
    modinv,
    multiplicative_order,
    next_prime,
    primitive_root,
    random_prime,
)
from repro.exceptions import CryptoError

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
SMALL_COMPOSITES = [1, 4, 6, 8, 9, 10, 12, 15, 21, 25, 27, 33, 49, 91, 121, 561, 1105]


class TestEgcd:
    def test_textbook_case(self):
        assert egcd(240, 46) == (2, -9, 47)

    def test_bezout_identity(self):
        for a, b in [(12, 18), (35, 64), (0, 5), (7, 0), (1, 1)]:
            g, x, y = egcd(a, b)
            assert a * x + b * y == g
            assert g == gcd(a, b)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_bezout_property(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g == gcd(a, b)


class TestModinv:
    def test_known_inverse(self):
        # the paper's oval multiplier: 7^{-1} mod 13 = 2 (7*2 = 14 = 1)
        assert modinv(7, 13) == 2

    def test_inverse_roundtrip(self):
        for m in [13, 21, 57, 100, 101]:
            for a in range(1, m):
                if gcd(a, m) == 1:
                    assert a * modinv(a, m) % m == 1

    def test_non_unit_rejected(self):
        with pytest.raises(CryptoError):
            modinv(6, 12)

    def test_nonpositive_modulus_rejected(self):
        with pytest.raises(CryptoError):
            modinv(3, 0)


class TestIsPrime:
    def test_small_primes(self):
        assert all(is_prime(p) for p in SMALL_PRIMES)

    def test_small_composites(self):
        assert not any(is_prime(c) for c in SMALL_COMPOSITES)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that fool weak tests
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)

    def test_large_known_prime(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**67 - 1)  # Mersenne composite (193707721 * ...)

    def test_negative_and_edge(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)


class TestNextPrime:
    def test_known_values(self):
        assert next_prime(13) == 17
        assert next_prime(0) == 2
        assert next_prime(2) == 3
        assert next_prime(89) == 97

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_result_is_prime_and_greater(self, n):
        p = next_prime(n)
        assert p > n
        assert is_prime(p)


class TestRandomPrime:
    def test_exact_bit_length(self):
        rng = random.Random(7)
        for bits in (8, 16, 32, 64):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_prime(p)

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            random_prime(1, random.Random(0))


class TestFactorize:
    def test_known_factorisations(self):
        assert factorize(1) == {}
        assert factorize(13) == {13: 1}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(91) == {7: 1, 13: 1}

    @given(st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_product_reconstructs(self, n):
        product = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            product *= p**e
        assert product == n


class TestEulerPhi:
    def test_known_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(13) == 12
        assert euler_phi(12) == 4
        assert euler_phi(100) == 40

    def test_prime_phi(self):
        for p in SMALL_PRIMES:
            assert euler_phi(p) == p - 1


class TestMultiplicativeOrder:
    def test_paper_generator(self):
        # 7 is primitive mod 13: order 12
        assert multiplicative_order(7, 13) == 12

    def test_order_divides_phi(self):
        for n in (13, 21, 100):
            for a in range(1, n):
                if gcd(a, n) == 1:
                    order = multiplicative_order(a, n)
                    assert euler_phi(n) % order == 0
                    assert pow(a, order, n) == 1

    def test_non_unit_rejected(self):
        with pytest.raises(CryptoError):
            multiplicative_order(3, 12)


class TestPrimitiveRoot:
    def test_paper_case(self):
        # the paper uses g = 7 with N = 13
        assert is_primitive_root(7, 13)

    def test_non_root(self):
        assert not is_primitive_root(3, 13)  # ord(3) = 3
        assert not is_primitive_root(0, 13)

    def test_smallest_roots(self):
        assert primitive_root(13) == 2
        assert primitive_root(23) == 5
        assert primitive_root(2) == 1

    def test_avoid_set(self):
        g = primitive_root(13, avoid=frozenset({2, 6}))
        assert g not in (2, 6)
        assert is_primitive_root(g, 13)

    def test_root_count(self):
        # a prime p has phi(p-1) primitive roots
        roots = [g for g in range(1, 13) if is_primitive_root(g, 13)]
        assert len(roots) == euler_phi(12)

    def test_composite_rejected(self):
        with pytest.raises(CryptoError):
            primitive_root(12)


class TestDiscreteLog:
    def test_paper_powers(self):
        # 7^x mod 13 table used in section 4.2
        for x in range(12):
            assert discrete_log(7, pow(7, x, 13), 13) == x

    def test_larger_modulus(self):
        p = 10007
        g = primitive_root(p)
        rng = random.Random(3)
        for _ in range(20):
            x = rng.randrange(p - 1)
            assert discrete_log(g, pow(g, x, p), p) == x

    def test_no_log_raises(self):
        # 3 generates a subgroup of order 3 in Z_13: {1, 3, 9}
        with pytest.raises(CryptoError):
            discrete_log(3, 2, 13)
