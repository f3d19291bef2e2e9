"""Number-theoretic helpers used throughout the cryptographic substrate.

This module provides the arithmetic the paper leans on:

* primality testing (deterministic Miller--Rabin for 64-bit inputs,
  probabilistic beyond) for RSA key generation and for choosing the prime
  modulus ``N`` of the exponentiation disguise (paper section 4.2);
* primitive-root search, because section 4.2 requires ``g`` to be *"a
  primitive element in Z_N"*;
* modular inverses, used to invert the line-to-oval multiplier ``t mod v``
  (paper section 4.1);
* discrete logarithms over small prime moduli (baby-step giant-step), used
  by the legal user of the exponentiation disguise to map a search key back
  to its treatment exponent.

All functions operate on plain Python integers and are deterministic unless
an explicit ``rng`` is supplied.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

from repro.exceptions import CryptoError

#: Witnesses that make Miller--Rabin deterministic for n < 3.3 * 10^24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``.

    >>> egcd(240, 46)
    (2, -9, 47)
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises :class:`CryptoError` when ``gcd(a, m) != 1``, which in the oval
    scheme signals an invalid line-to-oval multiplier.
    """
    if m <= 0:
        raise CryptoError(f"modulus must be positive, got {m}")
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise CryptoError(f"{a} has no inverse modulo {m} (gcd={g})")
    return x % m


def _miller_rabin_round(n: int, d: int, r: int, a: int) -> bool:
    """One Miller--Rabin round; ``True`` means *probably prime* for base a."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rng: random.Random | None = None, rounds: int = 24) -> bool:
    """Primality test.

    Deterministic (fixed witness set) for ``n < 3.3e24``; for larger inputs
    falls back to ``rounds`` random Miller--Rabin bases drawn from ``rng``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 3_317_044_064_679_887_385_961_981:
        witnesses: tuple[int, ...] | list[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = rng or random.Random(0xD1F5)
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]
    return all(_miller_rabin_round(n, d, r, a % n or 2) for a in witnesses)


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``.

    >>> next_prime(13)
    17
    """
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def random_prime(bits: int, rng: random.Random) -> int:
    """Return a random prime of exactly ``bits`` bits.

    Used by RSA key generation.  The top two bits are forced so the product
    of two such primes has exactly ``2*bits`` bits, and the bottom bit is
    forced so candidates are odd.
    """
    if bits < 2:
        raise CryptoError("a prime needs at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_prime(candidate, rng=rng):
            return candidate


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorisation; returns ``{prime: exponent}``.

    Intended for the small-to-medium moduli used by the disguising schemes
    (``v`` and ``N`` are bounded by the key universe, not by cryptographic
    key sizes), not for RSA-scale integers.
    """
    if n < 1:
        raise CryptoError(f"cannot factorise {n}")
    factors: dict[int, int] = {}
    remaining = n
    for p in (2, 3):
        while remaining % p == 0:
            factors[p] = factors.get(p, 0) + 1
            remaining //= p
    f = 5
    while f * f <= remaining:
        for p in (f, f + 2):
            while remaining % p == 0:
                factors[p] = factors.get(p, 0) + 1
                remaining //= p
        f += 6
    if remaining > 1:
        factors[remaining] = factors.get(remaining, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Euler's totient of ``n`` via factorisation."""
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def multiplicative_order(a: int, n: int) -> int:
    """Return the multiplicative order of ``a`` modulo ``n``.

    Raises :class:`CryptoError` if ``gcd(a, n) != 1``.
    """
    a %= n
    if gcd(a, n) != 1:
        raise CryptoError(f"{a} is not a unit modulo {n}")
    order = euler_phi(n)
    for p, e in factorize(order).items():
        for _ in range(e):
            if pow(a, order // p, n) == 1:
                order //= p
            else:
                break
    return order


def is_primitive_root(g: int, p: int) -> bool:
    """True iff ``g`` generates the multiplicative group of ``Z_p`` (p prime).

    >>> is_primitive_root(7, 13)
    True
    >>> is_primitive_root(3, 13)
    False
    """
    if not is_prime(p):
        raise CryptoError(f"{p} is not prime")
    g %= p
    if g == 0:
        return False
    return multiplicative_order(g, p) == p - 1


def primitive_root(p: int, avoid: frozenset[int] = frozenset()) -> int:
    """Return the smallest primitive root of prime ``p`` not in ``avoid``.

    >>> primitive_root(13)
    2
    >>> primitive_root(13, avoid=frozenset({2, 6}))
    7
    """
    if not is_prime(p):
        raise CryptoError(f"{p} is not prime")
    if p == 2:
        return 1
    phi_factors = list(factorize(p - 1))
    for g in range(2, p):
        if g in avoid:
            continue
        if all(pow(g, (p - 1) // q, p) != 1 for q in phi_factors):
            return g
    raise CryptoError(f"no primitive root of {p} outside {sorted(avoid)}")


def discrete_log(g: int, h: int, p: int) -> int:
    """Return ``x`` with ``g**x == h (mod p)`` via baby-step giant-step.

    This is what the *legal user* of the exponentiation disguise computes
    (cheaply, because they know ``g`` and ``N`` and the modulus is sized to
    the key universe).  Complexity is ``O(sqrt(p))`` time and space.

    Raises :class:`CryptoError` when no logarithm exists.
    """
    g %= p
    h %= p
    if h == 1:
        return 0
    m = isqrt(p) + 1
    baby: dict[int, int] = {}
    e = 1
    for j in range(m):
        baby.setdefault(e, j)
        e = e * g % p
    # giant step factor: g^(-m)
    factor = pow(modinv(g, p), m, p)
    gamma = h
    for i in range(m + 1):
        if gamma in baby:
            return i * m + baby[gamma]
        gamma = gamma * factor % p
    raise CryptoError(f"no discrete log of {h} base {g} modulo {p}")
