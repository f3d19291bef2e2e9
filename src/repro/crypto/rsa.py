"""The RSA cryptosystem, used in the paper's *private-parameter* mode.

Section 5 of the paper selects RSA ("exponentiation modulus") for
encrypting tree pointers and data pointers, and stresses an unusual usage
mode: *"when the RSA cryptosystem is used to encrypt a message and none of
the encryption parameters are made public, then the attacks by opponents
are made considerably harder"*.  In other words RSA is deployed here as a
keyed permutation over ``Z_N`` with **no** public key -- the modulus,
both exponents and the factorisation are all secret.

This module implements key generation (random primes via Miller--Rabin),
raw integer encryption, decryption by the Chinese remainder theorem in
Garner's form, and a byte-oriented wrapper for enciphering data blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.base import IntegerCipher
from repro.crypto.numbers import modinv, random_prime
from repro.exceptions import CryptoError, MessageRangeError

#: Default encryption exponent; kept secret in the paper's usage mode, so
#: the traditional "small public e" concern does not apply, but 65537 still
#: guarantees gcd(e, phi) checks are cheap.
DEFAULT_EXPONENT = 65537


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key with full private material retained.

    In the paper's deployment *every* field is secret; the split into
    "public" and "private" halves is kept only for API familiarity.
    """

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def bits(self) -> int:
        """Size of the modulus in bits."""
        return self.n.bit_length()

    @property
    def max_plaintext(self) -> int:
        """Largest integer this key can encrypt (``n - 1``)."""
        return self.n - 1

    def cryptogram_size_bytes(self) -> int:
        """Bytes needed to store one cryptogram (drives experiment C2)."""
        return (self.n.bit_length() + 7) // 8


def generate_rsa_keypair(
    bits: int = 256,
    e: int = DEFAULT_EXPONENT,
    rng: random.Random | None = None,
) -> RSAKeyPair:
    """Generate an RSA key pair with a modulus of roughly ``bits`` bits.

    ``rng`` defaults to a deterministically seeded generator so that test
    runs and benchmark tables are reproducible; pass your own
    ``random.Random`` (or ``random.SystemRandom``) to vary keys.
    """
    if bits < 16:
        raise CryptoError(f"modulus of {bits} bits is too small for RSA")
    rng = rng or random.Random(0x52534131)
    half = bits // 2
    while True:
        p = random_prime(half, rng)
        q = random_prime(bits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(e, phi)
        except CryptoError:
            continue
        return RSAKeyPair(n=p * q, e=e, d=d, p=p, q=q)


class RSA(IntegerCipher):
    """Raw RSA over integers in ``[0, n)``.

    Raw (textbook) RSA is deterministic and, with public parameters, would
    be malleable; the paper's threat model keeps all parameters secret, so
    the determinism is the same as any keyed permutation's.  Known
    weaknesses of this mode are discussed in DESIGN.md.
    """

    def __init__(self, keypair: RSAKeyPair) -> None:
        self.keypair = keypair
        self.modulus = keypair.n
        # Garner's CRT constants, derived once per key: a decrypt is then
        # two half-size exponentiations and one multiply mod p.
        self._dp = keypair.d % (keypair.p - 1)
        self._dq = keypair.d % (keypair.q - 1)
        self._qinv = modinv(keypair.q, keypair.p)

    def encrypt_int(self, m: int) -> int:
        """Return ``m**e mod n``."""
        if not 0 <= m < self.modulus:
            raise MessageRangeError(
                f"plaintext {m} out of range [0, {self.modulus})"
            )
        return pow(m, self.keypair.e, self.modulus)

    def decrypt_int(self, c: int) -> int:
        """Return ``c**d mod n`` by Garner's CRT.

        ``m = mq + ((mp - mq) * q^-1 mod p) * q`` with ``mp = c^dp mod p``
        and ``mq = c^dq mod q``; equal to ``pow(c, d, n)``.
        """
        if not 0 <= c < self.modulus:
            raise MessageRangeError(
                f"ciphertext {c} out of range [0, {self.modulus})"
            )
        kp = self.keypair
        mp = pow(c % kp.p, self._dp, kp.p)
        mq = pow(c % kp.q, self._dq, kp.q)
        return mq + (mp - mq) * self._qinv % kp.p * kp.q

    # -- byte-oriented helpers for data blocks ------------------------------

    def chunk_size(self) -> int:
        """Largest byte-chunk guaranteed to be < n when 0x01-prefixed."""
        return (self.modulus.bit_length() - 1) // 8 - 1

    def encrypt_bytes(self, data: bytes) -> list[int]:
        """Encrypt arbitrary bytes as a list of cryptogram integers.

        Each chunk is prefixed with a 0x01 byte before conversion so that
        leading zero bytes survive the integer round-trip.
        """
        size = self.chunk_size()
        if size < 1:
            raise CryptoError("modulus too small to encrypt bytes")
        out = []
        for start in range(0, len(data), size):
            chunk = b"\x01" + data[start : start + size]
            out.append(self.encrypt_int(int.from_bytes(chunk, "big")))
        return out

    def decrypt_bytes(self, cryptograms: list[int]) -> bytes:
        """Invert :meth:`encrypt_bytes`."""
        out = bytearray()
        for c in cryptograms:
            m = self.decrypt_int(c)
            raw = m.to_bytes((m.bit_length() + 7) // 8, "big")
            if not raw or raw[0] != 0x01:
                raise CryptoError("RSA chunk framing corrupted")
            out.extend(raw[1:])
        return bytes(out)
