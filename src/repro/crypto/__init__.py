"""Cryptographic substrate for the enciphered B-Tree.

Everything here is implemented from scratch: number theory helpers, the
DES block cipher (FIPS 46; run on OpenSSL when the optional
``cryptography`` package is installed, see :mod:`repro.crypto.des`), the
RSA cryptosystem used in the paper's private-parameter mode, cipher modes,
a progressive (stream) cipher, the Bayer--Metzger page-key scheme, the
multilevel RSA key organisation of Hardjono & Seberry (ACSC 1989), and
Denning-style cryptographic checksums.

These primitives are *reference implementations for a reproduction study*.
They are faithful to the published algorithms and validated against test
vectors, but they are not constant-time and must not be used to protect
real data.
"""

from repro.crypto.numbers import (
    discrete_log,
    egcd,
    is_prime,
    is_primitive_root,
    modinv,
    multiplicative_order,
    next_prime,
    primitive_root,
    random_prime,
)
from repro.crypto.des import DES
from repro.crypto.rsa import RSAKeyPair, RSA, generate_rsa_keypair
from repro.crypto.modes import ECBCipher, CBCCipher, pad_pkcs7, unpad_pkcs7
from repro.crypto.stream import ProgressiveCipher
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.multilevel import MultilevelKeyScheme
from repro.crypto.checksum import CryptographicChecksum
from repro.crypto.base import BlockCipher, IntegerCipher, CountingCipher

__all__ = [
    "BlockCipher",
    "IntegerCipher",
    "CountingCipher",
    "CBCCipher",
    "CryptographicChecksum",
    "DES",
    "ECBCipher",
    "MultilevelKeyScheme",
    "PageKeyScheme",
    "ProgressiveCipher",
    "RSA",
    "RSAKeyPair",
    "discrete_log",
    "egcd",
    "generate_rsa_keypair",
    "is_prime",
    "is_primitive_root",
    "modinv",
    "multiplicative_order",
    "next_prime",
    "pad_pkcs7",
    "primitive_root",
    "random_prime",
    "unpad_pkcs7",
]
