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

A decrypt is the engine's per-node pointer cost.  Where ``libgmp`` loads
and the key's primes fit one machine word (every RSA-128 pointer key),
its two half-size exponentiations run on GMP's ``mpz_powm`` through
:mod:`ctypes`, several times faster than CPython's ``pow``; elsewhere
they run on ``pow``.  Both compute the same integers.
"""

from __future__ import annotations

import ctypes
import random
import threading
from dataclasses import dataclass

from repro.crypto.base import IntegerCipher
from repro.crypto.numbers import modinv, random_prime
from repro.exceptions import CryptoError, MessageRangeError

#: Default encryption exponent; kept secret in the paper's usage mode, so
#: the traditional "small public e" concern does not apply, but 65537 still
#: guarantees gcd(e, phi) checks are cheap.
DEFAULT_EXPONENT = 65537


class _MPZ(ctypes.Structure):
    """GMP's ``__mpz_struct``: allocated limbs, signed size, limb pointer."""

    _fields_ = [
        ("_mp_alloc", ctypes.c_int),
        ("_mp_size", ctypes.c_int),
        ("_mp_d", ctypes.c_void_p),
    ]


def _load_gmp():
    """Bind GMP's ``mpz`` calls, or return ``None``.

    The library is opened by soname: ``ctypes.util.find_library`` would
    start a subprocess at import.  It is a ``CDLL``, so every call
    releases the GIL; holding it (``PyDLL``) saved about 1 us per decrypt
    on one thread but cost 8% of the throughput of two client threads
    (canonical ``write_mixed``, one CPU).
    GMP serves only where ``unsigned long`` is one 64-bit limb, so that
    each CRT half passes through ``mpz_set_ui``/``mpz_get_ui``.
    """
    if ctypes.sizeof(ctypes.c_ulong) != 8:
        return None
    ptr, ulong = ctypes.c_void_p, ctypes.c_ulong
    calls = {}
    try:
        lib = ctypes.CDLL("libgmp.so.10")
        for name, argtypes, restype in (
            ("init", [ptr], None),
            ("set_ui", [ptr, ulong], None),
            ("get_ui", [ptr], ulong),
            ("powm", [ptr, ptr, ptr, ptr], None),
        ):
            calls[name] = call = getattr(lib, "__gmpz_" + name)
            call.argtypes, call.restype = argtypes, restype
    except (OSError, AttributeError):
        return None
    return calls


_gmp = _load_gmp()


class _GMPScratch(threading.local):
    """One thread's GMP integers for the two CRT halves of a decrypt.

    A ctypes call releases the GIL, and pointer reads decrypt under
    shared read locks, so no two threads may share these integers: each
    thread makes its own on first use.  A forked child keeps the forking
    thread's.  A thread loads a key's ``(p, dp, q, dq)`` once and keeps
    it until it decrypts under another key, so a decrypt under the
    loaded key makes six GMP calls.  The integers are one limb each and
    live as long as their thread.
    """

    def __init__(self) -> None:
        self._mpz = (_MPZ * 6)()
        addresses = [ctypes.addressof(z) for z in self._mpz]
        for address in addresses:
            _gmp["init"](address)
        self.out, self.base, self.dp, self.p, self.dq, self.q = addresses
        self.key = None

    def halves(self, c: int, key: tuple[int, int, int, int]) -> tuple[int, int]:
        """``(c^dp mod p, c^dq mod q)`` for ``key = (p, dp, q, dq)``."""
        set_ui, get_ui, powm = _gmp["set_ui"], _gmp["get_ui"], _gmp["powm"]
        if self.key is not key:
            self.key = None  # an interrupted load leaves nothing loaded
            p, dp, q, dq = key
            set_ui(self.p, p)
            set_ui(self.dp, dp)
            set_ui(self.q, q)
            set_ui(self.dq, dq)
            self.key = key
        out, base = self.out, self.base
        set_ui(base, c % key[0])
        powm(out, base, self.dp, self.p)
        mp = get_ui(out)
        set_ui(base, c % key[2])
        powm(out, base, self.dq, self.q)
        return mp, get_ui(out)


_scratch = _GMPScratch() if _gmp is not None else None


def gmp_available() -> bool:
    """True iff one-limb RSA keys decrypt on GMP in this process."""
    return _scratch is not None


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
        # plain ints only, so the key pickles.  GMP serves one-limb primes,
        # never a zero modulus: it would abort the process
        self._crt = (keypair.p, self._dp, keypair.q, self._dq)
        self._one_limb = 0 < keypair.p < 1 << 64 and 0 < keypair.q < 1 << 64

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
        and ``mq = c^dq mod q``; equal to ``pow(c, d, n)``.  The halves
        run on GMP's ``mpz_powm`` when :func:`gmp_available` and both
        primes fit one 64-bit limb, else on ``pow``.  Neither is constant
        time: ``mpz_powm`` (not ``mpz_powm_sec``) varies with its inputs
        just as ``pow`` does.  The range check runs first, so no
        unchecked value reaches GMP.
        """
        if not 0 <= c < self.modulus:
            raise MessageRangeError(
                f"ciphertext {c} out of range [0, {self.modulus})"
            )
        p, dp, q, dq = self._crt
        scratch = _scratch if self._one_limb else None
        if scratch is None:
            mp, mq = pow(c % p, dp, p), pow(c % q, dq, q)
        else:
            mp, mq = scratch.halves(c, self._crt)
        return mq + (mp - mq) * self._qinv % p * q

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
