"""The Data Encryption Standard (FIPS PUB 46): the cipher, three kernels.

The paper (section 5) names DES as one of the two cryptosystems suitable
for enciphering node blocks and data blocks: *"The DES can be used to
encrypt data segments or blocks of 64 bits"*.  This module implements the
full 16-round cipher -- initial/final permutations, key schedule (PC-1,
PC-2, rotation schedule), expansion, the eight S-boxes and permutation P --
directly from the standard, and runs it on OpenSSL when the
``cryptography`` package is installed.

Three kernels compute the cipher (benchmark C10 compares them; they are
byte-identical on every input):

* :class:`ReferenceDESKernel` -- the clarity-first reading of FIPS 46:
  every permutation is applied bit by bit straight from the printed
  tables.  Kept as the executable specification the known-answer tests
  pin down; the tests and C10 call it directly, it is not selectable.
* ``"fast"`` -- the same 16 rounds around precomputed lookup tables:
  byte-wide LUTs for IP/FP/E, the eight S-boxes fused with permutation P
  into eight 64-entry -> 32-bit SP tables, the key schedule (forward
  *and* reversed) derived once per key object, and one round loop that
  serves every entry point: :meth:`DES.encrypt_blocks`,
  :meth:`DES.decrypt_blocks` and the CBC chain
  :meth:`DES.cbc_encrypt_blocks` run a whole node or record block in one
  Python call, and a single block is a one-block call.  Pure Python, so
  it needs no dependency.
* ``"openssl"`` (requires ``cryptography``; see :class:`OpenSSLDESKernel`)
  -- the same calls run by OpenSSL, as triple DES with the key repeated
  three times: EDE with K1 = K2 = K3 is single DES.  No Python key
  schedule is derived for it.  Falls back to ``"fast"`` when
  ``cryptography`` is absent.

The platform alone picks the default kernel (:func:`default_kernel`):
``"openssl"`` when ``cryptography`` imports, else ``"fast"``.  A single
:class:`DES` object may ask for another with ``kernel=``.
"""

from __future__ import annotations

import os
import sys
import threading
from array import array
from functools import cached_property

from repro.crypto.base import BlockCipher
from repro.exceptions import KeyError_, MessageRangeError

try:  # the openssl kernel needs cryptography; "fast" is the ceiling without it
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
    from cryptography.hazmat.primitives.ciphers import Cipher
    from cryptography.hazmat.primitives.ciphers.modes import CBC, ECB
except ImportError:  # exercised by the cryptography-free CI job
    TripleDES = None

# --------------------------------------------------------------------------
# FIPS 46 tables.  Entries are 1-based bit positions, MSB first, exactly as
# printed in the standard.
# --------------------------------------------------------------------------

_IP = (
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
)

_FP = (
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
)

_E = (
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
)

_P = (
    16, 7, 20, 21, 29, 12, 28, 17,
    1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9,
    19, 13, 30, 6, 22, 11, 4, 25,
)

_PC1 = (
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
)

_PC2 = (
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
)

_ROTATIONS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)

_SBOXES = (
    (
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ),
    (
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ),
    (
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ),
    (
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ),
    (
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ),
    (
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ),
    (
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ),
    (
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ),
)


def _permute(value: int, width: int, table: tuple[int, ...]) -> int:
    """Apply a FIPS permutation table to ``value`` of ``width`` bits.

    Table entries are 1-based positions counted from the most significant
    bit, as printed in the standard.  Used directly for the (rare) key
    schedule; the per-block hot path uses byte lookup tables built from
    the same FIPS tables below.
    """
    out = 0
    for position in table:
        out = (out << 1) | ((value >> (width - position)) & 1)
    return out


def _build_byte_luts(table: tuple[int, ...], in_width: int) -> list[list[int]]:
    """Compile a permutation table into per-input-byte lookup tables.

    ``result[i][b]`` is the output contribution of input byte ``i`` having
    value ``b``; OR-ing the contributions of all bytes applies the full
    permutation in ``in_width/8`` lookups instead of ``len(table)`` bit
    operations.
    """
    nbytes = in_width // 8
    out_len = len(table)
    luts = [[0] * 256 for _ in range(nbytes)]
    for out_pos, src in enumerate(table):
        src_idx = src - 1
        byte_idx = src_idx // 8
        bit_in_byte = 7 - (src_idx % 8)
        out_bit = 1 << (out_len - 1 - out_pos)
        for val in range(256):
            if (val >> bit_in_byte) & 1:
                luts[byte_idx][val] |= out_bit
    return luts


_IP_LUT: list[list[int]]
_FP_LUT: list[list[int]]
_E_LUT: list[list[int]]
_SP: list[list[int]]


def _build_sp_boxes() -> list[list[int]]:
    """Fuse each S-box with the P permutation: ``SP[i][chunk]`` is the
    32-bit post-P contribution of S-box ``i`` on a 6-bit input chunk."""
    sp = []
    for i, sbox in enumerate(_SBOXES):
        entries = []
        for chunk in range(64):
            row = ((chunk >> 4) & 0b10) | (chunk & 1)
            col = (chunk >> 1) & 0xF
            pre_p = sbox[row * 16 + col] << (28 - 4 * i)
            entries.append(_permute(pre_p, 32, _P))
        sp.append(entries)
    return sp


_IP_LUT = _build_byte_luts(_IP, 64)
_FP_LUT = _build_byte_luts(_FP, 64)
_E_LUT = _build_byte_luts(_E, 32)
_SP = _build_sp_boxes()

_LITTLE_ENDIAN = sys.byteorder == "little"
_MASK64 = (1 << 64) - 1


def _rotate28(value: int, amount: int) -> int:
    """Left-rotate a 28-bit quantity."""
    return ((value << amount) | (value >> (28 - amount))) & 0xFFFFFFF


#: Times the 16-round key schedule has been derived since import.  The
#: regression tests assert this grows once per key object -- never per
#: block -- so a chaining mode streaming ten thousand blocks through one
#: key costs exactly one derivation.  Lock-guarded: ``+= 1`` on a global
#: is not atomic, and concurrent client threads construct DES objects.
_SCHEDULE_DERIVATIONS = 0
_schedule_lock = threading.Lock()


def _reset_schedule_lock_after_fork() -> None:
    # A forked child inherits this lock
    # in whatever state some *other* parent thread held it; its first
    # DES construction would then deadlock.  The child is single-threaded
    # at birth, so a fresh lock is always the correct state.
    global _schedule_lock
    _schedule_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only, like fork itself
    os.register_at_fork(after_in_child=_reset_schedule_lock_after_fork)


def schedule_derivations() -> int:
    """How many key schedules have been derived process-wide."""
    with _schedule_lock:
        return _SCHEDULE_DERIVATIONS


def _key_schedule(key64: int) -> tuple[int, ...]:
    """Derive the sixteen 48-bit round subkeys (PC-1, rotations, PC-2)."""
    global _SCHEDULE_DERIVATIONS
    with _schedule_lock:
        _SCHEDULE_DERIVATIONS += 1
    cd = _permute(key64, 64, _PC1)
    c = cd >> 28
    d = cd & 0xFFFFFFF
    subkeys = []
    for shift in _ROTATIONS:
        c = _rotate28(c, shift)
        d = _rotate28(d, shift)
        subkeys.append(_permute((c << 28) | d, 56, _PC2))
    return tuple(subkeys)


# --------------------------------------------------------------------------
# Kernels: three computations of the same cipher.
# --------------------------------------------------------------------------


class ReferenceDESKernel:
    """Clarity-first kernel: every permutation applied bit by bit.

    This is the executable specification -- each step reads directly off
    the FIPS 46 tables via :func:`_permute`, paying ``len(table)`` bit
    operations per permutation.  The fast and openssl kernels must match
    it byte for byte on every input (asserted by the kernel-parity tests
    and by benchmark C10).  Not selectable through :class:`DES`: callers that
    want the oracle call :meth:`crypt_block` / :meth:`crypt_blocks` with
    a schedule from :func:`_key_schedule`.
    """

    #: Runs the FIPS steps on bare subkeys: swapped into any :class:`DES`
    #: object, it never gets OpenSSL contexts.
    bare_subkeys = True

    @staticmethod
    def _feistel(right32: int, subkey48: int) -> int:
        """The f-function exactly as printed: E, key mix, S-boxes, P."""
        expanded = _permute(right32, 32, _E) ^ subkey48
        out = 0
        for i in range(8):
            chunk = (expanded >> (42 - 6 * i)) & 0x3F
            row = ((chunk >> 4) & 0b10) | (chunk & 1)
            col = (chunk >> 1) & 0xF
            out = (out << 4) | _SBOXES[i][row * 16 + col]
        return _permute(out, 32, _P)

    @classmethod
    def crypt_block(cls, block64: int, subkeys: tuple[int, ...]) -> int:
        block64 = _permute(block64, 64, _IP)
        left = block64 >> 32
        right = block64 & 0xFFFFFFFF
        for subkey in subkeys:
            left, right = right, left ^ cls._feistel(right, subkey)
        # Final swap: the last round's halves are exchanged before FP.
        return _permute((right << 32) | left, 64, _FP)

    @classmethod
    def crypt_blocks(cls, data: bytes, subkeys: tuple[int, ...]) -> bytes:
        out = bytearray(len(data))
        for off in range(0, len(data), 8):
            value = cls.crypt_block(int.from_bytes(data[off : off + 8], "big"), subkeys)
            out[off : off + 8] = value.to_bytes(8, "big")
        return bytes(out)

    @classmethod
    def cbc_encrypt(cls, data: bytes, subkeys: tuple[int, ...], iv: bytes) -> bytes:
        """CBC as printed: block i enciphers plaintext i XOR output i-1."""
        out = bytearray(len(data))
        previous = int.from_bytes(iv, "big")
        for off in range(0, len(data), 8):
            block = int.from_bytes(data[off : off + 8], "big") ^ previous
            previous = cls.crypt_block(block, subkeys)
            out[off : off + 8] = previous.to_bytes(8, "big")
        return bytes(out)


class FastDESKernel:
    """LUT kernel: byte-wide IP/FP/E tables and fused SP boxes.

    :meth:`crypt_blocks` and :meth:`cbc_encrypt` share one loop -- one
    Python call per *buffer* rather than per block, with every table
    bound to a local and the E/SP round function inlined into the block
    loop.  Benchmark C10 measures the resulting blocks/sec.
    """

    name = "fast"

    @staticmethod
    def crypt_blocks(data: bytes, subkeys: tuple[int, ...]) -> bytes:
        return FastDESKernel._bulk(data, subkeys, None)

    @staticmethod
    def cbc_encrypt(data: bytes, subkeys: tuple[int, ...], iv: bytes) -> bytes:
        return FastDESKernel._bulk(data, subkeys, iv)

    @staticmethod
    def _bulk(data: bytes, subkeys: tuple[int, ...], iv: bytes | None) -> bytes:
        """ECB over ``data``, or CBC encryption chained from ``iv``.

        CBC needs no second loop.  IP is a bit permutation, so
        ``IP(P_i ^ C_(i-1)) = IP(P_i) ^ IP(C_(i-1))``, and since FP is
        IP's inverse, ``IP(C_(i-1))`` is block i-1's state just before
        FP.  So each block's permuted input is XORed with the previous
        block's pre-FP state (``IP(iv)`` for the first); ECB masks that
        state to zero.
        """
        ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _IP_LUT
        fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _FP_LUT
        e0, e1, e2, e3 = _E_LUT
        sp0, sp1, sp2, sp3, sp4, sp5, sp6, sp7 = _SP
        state = keep = 0
        if iv is not None:
            keep = _MASK64
            for lut, byte in zip(_IP_LUT, iv):
                state |= lut[byte]
        out = array("Q")
        append = out.append
        it = iter(data)
        for b0, b1, b2, b3, b4, b5, b6, b7 in zip(it, it, it, it, it, it, it, it):
            v = (
                ip0[b0] | ip1[b1] | ip2[b2] | ip3[b3]
                | ip4[b4] | ip5[b5] | ip6[b6] | ip7[b7]
            ) ^ state
            left = v >> 32
            right = v & 0xFFFFFFFF
            for subkey in subkeys:
                x = (
                    e0[(right >> 24) & 0xFF]
                    | e1[(right >> 16) & 0xFF]
                    | e2[(right >> 8) & 0xFF]
                    | e3[right & 0xFF]
                ) ^ subkey
                left, right = right, left ^ (
                    sp0[(x >> 42) & 0x3F]
                    | sp1[(x >> 36) & 0x3F]
                    | sp2[(x >> 30) & 0x3F]
                    | sp3[(x >> 24) & 0x3F]
                    | sp4[(x >> 18) & 0x3F]
                    | sp5[(x >> 12) & 0x3F]
                    | sp6[(x >> 6) & 0x3F]
                    | sp7[x & 0x3F]
                )
            # Final swap: the last round's halves are exchanged before FP.
            v = (right << 32) | left
            state = v & keep
            append(
                fp0[v >> 56]
                | fp1[(v >> 48) & 0xFF]
                | fp2[(v >> 40) & 0xFF]
                | fp3[(v >> 32) & 0xFF]
                | fp4[(v >> 24) & 0xFF]
                | fp5[(v >> 16) & 0xFF]
                | fp6[(v >> 8) & 0xFF]
                | fp7[v & 0xFF]
            )
        if _LITTLE_ENDIAN:
            out.byteswap()
        return out.tobytes()


class _OpenSSLKey:
    """One direction of a key on OpenSSL, with an ECB context per thread.

    A ``cryptography`` cipher context is not re-entrant: two threads
    updating one context race (it raises ``RuntimeError('Already
    borrowed')``), and record reads decipher outside every lock.  So each
    thread keeps its own ECB context in a :class:`threading.local`, made
    on its first call.  A forked child keeps only the forking thread's
    contexts, which no other thread was using.
    """

    __slots__ = ("algorithm", "decrypt", "_local")

    def __init__(self, algorithm, decrypt: bool) -> None:
        self.algorithm = algorithm
        self.decrypt = decrypt
        self._local = threading.local()

    def ecb(self):
        """This thread's ECB context, in this key's direction."""
        try:
            return self._local.context
        except AttributeError:
            cipher = Cipher(self.algorithm, ECB())
            context = cipher.decryptor() if self.decrypt else cipher.encryptor()
            self._local.context = context
            return context


class OpenSSLDESKernel:
    """OpenSSL kernel: the engine's DES calls run by ``cryptography``.

    The key is ``TripleDES(key * 3)``: EDE with three equal keys is
    single DES (E, then D and E under the same key), and the 24-byte form
    raises no deprecation warning where an 8-byte key would.  OpenSSL
    checks neither parity nor weak keys, like the other kernels.  ECB
    runs on a reused per-thread context (:class:`_OpenSSLKey`); a CBC
    encryption needs a fresh context for its IV.
    """

    name = "openssl"

    @staticmethod
    def keys(key: bytes) -> tuple[_OpenSSLKey, _OpenSSLKey]:
        """The ``(encrypt, decrypt)`` schedules of ``key``."""
        algorithm = TripleDES(key * 3)
        return _OpenSSLKey(algorithm, False), _OpenSSLKey(algorithm, True)

    @staticmethod
    def crypt_blocks(data: bytes, keys: _OpenSSLKey) -> bytes:
        return keys.ecb().update(data)

    @staticmethod
    def cbc_encrypt(data: bytes, keys: _OpenSSLKey, iv: bytes) -> bytes:
        return Cipher(keys.algorithm, CBC(iv)).encryptor().update(data)


_KERNELS: dict[str, type] = {FastDESKernel.name: FastDESKernel}
if TripleDES is not None:
    _KERNELS[OpenSSLDESKernel.name] = OpenSSLDESKernel


def openssl_available() -> bool:
    """True iff ``cryptography`` imported and the openssl kernel registered."""
    return OpenSSLDESKernel.name in _KERNELS


def _resolve_kernel(name: str) -> str:
    """Map a requested kernel name onto an available one.

    ``"openssl"`` degrades to ``"fast"`` -- the best available
    byte-identical kernel -- when ``cryptography`` is absent.  Anything
    else unknown raises, because a typo (or a removed kernel) should fail
    loudly rather than silently encrypt with a different kernel than the
    caller asked for.
    """
    if name in _KERNELS:
        return name
    if name == OpenSSLDESKernel.name:
        return FastDESKernel.name
    raise KeyError_(f"kernel must be one of {sorted(_KERNELS)}, got {name!r}")


#: The best available kernel, fixed at import by the platform alone.
_DEFAULT_KERNEL = _resolve_kernel(OpenSSLDESKernel.name)


def default_kernel() -> str:
    """The kernel new :class:`DES` objects use when ``kernel=None``:
    ``"openssl"`` when ``cryptography`` imports, else ``"fast"``."""
    return _DEFAULT_KERNEL


class DES(BlockCipher):
    """FIPS-46 DES over 8-byte blocks.

    Parameters
    ----------
    key:
        The 8-byte DES key.  Parity bits are *not* checked by default
        (most software implementations ignore them); pass
        ``enforce_parity=True`` to require odd parity per byte.
    kernel:
        ``"openssl"`` or ``"fast"``; ``None`` (default) uses
        :func:`default_kernel`.  Both produce byte-identical ciphertext;
        ``"openssl"`` requires ``cryptography`` and degrades to
        ``"fast"`` without it.
    """

    block_size = 8

    def __init__(
        self,
        key: bytes,
        enforce_parity: bool = False,
        kernel: str | None = None,
    ) -> None:
        if len(key) != 8:
            raise KeyError_(f"DES key must be 8 bytes, got {len(key)}")
        if enforce_parity and not self.has_odd_parity(key):
            raise KeyError_("DES key fails odd-parity check")
        name = _DEFAULT_KERNEL if kernel is None else _resolve_kernel(kernel)
        self.key = key
        self.kernel = name
        self._kernel = _KERNELS[name]
        #: ``(encrypt, decrypt)`` :class:`_OpenSSLKey` schedules, on the
        #: openssl kernel only.
        self._contexts = (
            OpenSSLDESKernel.keys(key) if self._kernel is OpenSSLDESKernel else None
        )
        if self._contexts is None:
            self._subkeys  # a Python kernel: derive the schedule now

    # -- key schedule ------------------------------------------------------

    # Both directions of the Python schedule, derived at most once per key
    # object: decryption runs the same rounds with the subkeys reversed,
    # and re-reversing (or re-deriving) per block is the classic per-block
    # overhead benchmark C10 eliminates.  An openssl object derives them
    # only if a Python kernel is swapped in.

    @cached_property
    def _subkeys(self) -> tuple[int, ...]:
        return _key_schedule(int.from_bytes(self.key, "big"))

    @cached_property
    def _subkeys_dec(self) -> tuple[int, ...]:
        return self._subkeys[::-1]

    @staticmethod
    def has_odd_parity(key: bytes) -> bool:
        """True iff every byte of ``key`` has an odd number of set bits."""
        return all(bin(b).count("1") % 2 == 1 for b in key)

    @staticmethod
    def fix_parity(key: bytes) -> bytes:
        """Return ``key`` with the low bit of each byte set to odd parity."""
        fixed = bytearray()
        for b in key:
            if bin(b >> 1).count("1") % 2 == 0:
                fixed.append((b & 0xFE) | 1)
            else:
                fixed.append(b & 0xFE)
        return bytes(fixed)

    # -- public API --------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block (a one-block bulk call)."""
        if len(block) != 8:
            raise MessageRangeError(f"DES block must be 8 bytes, got {len(block)}")
        return self._kernel.crypt_blocks(block, self._keys(False))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block (a one-block bulk call)."""
        if len(block) != 8:
            raise MessageRangeError(f"DES block must be 8 bytes, got {len(block)}")
        return self._kernel.crypt_blocks(block, self._keys(True))

    # -- bulk API ----------------------------------------------------------

    def _keys(self, decrypt: bool):
        """What the kernel runs on: OpenSSL contexts, else subkeys.

        The reference kernel, swapped in by a test or benchmark, always
        gets bare subkeys; a stand-in that declares nothing is taken to
        wrap the object's own kernel and pass the schedule through.
        """
        if self._contexts is not None and not getattr(
            self._kernel, "bare_subkeys", False
        ):
            return self._contexts[decrypt]
        return self._subkeys_dec if decrypt else self._subkeys

    def encrypt_blocks(self, blocks) -> bytes:
        """Encrypt a whole buffer (or sequence) of 8-byte blocks in ECB.

        One kernel call for the entire buffer, which is where the bulk
        path's throughput advantage over per-block calls comes from.
        """
        data = self._as_buffer(blocks)
        return self._kernel.crypt_blocks(data, self._keys(False))

    def decrypt_blocks(self, blocks) -> bytes:
        """Decrypt a whole buffer (or sequence) of 8-byte blocks in ECB."""
        data = self._as_buffer(blocks)
        return self._kernel.crypt_blocks(data, self._keys(True))

    def cbc_encrypt_blocks(self, blocks, iv: bytes) -> bytes:
        """CBC-encrypt whole blocks chained from ``iv``, in one kernel call."""
        if len(iv) != 8:
            raise MessageRangeError(f"DES IV must be 8 bytes, got {len(iv)}")
        data = self._as_buffer(blocks)
        return self._kernel.cbc_encrypt(data, self._keys(False), iv)
