"""The Data Encryption Standard (FIPS PUB 46), implemented from scratch.

The paper (section 5) names DES as one of the two cryptosystems suitable
for enciphering node blocks and data blocks: *"The DES can be used to
encrypt data segments or blocks of 64 bits"*.  No third-party crypto
library is available in this environment, so this module implements the
full 16-round cipher -- initial/final permutations, key schedule (PC-1,
PC-2, rotation schedule), expansion, the eight S-boxes and permutation P --
directly from the standard.

Three kernels compute the cipher (benchmark C10 compares them; they are
byte-identical on every input):

* :class:`ReferenceDESKernel` -- the clarity-first reading of FIPS 46:
  every permutation is applied bit by bit straight from the printed
  tables.  Kept as the executable specification the known-answer tests
  pin down; the tests and C10 call it directly, it is not selectable.
* ``"fast"`` -- the same 16 rounds around precomputed
  lookup tables: byte-wide LUTs for IP/FP/E, the eight S-boxes fused
  with permutation P into eight 64-entry -> 32-bit SP tables, the key
  schedule (forward *and* reversed) derived once per key object, and
  bulk-block entry points (:meth:`DES.encrypt_blocks` /
  :meth:`DES.decrypt_blocks`) that amortise Python call overhead over a
  whole node or record block.
* ``"vector"`` (requires numpy; see :mod:`repro.crypto.vector`) -- the
  fast kernel's tables applied as ndarray gathers over a ``uint64``
  vector of *all* blocks in the buffer, so the 16-round loop runs once
  per bulk call instead of once per block.  Buffers shorter than the
  measured crossover :data:`repro.crypto.vector.MIN_VECTOR_BLOCKS`
  delegate to ``"fast"``, so single blocks, short windows and CBC
  encryption (which chains block by block) run the fast kernel's code;
  a batch such as every slot window of a range search
  (:func:`repro.crypto.modes.cbc_decrypt_windows`) crosses it.  Falls
  back to ``"fast"`` entirely when numpy is absent.

The kernel (``"fast"`` or ``"vector"``) is chosen per :class:`DES`
instance (``kernel=``), falling back to the process-wide default --
:func:`set_default_kernel` or the ``REPRO_DES_KERNEL`` environment
variable.  Unless overridden, the default is the best available kernel:
``"vector"`` when numpy is importable, else ``"fast"``.
"""

from __future__ import annotations

import os
import threading

from repro.crypto.base import BlockCipher
from repro.exceptions import KeyError_, MessageRangeError

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
    # A forked child (the cluster's process executor) inherits this lock
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
# Kernels: two computations of the same cipher.
# --------------------------------------------------------------------------


class ReferenceDESKernel:
    """Clarity-first kernel: every permutation applied bit by bit.

    This is the executable specification -- each step reads directly off
    the FIPS 46 tables via :func:`_permute`, paying ``len(table)`` bit
    operations per permutation.  The fast kernel must match it byte for
    byte on every input (asserted by the kernel-parity tests and by
    benchmark C10).  Not selectable through :class:`DES`: callers that
    want the oracle call :meth:`crypt_block` / :meth:`crypt_blocks` with
    a schedule from :func:`_key_schedule`.
    """

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


class FastDESKernel:
    """LUT kernel: byte-wide IP/FP/E tables and fused SP boxes.

    :meth:`crypt_blocks` is the throughput path -- one Python call per
    *buffer* rather than per block, with every table bound to a local
    and the round function inlined into the block loop.  Benchmark C10
    measures the resulting blocks/sec against the reference kernel.
    """

    name = "fast"

    @staticmethod
    def crypt_block(block64: int, subkeys: tuple[int, ...]) -> int:
        ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _IP_LUT
        fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _FP_LUT
        e0, e1, e2, e3 = _E_LUT
        sp0, sp1, sp2, sp3, sp4, sp5, sp6, sp7 = _SP
        v = (
            ip0[(block64 >> 56) & 0xFF]
            | ip1[(block64 >> 48) & 0xFF]
            | ip2[(block64 >> 40) & 0xFF]
            | ip3[(block64 >> 32) & 0xFF]
            | ip4[(block64 >> 24) & 0xFF]
            | ip5[(block64 >> 16) & 0xFF]
            | ip6[(block64 >> 8) & 0xFF]
            | ip7[block64 & 0xFF]
        )
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
        return (
            fp0[(v >> 56) & 0xFF]
            | fp1[(v >> 48) & 0xFF]
            | fp2[(v >> 40) & 0xFF]
            | fp3[(v >> 32) & 0xFF]
            | fp4[(v >> 24) & 0xFF]
            | fp5[(v >> 16) & 0xFF]
            | fp6[(v >> 8) & 0xFF]
            | fp7[v & 0xFF]
        )

    @staticmethod
    def crypt_blocks(data: bytes, subkeys: tuple[int, ...]) -> bytes:
        ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _IP_LUT
        fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _FP_LUT
        e0, e1, e2, e3 = _E_LUT
        sp0, sp1, sp2, sp3, sp4, sp5, sp6, sp7 = _SP
        from_bytes = int.from_bytes
        out = bytearray(len(data))
        for off in range(0, len(data), 8):
            v = from_bytes(data[off : off + 8], "big")
            v = (
                ip0[(v >> 56) & 0xFF]
                | ip1[(v >> 48) & 0xFF]
                | ip2[(v >> 40) & 0xFF]
                | ip3[(v >> 32) & 0xFF]
                | ip4[(v >> 24) & 0xFF]
                | ip5[(v >> 16) & 0xFF]
                | ip6[(v >> 8) & 0xFF]
                | ip7[v & 0xFF]
            )
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
            v = (right << 32) | left
            v = (
                fp0[(v >> 56) & 0xFF]
                | fp1[(v >> 48) & 0xFF]
                | fp2[(v >> 40) & 0xFF]
                | fp3[(v >> 32) & 0xFF]
                | fp4[(v >> 24) & 0xFF]
                | fp5[(v >> 16) & 0xFF]
                | fp6[(v >> 8) & 0xFF]
                | fp7[v & 0xFF]
            )
            out[off : off + 8] = v.to_bytes(8, "big")
        return bytes(out)


_KERNELS = {FastDESKernel.name: FastDESKernel}

try:  # the vector kernel needs numpy; "fast" stays the ceiling without it
    from repro.crypto.vector import VectorDESKernel

    _KERNELS[VectorDESKernel.name] = VectorDESKernel
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    VectorDESKernel = None  # type: ignore[assignment,misc]

#: The name the vector kernel registers under, spelled once.  When numpy
#: is absent, requests for it (env var, ``set_default_kernel``,
#: ``DES(kernel=)``) silently resolve to ``"fast"`` -- the best available
#: byte-identical kernel -- instead of failing.
_VECTOR_NAME = "vector"


def vector_available() -> bool:
    """True iff numpy is importable and the vector kernel registered."""
    return _VECTOR_NAME in _KERNELS


def _resolve_kernel(name: str) -> str:
    """Map a requested kernel name onto an available one.

    ``"vector"`` degrades to ``"fast"`` when numpy is absent; anything
    else unknown raises, because a typo should fail loudly rather than
    silently encrypt with a different kernel than the operator asked for.
    """
    if name not in _KERNELS:
        if name == _VECTOR_NAME:
            return FastDESKernel.name
        raise KeyError_(f"kernel must be one of {sorted(_KERNELS)}, got {name!r}")
    return name


_default_kernel = os.environ.get(
    "REPRO_DES_KERNEL", _VECTOR_NAME if vector_available() else FastDESKernel.name
)
if _default_kernel not in _KERNELS:  # fail at import, not first encryption
    if _default_kernel == _VECTOR_NAME:
        _default_kernel = FastDESKernel.name
    else:
        raise KeyError_(
            f"REPRO_DES_KERNEL must be one of {sorted(_KERNELS)}, "
            f"got {_default_kernel!r}"
        )


def default_kernel() -> str:
    """The kernel new :class:`DES` objects use when ``kernel=None``."""
    return _default_kernel


def set_default_kernel(name: str) -> str:
    """Set the process-wide default kernel; returns the previous one.

    Existing :class:`DES` objects keep the kernel they were built with.
    ``"vector"`` falls back to ``"fast"`` when numpy is absent.
    """
    global _default_kernel
    previous = _default_kernel
    _default_kernel = _resolve_kernel(name)
    return previous


class DES(BlockCipher):
    """FIPS-46 DES over 8-byte blocks.

    Parameters
    ----------
    key:
        The 8-byte DES key.  Parity bits are *not* checked by default
        (most software implementations ignore them); pass
        ``enforce_parity=True`` to require odd parity per byte.
    kernel:
        ``"fast"`` or ``"vector"``; ``None`` (default)
        uses the process-wide default (see :func:`set_default_kernel`).
        Both produce byte-identical ciphertext; ``"vector"``
        requires numpy and degrades to ``"fast"`` without it.
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
        name = _default_kernel if kernel is None else _resolve_kernel(kernel)
        self.key = key
        self.kernel = name
        self._kernel = _KERNELS[name]
        # Both directions of the schedule, derived once per key object:
        # decryption runs the same rounds with the subkeys reversed, and
        # re-reversing (or re-deriving) per block is the classic
        # per-block overhead benchmark C10 eliminates.
        self._subkeys = _key_schedule(int.from_bytes(key, "big"))
        self._subkeys_dec = self._subkeys[::-1]

    # -- key schedule ------------------------------------------------------

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
        """Encrypt one 8-byte block."""
        if len(block) != 8:
            raise MessageRangeError(f"DES block must be 8 bytes, got {len(block)}")
        value = self._kernel.crypt_block(int.from_bytes(block, "big"), self._subkeys)
        return value.to_bytes(8, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != 8:
            raise MessageRangeError(f"DES block must be 8 bytes, got {len(block)}")
        value = self._kernel.crypt_block(
            int.from_bytes(block, "big"), self._subkeys_dec
        )
        return value.to_bytes(8, "big")

    # -- bulk API ----------------------------------------------------------

    def encrypt_blocks(self, blocks) -> bytes:
        """Encrypt a whole buffer (or sequence) of 8-byte blocks in ECB.

        One Python call for the entire buffer: the kernel's block loop
        runs with its tables and schedule in locals, which is where the
        bulk path's throughput advantage over per-block calls comes
        from.  Chaining (CBC/OFB) is layered above in
        :mod:`repro.crypto.modes` / :mod:`repro.crypto.stream`.
        """
        return self._kernel.crypt_blocks(self._as_buffer(blocks), self._subkeys)

    def decrypt_blocks(self, blocks) -> bytes:
        """Decrypt a whole buffer (or sequence) of 8-byte blocks in ECB."""
        return self._kernel.crypt_blocks(self._as_buffer(blocks), self._subkeys_dec)
