"""numpy-vectorised DES kernel: all 16 rounds over whole block arrays.

The fast kernel (:class:`repro.crypto.des.FastDESKernel`) already collapses
every FIPS permutation into byte-wide lookup tables, but it still pays one
Python-level round loop per 8-byte block.  This module runs the *same*
tables as numpy gathers over a ``uint64`` vector holding every block of the
buffer at once, so the interpreter executes a fixed ~200 array ops per
*call* instead of ~70 int ops per *block*.  The output is byte-identical to
the reference and fast kernels on every input (the three-way parity tests
and benchmark C10 assert this).

Importing this module raises :class:`ImportError` when numpy is absent;
:mod:`repro.crypto.des` catches that and keeps ``"fast"`` as the best
available kernel, so the engine degrades gracefully on numpy-free
installs (``REPRO_DES_KERNEL=vector`` then means ``fast``).
"""

from __future__ import annotations

import numpy as np

from repro.crypto.des import (
    _E_LUT,
    _FP_LUT,
    _IP_LUT,
    _SP,
    FastDESKernel,
)


def _as_uint64_tables(luts: list[list[int]]) -> list[np.ndarray]:
    """Mirror the fast kernel's per-byte LUTs as uint64 gather tables."""
    return [np.array(table, dtype=np.uint64) for table in luts]


_IP_NP = _as_uint64_tables(_IP_LUT)
_FP_NP = _as_uint64_tables(_FP_LUT)
_E_NP = _as_uint64_tables(_E_LUT)
_SP_NP = _as_uint64_tables(_SP)

#: Buffers shorter than this many 8-byte blocks go to the fast kernel:
#: below it the vector path's fixed ndarray cost exceeds the fast
#: kernel's per-block cost.  Measured on a 2-vCPU x86-64 Xeon with
#: CPython 3.11 and numpy 2.4 (best of 400 interleaved runs per size):
#: fast ~14 us per block, vector ~500-530 us nearly flat up to 64
#: blocks, tying at 36 blocks.  A constant keeps the kernel choice
#: deterministic; both paths are byte-identical either way.
MIN_VECTOR_BLOCKS = 36

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class VectorDESKernel:
    """Array kernel: the fast kernel's LUTs applied as ndarray gathers.

    :meth:`crypt_blocks` is the whole point -- the buffer becomes one
    big-endian ``uint64`` vector, IP/E/SP/FP all run as table gathers over
    the full vector, and the 16-round loop executes once per *buffer*.
    Buffers below :data:`MIN_VECTOR_BLOCKS` delegate to
    :class:`FastDESKernel` (byte-identical by construction), which is
    faster below the ndarray setup cost.
    """

    name = "vector"

    # Single-block calls gain nothing from vectorisation.
    crypt_block = staticmethod(FastDESKernel.crypt_block)

    @staticmethod
    def crypt_blocks(data: bytes, subkeys: tuple[int, ...]) -> bytes:
        if len(data) < 8 * MIN_VECTOR_BLOCKS:
            return FastDESKernel.crypt_blocks(data, subkeys)
        return _crypt_vector(data, subkeys)


def _crypt_vector(data: bytes, subkeys: tuple[int, ...]) -> bytes:
    """The unconditional ndarray computation, whatever the buffer size."""
    ip = _IP_NP
    fp = _FP_NP
    e = _E_NP
    sp = _SP_NP
    v = np.frombuffer(data, dtype=">u8").astype(np.uint64)
    b = v >> np.uint64(56)
    t = ip[0][b]
    t |= ip[1][(v >> np.uint64(48)) & np.uint64(0xFF)]
    t |= ip[2][(v >> np.uint64(40)) & np.uint64(0xFF)]
    t |= ip[3][(v >> np.uint64(32)) & np.uint64(0xFF)]
    t |= ip[4][(v >> np.uint64(24)) & np.uint64(0xFF)]
    t |= ip[5][(v >> np.uint64(16)) & np.uint64(0xFF)]
    t |= ip[6][(v >> np.uint64(8)) & np.uint64(0xFF)]
    t |= ip[7][v & np.uint64(0xFF)]
    left = t >> _SHIFT32
    right = t & _MASK32
    mask6 = np.uint64(0x3F)
    mask8 = np.uint64(0xFF)
    for subkey in subkeys:
        x = e[0][right >> np.uint64(24)]
        x |= e[1][(right >> np.uint64(16)) & mask8]
        x |= e[2][(right >> np.uint64(8)) & mask8]
        x |= e[3][right & mask8]
        x ^= np.uint64(subkey)
        f = sp[0][x >> np.uint64(42)]
        f |= sp[1][(x >> np.uint64(36)) & mask6]
        f |= sp[2][(x >> np.uint64(30)) & mask6]
        f |= sp[3][(x >> np.uint64(24)) & mask6]
        f |= sp[4][(x >> np.uint64(18)) & mask6]
        f |= sp[5][(x >> np.uint64(12)) & mask6]
        f |= sp[6][(x >> np.uint64(6)) & mask6]
        f |= sp[7][x & mask6]
        left, right = right, left ^ f
    # Final swap: the last round's halves are exchanged before FP.
    v = (right << _SHIFT32) | left
    t = fp[0][v >> np.uint64(56)]
    t |= fp[1][(v >> np.uint64(48)) & mask8]
    t |= fp[2][(v >> np.uint64(40)) & mask8]
    t |= fp[3][(v >> np.uint64(32)) & mask8]
    t |= fp[4][(v >> np.uint64(24)) & mask8]
    t |= fp[5][(v >> np.uint64(16)) & mask8]
    t |= fp[6][(v >> np.uint64(8)) & mask8]
    t |= fp[7][v & mask8]
    return t.astype(">u8").tobytes()
