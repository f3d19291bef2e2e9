"""numpy-vectorised DES kernel: all 16 rounds over whole block arrays.

The fast kernel (:class:`repro.crypto.des.FastDESKernel`) pays one
Python-level round loop per 8-byte block.  This module runs the rounds
as numpy operations over a vector holding every block of the buffer at
once, so the interpreter executes a fixed ~130 array operations per
*call* instead of ~15 int operations per round per *block*.  IP and FP
are one gather each over the buffer's bytes; a round gathers the four
10-bit windows of ``R`` (see :data:`repro.crypto.des.WINDOW_SHIFTS`)
from one table and ORs them.  The output is byte-identical to the
reference and fast kernels on every input (the three-way parity tests
and benchmark C10 assert this).

A round runs on the key's :class:`~repro.crypto.des.RoundTables` when its
:class:`~repro.crypto.des.DES` object has built them.  Bare subkeys run
the same gathers on the key-independent pair table :data:`_PAIR_SP`,
paying two more array operations per round to XOR the subkey into each
window.  :func:`build_round_tables` is the numpy build of the tables.

Importing this module raises :class:`ImportError` when numpy is absent;
:mod:`repro.crypto.des` catches that and keeps ``"fast"`` as the best
available kernel, so the engine degrades gracefully on numpy-free
installs (``REPRO_DES_KERNEL=vector`` then means ``fast``).
"""

from __future__ import annotations

import numpy as np

from repro.crypto.des import (
    _FP_LUT,
    _IP_LUT,
    _SP,
    MIN_VECTOR_BLOCKS,
    WINDOW_SHIFTS,
    FastDESKernel,
    RoundTables,
)

_IP_FLAT = np.array(_IP_LUT, dtype=np.uint64).ravel()
_FP_FLAT = np.array(_FP_LUT, dtype=np.uint64).ravel()
#: Offset of byte i's 256-entry IP/FP table in the flat tables above.
_BYTE_BASE = np.arange(8) * 256

_SP32 = np.array(_SP, dtype=np.uint32)
#: ``_PAIR_SP[(j << 12) | (a << 6) | b] = SP[2j][a] | SP[2j+1][b]``: the
#: key-independent table of S-box pair j on its 12 E-output bits.
_PAIR_SP = np.concatenate(
    [(_SP32[2 * j][:, None] | _SP32[2 * j + 1][None, :]).ravel() for j in range(4)]
)
#: Window j's 10 bits spread to the pair's 12 E-output bits: the two
#: middle bits feed both S-boxes.
_SPREAD = np.array([((w & 0x3F0) << 2) | (w & 0x3F) for w in range(1024)], dtype=np.intp)
#: Subkey shift of each pair's 12-bit chunk, and each pair's table base.
_PAIR_SHIFTS = np.array([[36], [24], [12], [0]], dtype=np.int64)
_PAIR_BASE = np.array([[0], [1 << 12], [2 << 12], [3 << 12]], dtype=np.int64)

_SHIFTS = np.array(WINDOW_SHIFTS, dtype=np.int64)[:, None]
#: Offset of window j's 1024-entry table in a round's row of the tables.
_WINDOW_BASE = np.array([[0], [1024], [2048], [3072]], dtype=np.int64)
_DUP = np.uint64(0x1_0000_0001)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _pair_keys(subkeys) -> np.ndarray:
    """Per round, each pair's 12-bit subkey chunk with its table base."""
    k = np.array(list(subkeys), dtype=np.int64)[:, None, None]
    return ((k >> _PAIR_SHIFTS) & 0xFFF) | _PAIR_BASE


def build_round_tables(subkeys) -> np.ndarray:
    """The :class:`~repro.crypto.des.RoundTables` buffer: 16 rows of 4096.

    Entry ``(r, 1024 j + w)`` is :data:`_PAIR_SP` at window ``w`` spread
    and XORed with round r's chunk for pair j -- the lookup a bare round
    computes, done once for all 1024 windows.  About 0.25 ms.  Built row
    by row, so the index temporaries stay at 32 KiB.
    """
    out = np.empty((16, 4096), dtype=np.uint32)
    for row, keys in zip(out, _pair_keys(subkeys)):
        np.take(_PAIR_SP, _SPREAD ^ keys, out=row.reshape(4, 1024))
    return out


class VectorDESKernel:
    """Array kernel: the rounds as ndarray gathers over the whole buffer.

    :meth:`crypt_blocks` is the whole point -- the buffer becomes one
    ``uint64`` vector and the 16-round loop executes once per *buffer*.
    Buffers below :data:`~repro.crypto.des.MIN_VECTOR_BLOCKS` delegate to
    :class:`FastDESKernel` (byte-identical by construction), which is
    faster below the ndarray setup cost.
    """

    name = "vector"
    uses_tables = True

    # Single blocks gain nothing from vectorisation, and CBC encryption
    # chains block by block.
    crypt_block = staticmethod(FastDESKernel.crypt_block)
    cbc_encrypt = staticmethod(FastDESKernel.cbc_encrypt)

    @staticmethod
    def crypt_blocks(data: bytes, keys) -> bytes:
        if len(data) < 8 * MIN_VECTOR_BLOCKS:
            return FastDESKernel.crypt_blocks(data, keys)
        return _crypt_vector(data, keys)


def _crypt_vector(data: bytes, keys) -> bytes:
    """The unconditional ndarray computation, whatever the buffer size."""
    b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 8)
    v = np.bitwise_or.reduce(_IP_FLAT[b + _BYTE_BASE], axis=1)
    left = v >> _SHIFT32
    right = v & _MASK32
    # x = R * 0x1_0000_0001 read as int64: the arithmetic shifts' sign
    # bits never reach a masked 10-bit window
    if isinstance(keys, RoundTables):
        buffer = keys.buffer
        for r in keys.order:
            idx = ((right * _DUP).view(np.int64) >> _SHIFTS) & 0x3FF
            idx |= _WINDOW_BASE
            left, right = right, left ^ np.bitwise_or.reduce(buffer[r][idx], axis=0)
    else:
        for k in _pair_keys(keys):
            w = ((right * _DUP).view(np.int64) >> _SHIFTS) & 0x3FF
            idx = _SPREAD[w] ^ k
            left, right = right, left ^ np.bitwise_or.reduce(_PAIR_SP[idx], axis=0)
    # Final swap: the last round's halves are exchanged before FP.
    v = (right << _SHIFT32) | left
    b = v.astype(">u8").view(np.uint8).reshape(-1, 8)
    return np.bitwise_or.reduce(_FP_FLAT[b + _BYTE_BASE], axis=1).astype(">u8").tobytes()
