"""Fixed fast/vector dispatch: parity on both sides of the crossover.

The vector kernel hands buffers shorter than
:data:`~repro.crypto.vector.MIN_VECTOR_BLOCKS` to the fast kernel and
runs longer ones as ndarray gathers.  Whichever side a buffer lands on,
the bytes must equal both the fast kernel's and the FIPS reference
kernel's, encrypting and decrypting.  The ndarray path must also be
right below the crossover, so the constant is a pure speed choice.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.crypto import vector
from repro.crypto.des import (
    DES,
    FastDESKernel,
    ReferenceDESKernel,
    schedule_derivations,
)
from repro.crypto.vector import MIN_VECTOR_BLOCKS, VectorDESKernel

KEY = bytes.fromhex("133457799BBCDFF1")
AROUND = (MIN_VECTOR_BLOCKS - 1, MIN_VECTOR_BLOCKS, MIN_VECTOR_BLOCKS + 1)


def payload(nblocks):
    return bytes((i * 37 + 11) & 0xFF for i in range(8 * nblocks))


@pytest.mark.parametrize("nblocks", AROUND)
def test_vector_matches_fast_and_reference_around_the_crossover(nblocks):
    data = payload(nblocks)
    des = DES(KEY, kernel="fast")
    for subkeys in (des._subkeys, des._subkeys_dec):
        out = VectorDESKernel.crypt_blocks(data, subkeys)
        assert out == FastDESKernel.crypt_blocks(data, subkeys)
        assert out == ReferenceDESKernel.crypt_blocks(data, subkeys)


@pytest.mark.parametrize("nblocks", AROUND)
def test_des_round_trips_around_the_crossover(nblocks):
    """The same buffers through the public ``DES(kernel="vector")`` API."""
    data = payload(nblocks)
    vec, fast = DES(KEY, kernel="vector"), DES(KEY, kernel="fast")
    ct = vec.encrypt_blocks(data)
    assert ct == fast.encrypt_blocks(data)
    assert vec.decrypt_blocks(ct) == data


@pytest.mark.parametrize(
    "nblocks", (0, 1) + AROUND + (2 * MIN_VECTOR_BLOCKS,)
)
def test_crossover_picks_the_side(monkeypatch, nblocks):
    calls = []

    def spy(data, subkeys):
        calls.append(len(data) // 8)
        return b"\x00" * len(data)

    monkeypatch.setattr(vector, "_crypt_vector", spy)
    out = VectorDESKernel.crypt_blocks(payload(nblocks), DES(KEY)._subkeys)
    if nblocks < MIN_VECTOR_BLOCKS:
        assert calls == []
        assert out == FastDESKernel.crypt_blocks(payload(nblocks), DES(KEY)._subkeys)
    else:
        assert calls == [nblocks]


@pytest.mark.parametrize("nblocks", (0, 1, 7))
def test_ndarray_path_is_exact_below_the_crossover(nblocks):
    data = payload(nblocks)
    subkeys = DES(KEY)._subkeys
    assert vector._crypt_vector(data, subkeys) == FastDESKernel.crypt_blocks(
        data, subkeys
    )


def test_dispatch_derives_no_schedules():
    des = DES(KEY, kernel="vector")  # the schedule is derived here
    before = schedule_derivations()
    for nblocks in AROUND:
        des.decrypt_blocks(des.encrypt_blocks(payload(nblocks)))
    assert schedule_derivations() == before
