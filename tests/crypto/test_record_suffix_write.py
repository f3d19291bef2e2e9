"""A suffix re-encipher equals the whole-block CBC encipher.

Every record-block write keeps the stored cipher blocks before the DES
block holding its first changed plain byte and enciphers only the rest,
chained on the last kept block (:func:`cbc_encrypt_suffix`, reached
through the record cipher's ``on_write(prefix=)``).  CBC encryption is
prefix-preserving, so this must be *exactly* the whole-block
``CBCCipher.encrypt`` of the new plaintext: for both block sizes the
benchmarks use, every fill level, every slot rewritten or appended,
under each available DES kernel.

The expected cryptograms come from the ``fast`` kernel, which the kernel
tests pin byte-identical to the FIPS reference.  A 512-byte block runs
the full (fill, slot) product.  A 4096-byte block (33 slots) appends at
every fill and rewrites each slot at the fill where it is the last one;
the bulk kernels also rewrite every slot of the full block.  Its full
product would cost about 20 s a kernel.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import RecordStore, _RecordBlockTransform
from repro.crypto.des import DES, ReferenceDESKernel, openssl_available
from repro.crypto.modes import CBCCipher, cbc_encrypt_suffix
from repro.exceptions import CryptoError

BULK_KERNELS = ("fast",) + (("openssl",) if openssl_available() else ())
KERNELS = ("reference",) + BULK_KERNELS
BLOCK_SIZES = (512, 4096)
RECORD_SIZE = 120
BLOCK_ID = 7


def _des(key: bytes, kernel: str) -> DES:
    """A DES on ``kernel``; ``"reference"`` runs the FIPS oracle kernel."""
    if kernel != "reference":
        return DES(key, kernel=kernel)
    des = DES(key)
    des._kernel = ReferenceDESKernel
    return des


def _transform(key: bytes, kernel: str) -> _RecordBlockTransform:
    transform = _RecordBlockTransform(key)
    transform._des = _des(key, kernel)
    return transform


def _slots(seed: int, count: int) -> list[bytes]:
    """Encoded slots: a length prefix, then the record zero-padded."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        record = rng.randbytes(rng.randrange(RECORD_SIZE + 1))
        out.append(len(record).to_bytes(2, "big") + record.ljust(RECORD_SIZE, b"\0"))
    return out


def _pairs(slots_per_block: int, kernel: str, block_size: int):
    """``(fill, slot)``: slot < fill rewrites a slot, slot == fill appends."""
    full = slots_per_block
    for fill in range(full + 1):
        if block_size == 512:
            slots = range(fill + 1)
        elif fill == full and kernel != "reference":
            slots = range(full)
        else:
            slots = [fill - 1, fill] if fill else [0]
        for slot in slots:
            if slot < full:
                yield fill, slot


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@settings(max_examples=1, deadline=None)
@given(key=st.binary(min_size=8, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_suffix_write_equals_whole_block_encrypt(block_size, kernel, key, seed):
    probe = RecordStore(key, record_size=RECORD_SIZE, block_size=block_size)
    spb, size = probe.slots_per_block, probe.slot_size
    old, new = _slots(seed, spb), _slots(seed + 1, spb)
    oracle = _transform(key, "fast")
    transform = _transform(key, kernel)
    iv = oracle._iv(BLOCK_ID)
    stored = {}
    for fill, slot in _pairs(spb, kernel, block_size):
        if fill not in stored:
            stored[fill] = CBCCipher(oracle._des, iv).encrypt(b"".join(old[:fill]))
        after = b"".join(old[:slot] + [new[slot]] + old[slot + 1 : max(fill, slot + 1)])
        expected = CBCCipher(oracle._des, iv).encrypt(after)
        base = slot * size - slot * size % 8
        got = transform.on_write(BLOCK_ID, after[base:], prefix=stored[fill][:base])
        assert got == expected, (fill, slot)
        # the whole-block write is the same path with nothing kept
        if slot == 0:
            assert transform.on_write(BLOCK_ID, after) == expected


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=8, max_size=8),
    iv=st.binary(min_size=8, max_size=8),
    before=st.binary(max_size=200),
    after=st.binary(max_size=200),
    cut=st.integers(0, 200),
)
def test_any_common_prefix_cut_equals_whole_encrypt(key, iv, before, after, cut):
    # keep any whole-block prefix the two plaintexts share
    des = DES(key)
    common = 0
    while common < min(len(before), len(after)) and before[common] == after[common]:
        common += 1
    base = min(cut, common) // 8 * 8
    stored = CBCCipher(des, iv).encrypt(before)
    got = cbc_encrypt_suffix(des, stored[:base], after[base:], lambda: iv)
    assert got == CBCCipher(des, iv).encrypt(after)


def test_iv_derived_only_when_nothing_is_kept():
    des = DES(bytes(range(8)))
    iv = b"\x5a" * 8
    stored = CBCCipher(des, iv).encrypt(bytes(64))
    calls = []

    def derive_iv():
        calls.append(1)
        return iv

    cbc_encrypt_suffix(des, stored[:8], bytes(56), derive_iv)
    assert calls == []
    cbc_encrypt_suffix(des, b"", bytes(64), derive_iv)
    assert calls == [1]


def test_prefix_must_be_whole_cipher_blocks():
    des = DES(bytes(8))
    with pytest.raises(CryptoError, match="block multiple"):
        cbc_encrypt_suffix(des, bytes(5), b"x", lambda: bytes(8))
