"""Slot-window record decipher equals slicing the whole-block decipher.

An uncached :meth:`RecordStore.get` deciphers only the CBC blocks under
its slot, plus the final block (whose PKCS#7 padding fixes the plaintext
length) and, for a window starting at block 0, the IV.  CBC decryption
is random-access, so this must be *exactly* the slice the whole-block
decipher returns: for every block size the benchmarks use, every fill
level, every slot, under each available DES kernel -- and a damaged
cryptogram must fail the same way on both paths.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import RecordStore
from repro.crypto.des import DES, ReferenceDESKernel, vector_available
from repro.crypto.modes import CBCCipher, cbc_decrypt_window
from repro.exceptions import CryptoError, StorageError

KERNELS = ("reference", "fast") + (("vector",) if vector_available() else ())
BLOCK_SIZES = (512, 4096)
RECORD_SIZE = 120


def _records(seed: int, count: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(rng.randrange(RECORD_SIZE + 1)) for _ in range(count)]


def _des(key: bytes, kernel: str) -> DES:
    """A DES on ``kernel``; ``"reference"`` runs the FIPS oracle kernel."""
    if kernel != "reference":
        return DES(key, kernel=kernel)
    des = DES(key)
    des._kernel = ReferenceDESKernel
    return des


def _store(key: bytes, block_size: int, kernel: str) -> RecordStore:
    """An uncached store whose record cipher runs on ``kernel``."""
    store = RecordStore(key, record_size=RECORD_SIZE, block_size=block_size)
    store._transform._des = _des(key, kernel)
    return store


def _outcome(read):
    """``("ok", bytes)`` or ``("error", type, message)`` of one read."""
    try:
        return ("ok", read())
    except CryptoError as exc:
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@settings(max_examples=1, deadline=None)
@given(key=st.binary(min_size=8, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_every_slot_window_equals_whole_block_slice(block_size, kernel, key, seed):
    # one drawn example per kernel and size already deciphers every
    # (fill, slot) pair; the reference kernel makes more too slow
    probe = _store(key, block_size, kernel)
    slots_per_block, slot_size = probe.slots_per_block, probe.slot_size
    records = _records(seed, slots_per_block)
    for fill in range(1, slots_per_block + 1):
        store = _store(key, block_size, kernel)
        ids = store.put_many(records[:fill])
        assert store.disk.num_blocks == 1
        whole = store.disk.read_block(0)
        assert len(whole) == fill * slot_size
        # one slot past the block's capacity: a window past the fill
        for slot in range(slots_per_block + 1):
            lo = slot * slot_size
            window = store.disk.read_block(0, window=(lo, lo + slot_size))
            assert window == whole[lo : lo + slot_size]
            assert bool(window) == (slot < fill)
        if fill < slots_per_block:
            with pytest.raises(StorageError, match="names an empty slot"):
                store.get(fill)
    assert [store.get(rid) for rid in ids] == records


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=8, max_size=8),
    iv=st.binary(min_size=8, max_size=8),
    plain=st.binary(max_size=300),
    lo=st.integers(0, 320),
    span=st.integers(0, 320),
)
# a block-multiple plaintext: the final block is all padding
@example(key=bytes(8), iv=bytes(8), plain=bytes(range(16)), lo=13, span=5)
def test_arbitrary_window_equals_slice(kernel, key, iv, plain, lo, span):
    des = _des(key, kernel)
    ciphertext = CBCCipher(des, iv).encrypt(plain)
    window = cbc_decrypt_window(des, ciphertext, lo, lo + span, lambda: iv)
    assert window == plain[lo : lo + span]


def test_iv_derived_only_for_windows_starting_at_block_zero():
    des = DES(bytes(range(8)))
    iv = b"\x5a" * 8
    ciphertext = CBCCipher(des, iv).encrypt(bytes(range(200)))
    calls = []

    def derive_iv():
        calls.append(1)
        return iv

    window = cbc_decrypt_window(des, ciphertext, 64, 100, derive_iv)
    assert window == bytes(range(64, 100))
    assert calls == []
    window = cbc_decrypt_window(des, ciphertext, 3, 20, derive_iv)
    assert window == bytes(range(3, 20))
    assert calls == [1]


def test_negative_or_inverted_window_rejected():
    des = DES(bytes(8))
    ciphertext = CBCCipher(des, bytes(8)).encrypt(b"payload")
    for lo, hi in ((-1, 4), (5, 4)):
        with pytest.raises(ValueError):
            cbc_decrypt_window(des, ciphertext, lo, hi, lambda: bytes(8))


class TestDamagedCryptogram:
    """Both read paths fail -- or succeed -- identically."""

    KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"

    def _full_block_store(self, kernel: str = "fast") -> RecordStore:
        store = _store(self.KEY, 512, kernel)
        store.put_many(_records(7, store.slots_per_block))
        return store

    def _forge_final_block(self, store: RecordStore, last_plain: bytes) -> None:
        """Re-encipher the final CBC block so it deciphers to ``last_plain``."""
        raw = store.disk.raw_block(0)
        des = DES(self.KEY)
        previous = int.from_bytes(raw[-16:-8], "big")
        forged = des.encrypt_block(
            (int.from_bytes(last_plain, "big") ^ previous).to_bytes(8, "big")
        )
        store.disk.patch_state(store.disk.num_blocks, {0: raw[:-8] + forged})

    def _assert_same_outcome(self, store: RecordStore) -> tuple:
        whole = _outcome(lambda: store.disk.read_block(0))
        for slot in range(store.slots_per_block + 1):
            lo = slot * store.slot_size
            hi = lo + store.slot_size
            windowed = _outcome(lambda: store.disk.read_block(0, window=(lo, hi)))
            if whole[0] == "ok":
                assert windowed == ("ok", whole[1][lo:hi])
            else:
                assert windowed == whole
        return whole

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "last_plain, message",
        [
            (b"\x01" * 7 + b"\x00", "invalid PKCS#7 padding length"),
            (b"\x01" * 7 + b"\x09", "invalid PKCS#7 padding length"),
            (b"\x00" * 5 + b"\x04\x03\x03", "corrupt PKCS#7 padding"),
        ],
    )
    def test_bad_padding_raises_same_error(self, kernel, last_plain, message):
        store = self._full_block_store(kernel)
        self._forge_final_block(store, last_plain)
        assert self._assert_same_outcome(store) == ("error", CryptoError, message)

    def test_truncated_cryptogram_raises_same_error(self):
        store = self._full_block_store()
        raw = store.disk.raw_block(0)
        store.disk.patch_state(store.disk.num_blocks, {0: raw[:-3]})
        outcome = self._assert_same_outcome(store)
        message = "ciphertext length is not a block multiple"
        assert outcome == ("error", CryptoError, message)

    def test_forged_valid_padding_moves_the_length_on_both_paths(self):
        store = self._full_block_store()
        # a valid one-byte pad where the real block ends in padding: the
        # plaintext grows, and both paths must agree on what it reads as
        self._forge_final_block(store, b"\xaa" * 7 + b"\x01")
        outcome = self._assert_same_outcome(store)
        assert outcome[0] == "ok"

    @settings(max_examples=40, deadline=None)
    @given(flips=st.binary(min_size=8, max_size=8).filter(any))
    def test_random_final_block_corruption_agrees(self, flips):
        store = self._full_block_store()
        raw = store.disk.raw_block(0)
        damaged = raw[:-8] + bytes(a ^ b for a, b in zip(raw[-8:], flips))
        store.disk.patch_state(store.disk.num_blocks, {0: damaged})
        self._assert_same_outcome(store)

    def test_empty_cryptogram_raises_same_error(self):
        des = DES(self.KEY)
        with pytest.raises(CryptoError) as whole:
            CBCCipher(des, bytes(8)).decrypt(b"")
        with pytest.raises(CryptoError) as window:
            cbc_decrypt_window(des, b"", 0, 8, lambda: bytes(8))
        assert str(window.value) == str(whole.value)

