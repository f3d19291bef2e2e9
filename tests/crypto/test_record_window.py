"""Slot-window record decipher equals slicing the whole-block decipher.

An uncached :meth:`RecordStore.get` deciphers only the CBC blocks under
its slot, plus the final block (whose PKCS#7 padding fixes the plaintext
length) and, for a window starting at block 0, the IV.  CBC decryption
is random-access, so this must be *exactly* the slice the whole-block
decipher returns: for every block size the benchmarks use, every fill
level, every slot, under each available DES kernel -- and a damaged
cryptogram must fail the same way on both paths.

A range search gathers many such windows into one bulk call
(:func:`cbc_decrypt_windows`); that must equal the per-item windows,
raise the first damaged item's error, and derive an IV only where a
per-item read would.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import RecordStore
from repro.crypto.des import DES, ReferenceDESKernel, vector_available
from repro.crypto.modes import CBCCipher, cbc_decrypt_window, cbc_decrypt_windows
from repro.exceptions import CryptoError, StorageError

BULK_KERNELS = ("fast",) + (("vector",) if vector_available() else ())
KERNELS = ("reference",) + BULK_KERNELS
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



# -- many windows in one bulk call ------------------------------------------

#: How a batch item is damaged: a cut tail, or a final block forged to
#: decipher to an impossible pad length or to inconsistent pad bytes.
DAMAGE = {
    "truncated": None,
    "pad_length": b"\x01" * 7 + b"\x00",
    "pad_bytes": b"\x00" * 5 + b"\x04\x03\x03",
}


@st.composite
def _window(draw, length: int) -> tuple[int, int]:
    """A plaintext window: in block 0, past the plain length, empty, or any."""
    kind = draw(st.sampled_from(("block0", "past", "empty", "any")))
    if kind == "block0":
        lo = draw(st.integers(0, 7))
    elif kind == "past":
        lo = draw(st.integers(length, length + 24))
    else:
        lo = draw(st.integers(0, length + 16))
    hi = lo if kind == "empty" else lo + draw(st.integers(0, 160))
    return lo, hi


@st.composite
def _batch(draw):
    """``(key, [(plain, iv, lo, hi)])`` with 1-24 items of 0-600 bytes."""
    key = draw(st.binary(min_size=8, max_size=8))
    items = []
    for _ in range(draw(st.integers(1, 24))):
        plain = draw(st.binary(max_size=600))
        iv = draw(st.binary(min_size=8, max_size=8))
        items.append((plain, iv, *draw(_window(len(plain)))))
    return key, items


class _IVLog:
    """``iv(tag)`` for a batch, remembering which tags were asked for."""

    def __init__(self, ivs: list[bytes]) -> None:
        self.ivs = ivs
        self.calls: list[int] = []

    def __call__(self, tag: int) -> bytes:
        self.calls.append(tag)
        return self.ivs[tag]


def _damage(des: DES, ciphertext: bytes, iv: bytes, how: str) -> bytes:
    if how == "truncated":
        return ciphertext[:-3]
    previous = ciphertext[-16:-8] if len(ciphertext) > 8 else iv
    forged = des.encrypt_block(
        (int.from_bytes(DAMAGE[how], "big") ^ int.from_bytes(previous, "big"))
        .to_bytes(8, "big")
    )
    return ciphertext[:-8] + forged


def _single_outcomes(des, cryptograms, items):
    """Per-item :func:`cbc_decrypt_window`, and which tags derived an IV."""
    log = _IVLog([iv for _, iv, _, _ in items])

    def read():
        return [
            cbc_decrypt_window(des, ct, lo, hi, lambda tag=tag: log(tag))
            for tag, (ct, (_, _, lo, hi)) in enumerate(zip(cryptograms, items))
        ]

    return _outcome(read), log.calls


def _batch_outcome(des, cryptograms, items):
    log = _IVLog([iv for _, iv, _, _ in items])
    batch = [
        (ct, lo, hi, tag)
        for tag, (ct, (_, _, lo, hi)) in enumerate(zip(cryptograms, items))
    ]
    return _outcome(lambda: cbc_decrypt_windows(des, batch, log)), log.calls


@pytest.mark.parametrize("kernel", BULK_KERNELS)
@settings(max_examples=60, deadline=None)
@given(batch=_batch())
def test_batch_equals_per_item_windows(kernel, batch):
    key, items = batch
    des = DES(key, kernel=kernel)
    cryptograms = [CBCCipher(des, iv).encrypt(plain) for plain, iv, _, _ in items]
    got, batch_ivs = _batch_outcome(des, cryptograms, items)
    want, single_ivs = _single_outcomes(des, cryptograms, items)
    assert got == want == ("ok", [plain[lo:hi] for plain, _, lo, hi in items])
    # an IV only for runs starting at block 0, each derived at most once
    assert sorted(batch_ivs) == sorted(set(single_ivs))
    for tag in batch_ivs:
        plain, _, lo, hi = items[tag]
        starts_at_block_0 = lo < 8 and lo < min(hi, len(plain))
        assert starts_at_block_0 or len(plain) < 8


@pytest.mark.parametrize("kernel", BULK_KERNELS)
@settings(max_examples=40, deadline=None)
@given(
    batch=_batch().filter(lambda b: len(b[1]) >= 3),
    how=st.sampled_from(sorted(DAMAGE)),
    later=st.sampled_from(sorted(DAMAGE)),
    data=st.data(),
)
def test_damaged_item_mid_batch_raises_the_same_error(kernel, batch, how, later, data):
    key, items = batch
    des = DES(key, kernel=kernel)
    cryptograms = [CBCCipher(des, iv).encrypt(plain) for plain, iv, _, _ in items]
    bad = data.draw(st.integers(1, len(items) - 2), label="bad")
    cryptograms[bad] = _damage(des, cryptograms[bad], items[bad][1], how)
    # a second, later damaged item must not win over the first
    cryptograms[-1] = _damage(des, cryptograms[-1], items[-1][1], later)
    got, _ = _batch_outcome(des, cryptograms, items)
    want, _ = _single_outcomes(des, cryptograms, items)
    assert got == want
    messages = {
        "truncated": "ciphertext length is not a block multiple",
        "pad_length": "invalid PKCS#7 padding length",
        "pad_bytes": "corrupt PKCS#7 padding",
    }
    assert got == ("error", CryptoError, messages[how])


def test_empty_batch_deciphers_nothing():
    des = DES(bytes(8))
    calls = []
    des.decrypt_blocks = lambda blocks: calls.append(blocks)
    assert cbc_decrypt_windows(des, [], lambda tag: bytes(8)) == []
    assert calls == []


def test_batch_is_one_bulk_call():
    des = DES(bytes(range(8)))
    decrypt_blocks = des.decrypt_blocks
    calls = []

    def spy(blocks):
        calls.append(len(blocks))
        return decrypt_blocks(blocks)

    des.decrypt_blocks = spy
    ivs = [bytes([i]) * 8 for i in range(5)]
    plains = [bytes(range(i, i + 200)) for i in range(5)]
    batch = [
        (CBCCipher(des, iv).encrypt(plain), 40 * i, 40 * i + 30, i)
        for i, (plain, iv) in enumerate(zip(plains, ivs))
    ]
    calls.clear()
    got = cbc_decrypt_windows(des, batch, ivs.__getitem__)
    assert got == [plain[40 * i : 40 * i + 30] for i, plain in enumerate(plains)]
    assert len(calls) == 1
