"""The enciphered record store."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.core.records import RecordStore
from repro.exceptions import CryptoError, StorageError
from repro.storage.backend import FileBackend

KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"


@pytest.fixture
def store():
    return RecordStore(KEY, record_size=32, block_size=256)


class TestPutGet:
    def test_roundtrip(self, store):
        rid = store.put(b"hello record")
        assert store.get(rid) == b"hello record"

    def test_many_records_across_blocks(self, store):
        rids = [store.put(f"record-{i}".encode()) for i in range(50)]
        assert store.disk.num_blocks > 1
        for i, rid in enumerate(rids):
            assert store.get(rid) == f"record-{i}".encode()

    def test_empty_record(self, store):
        rid = store.put(b"")
        assert store.get(rid) == b""

    def test_oversized_rejected(self, store):
        with pytest.raises(StorageError):
            store.put(b"x" * 33)

    def test_exact_size_accepted(self, store):
        rid = store.put(b"x" * 32)
        assert store.get(rid) == b"x" * 32

    def test_bogus_id_rejected(self, store):
        with pytest.raises(StorageError):
            store.get(9999)


class TestEncryptionAtRest:
    def test_raw_blocks_hide_contents(self, store):
        store.put(b"SECRET PAYLOAD AAAA")
        raw = store.disk.raw_block(0)
        assert b"SECRET" not in raw

    def test_different_keys_different_ciphertext(self):
        s1 = RecordStore(KEY, record_size=32, block_size=256)
        s2 = RecordStore(bytes(8), record_size=32, block_size=256)
        s1.put(b"same bytes")
        s2.put(b"same bytes")
        assert s1.disk.raw_block(0) != s2.disk.raw_block(0)


class TestDelete:
    def test_delete_frees_slot(self, store):
        rid = store.put(b"doomed")
        store.delete(rid)
        with pytest.raises(StorageError):
            store.get(rid)
        assert store.count == 0

    def test_slot_reused(self, store):
        rids = [store.put(f"r{i}".encode()) for i in range(5)]
        store.delete(rids[2])
        new_rid = store.put(b"replacement")
        assert new_rid == rids[2]
        assert store.get(new_rid) == b"replacement"

    def test_other_slots_unaffected(self, store):
        rids = [store.put(f"r{i}".encode()) for i in range(10)]
        store.delete(rids[4])
        for i, rid in enumerate(rids):
            if i != 4:
                assert store.get(rid) == f"r{i}".encode()

    def test_delete_then_fill_open_block(self, store):
        """Freed-slot reuse inside the currently-open block must not be
        clobbered by subsequent appends."""
        rids = [store.put(f"r{i}".encode()) for i in range(3)]
        store.delete(rids[1])
        store.put(b"reused")
        store.put(b"appended")
        assert store.get(rids[1]) == b"reused"
        assert store.get(rids[0]) == b"r0"


class _CountingKernel:
    """Wraps a DES kernel, counting the 8-byte blocks it transforms."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.blocks = 0
        self.cbc_blocks = 0  # the share CBC-enciphered

    def crypt_blocks(self, data, subkeys):
        self.blocks += len(data) // 8
        return self.inner.crypt_blocks(data, subkeys)

    def cbc_encrypt(self, data, subkeys, iv):
        self.blocks += len(data) // 8
        self.cbc_blocks += len(data) // 8
        return self.inner.cbc_encrypt(data, subkeys, iv)


class TestSlotWindowCostModel:
    """An uncached get deciphers its slot's DES blocks, not the block."""

    @pytest.mark.parametrize("block_size", [512, 4096])
    def test_uncached_get_is_one_decipher_of_a_slot_window(self, block_size):
        store = RecordStore(KEY, record_size=120, block_size=block_size)
        records = [bytes([i]) * (i % 121) for i in range(2 * store.slots_per_block)]
        ids = store.put_many(records)
        des = store._transform._des
        kernel = des._kernel = _CountingKernel(des._kernel)
        bound = -(-store.slot_size // 8) + 2
        for rid, record in zip(ids, records):
            before = store.cipher_counts.decryptions
            kernel.blocks = 0
            assert store.get(rid) == record
            assert store.cipher_counts.decryptions == before + 1
            assert kernel.blocks <= bound
        kernel.blocks = 0
        store.disk.read_block(0)  # the whole-block path: every block + IV
        assert kernel.blocks == len(store.disk.raw_block(0)) // 8 + 1 > bound

    def test_cached_store_still_deciphers_whole_blocks(self):
        store = RecordStore(KEY, record_size=32, block_size=256, cache_blocks=4)
        rids = store.put_many([b"a", b"b", b"c"])
        store.clear_cache()
        store.cipher_counts.reset()
        assert [store.get(rid) for rid in rids] == [b"a", b"b", b"c"]
        assert store.cipher_counts.decryptions == 1  # one residency


class TestPutMany:
    def _history(self, store, batched):
        """Puts (batched or one by one) interleaved with deletes."""
        rng = random.Random(5)
        live: list[int] = []
        for _ in range(25):
            if live and rng.random() < 0.3:
                store.delete(live.pop(rng.randrange(len(live))))
                continue
            records = [
                bytes([rng.randrange(256)]) * rng.randrange(33)
                for _ in range(rng.randrange(1, 12))
            ]
            if batched:
                live += store.put_many(records)
            else:
                live += [store.put(record) for record in records]
        return live

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_ids_and_platter_match_per_record_puts(self, backend, tmp_path):
        def make(name):
            if backend == "memory":
                return RecordStore(KEY, record_size=32, block_size=256)
            return RecordStore(
                KEY, record_size=32, block_size=256,
                backend=FileBackend(tmp_path / name),
            )

        single, batched = make("single"), make("batched")
        live = self._history(single, False)
        assert self._history(batched, True) == live
        assert single.disk.raw_blocks() == batched.disk.raw_blocks()
        assert [batched.get(rid) for rid in live] == [single.get(rid) for rid in live]
        assert (single.count, single._free, single._open_block, single._open_slots) == (
            batched.count, batched._free, batched._open_block, batched._open_slots,
        )
        assert batched.cipher_counts.encryptions < single.cipher_counts.encryptions
        for store in (single, batched):
            store.disk.close()

    def test_each_touched_block_enciphered_once(self, store):
        rids = store.put_many([f"r{i}".encode() for i in range(20)])
        assert store.cipher_counts.encryptions == store.disk.num_blocks
        for index in (3, 10, 15):  # 7 slots a block: blocks 0, 1, 2 (open)
            store.delete(rids[index])
        store.cipher_counts.reset()
        assert store.put_many([b"w", b"x", b"y", b"z"]) == [15, 10, 3, 20]
        # one write per touched block; the open block's slots are in memory
        assert store.cipher_counts.encryptions == 3
        assert store.cipher_counts.decryptions == 2

    def test_oversized_record_stores_nothing(self, store):
        with pytest.raises(StorageError):
            store.put_many([b"ok", b"x" * 33, b"ok"])
        assert store.count == 0
        assert store.disk.num_blocks == 0

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_device_failure_frees_what_was_stored(self, store, monkeypatch, fail_at):
        kept = [store.put(f"k{i}".encode()) for i in range(5)]
        store.delete(kept.pop(1))
        write_block = store.disk.write_block
        writes = []

        def failing_write(block_id, data, **kwargs):
            writes.append(block_id)
            if len(writes) == fail_at:
                raise StorageError("injected write failure")
            write_block(block_id, data, **kwargs)

        monkeypatch.setattr(store.disk, "write_block", failing_write)
        with pytest.raises(StorageError, match="injected"):
            store.put_many([f"n{i}".encode() for i in range(20)])
        monkeypatch.undo()
        assert store.count == 4
        assert [store.get(rid) for rid in kept] == [b"k0", b"k2", b"k3", b"k4"]
        # the in-memory metadata agrees with a scan of the platter
        expected = (store.count, sorted(store._free))
        store.recover_metadata()
        assert (store.count, sorted(store._free)) == expected
        more = store.put_many([f"m{i}".encode() for i in range(12)])
        assert [store.get(rid) for rid in more] == [f"m{i}".encode() for i in range(12)]
        assert store.count == 16


class TestGetMany:
    """``get_many`` is ``[get(r) for r in ids]``: bytes, counts, errors."""

    @staticmethod
    def _filled(**kwargs):
        store = RecordStore(KEY, record_size=32, block_size=256, **kwargs)
        rids = store.put_many([f"rec-{i}".encode() for i in range(18)])
        store.delete(rids[4])  # 7 slots a block: block 2 is open, 4 slots full
        return store, rids

    @staticmethod
    def _outcome(read):
        try:
            return ("ok", read())
        except StorageError as exc:
            return ("error", type(exc), str(exc))

    def _loop(self, store, ids):
        def read():
            return [store.get(rid) for rid in ids]

        return self._outcome(read)

    @pytest.mark.parametrize("cache_blocks", [0, 4])
    def test_equals_looped_get_with_identical_counts(self, cache_blocks):
        batched, rids = self._filled(cache_blocks=cache_blocks)
        looped, _ = self._filled(cache_blocks=cache_blocks)
        ids = [rids[9], rids[0], rids[9], rids[17], rids[1], rids[2]]  # a repeat
        for store in (batched, looped):
            store.clear_cache()
            store.cipher_counts.reset()
            store.disk.stats.reset()
        assert batched.get_many(ids) == [looped.get(rid) for rid in ids]
        assert batched.cipher_counts.snapshot() == looped.cipher_counts.snapshot()
        # the time fields are measured, so only the counts can agree
        untimed = {"read_time_s": 0.0, "write_time_s": 0.0}
        assert dataclasses.replace(batched.disk.stats, **untimed) == (
            dataclasses.replace(looped.disk.stats, **untimed)
        )
        if not cache_blocks:
            assert batched.cipher_counts.decryptions == batched.disk.stats.reads == 6

    def test_empty_batch_reads_nothing(self, store):
        store.put(b"x")
        store.disk.stats.reset()
        assert store.get_many([]) == []
        assert store.disk.stats.reads == 0
        assert store.cipher_counts.decryptions == 0

    @pytest.mark.parametrize(
        "bad", ["freed", "empty", "beyond"], ids=["freed", "empty", "beyond"]
    )
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_bad_id_mid_batch_raises_the_loops_error(self, bad, position):
        store, rids = self._filled()
        bad_id = {"freed": rids[4], "empty": 20, "beyond": 9999}[bad]
        ids = [rids[0], rids[8], rids[15], rids[3]]
        ids.insert(position, bad_id)
        expected = self._loop(store, ids)
        assert expected[0] == "error"
        assert self._outcome(lambda: store.get_many(ids)) == expected

    def test_free_slot_before_a_damaged_block_wins(self):
        """The batch read fails on the damaged block, yet the earlier
        free slot's error is the one the loop -- and get_many -- raise."""
        store, rids = self._filled()
        raw = store.disk.raw_block(2)
        store.disk.patch_state(store.disk.num_blocks, {2: raw[:-3]})
        ids = [rids[4], rids[15]]
        with pytest.raises(CryptoError):
            store.get(rids[15])
        expected = self._loop(store, ids)
        assert expected == ("error", StorageError, f"record id {rids[4]} slot is free or corrupt")
        assert self._outcome(lambda: store.get_many(ids)) == expected

    @pytest.mark.parametrize(
        "bad_ids",
        [(20, 9999), (9999, 20), (4, 20), (9999, 4), (4, 4)],
    )
    def test_first_offending_id_wins(self, bad_ids):
        store, rids = self._filled()
        ids = [rids[0], bad_ids[0], rids[1], bad_ids[1], rids[2]]
        expected = self._loop(store, ids)
        assert str(bad_ids[0]) in expected[2]
        assert self._outcome(lambda: store.get_many(ids)) == expected


class _WholeBlockStore(RecordStore):
    """Reference store: every write re-enciphers its block from byte 0."""

    def _base(self, block_index, slot):
        return 0


def _script(store, seed=23, steps=150):
    """Puts, deletes and batches, seeded; returns the live ids."""
    rng = random.Random(seed)
    live: list[int] = []
    size = store.record_size
    for _ in range(steps):
        draw = rng.random()
        if live and draw < 0.4:
            store.delete(live.pop(rng.randrange(len(live))))
        elif draw < 0.85:
            live.append(store.put(rng.randbytes(rng.randrange(size + 1))))
        else:
            live += store.put_many(
                [rng.randbytes(rng.randrange(size + 1)) for _ in range(rng.randrange(1, 9))]
            )
    return live


def _outcome(store, live):
    """At-rest digest, DiskStats, record-cipher counts and slot metadata."""
    digest = hashlib.sha256()
    for block_id, raw in store.disk.raw_blocks():
        digest.update(block_id.to_bytes(4, "big") + raw)
    stats, counts = store.disk.stats, store.cipher_counts
    return (
        digest.hexdigest()[:16],
        stats.reads, stats.writes, stats.overwrites, stats.bytes_written,
        counts.encryptions, counts.decryptions,
        sum(live), store.count, len(store._free),
    )


class TestSuffixWriteParity:
    """Suffix writes leave what whole-block writes left: bytes and counts."""

    #: ``_script(seed=23)`` outcomes of the whole-block writer the suffix
    #: path replaced, keyed by (block size, record size, cache blocks).
    PINNED = {
        (512, 120, 0): ("a4862637e1339cbe", 115, 186, 152, 82432, 186, 115, 9121, 135, 1),
        (512, 120, 4): ("a4862637e1339cbe", 49, 186, 152, 82432, 186, 49, 9121, 135, 1),
        (256, 32, 0): ("09143d4ef260bce4", 121, 176, 163, 36744, 176, 121, 3533, 83, 3),
        (256, 32, 4): ("09143d4ef260bce4", 37, 176, 163, 36744, 176, 37, 3533, 83, 3),
    }

    @pytest.mark.parametrize("geometry", sorted(PINNED))
    def test_pinned_whole_block_outcome(self, geometry):
        block_size, record_size, cache_blocks = geometry
        store = RecordStore(
            KEY, record_size=record_size, block_size=block_size, cache_blocks=cache_blocks
        )
        assert _outcome(store, _script(store)) == self.PINNED[geometry]

    @pytest.mark.parametrize("cache_blocks", [0, 4])
    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_whole_block_reference(self, tmp_path, backend, cache_blocks, seed):
        def make(cls, name):
            extra = {"backend": FileBackend(tmp_path / name)} if backend == "file" else {}
            return cls(
                KEY, record_size=120, block_size=512, cache_blocks=cache_blocks, **extra
            )

        suffix, whole = make(RecordStore, "suffix"), make(_WholeBlockStore, "whole")
        assert _script(suffix, seed) == _script(whole, seed)
        assert _outcome(suffix, []) == _outcome(whole, [])
        assert (suffix._free, suffix._open_block, suffix._open_slots) == (
            whole._free, whole._open_block, whole._open_slots,
        )
        for store in (suffix, whole):
            store.disk.close()

    def test_des_blocks_enciphered_per_slot_write(self):
        # 4 slots of 122 B in a 512-byte block: 62 DES blocks with padding
        store = RecordStore(KEY, record_size=120, block_size=512)
        ids = store.put_many([bytes([i]) * 120 for i in range(8)])
        des = store._transform._des
        kernel = des._kernel = _CountingKernel(des._kernel)
        enciphered, read_and_iv = [], []
        for rid in ids[4:]:
            kernel.blocks = kernel.cbc_blocks = 0
            store.delete(rid)
            enciphered.append(kernel.cbc_blocks)
            read_and_iv.append(kernel.blocks - kernel.cbc_blocks)
        assert enciphered == [62, 47, 32, 17]
        # the read window from the same DES block; slot 0 also derives the
        # IV, once per write: the suffix write takes the one the read derived
        assert read_and_iv == [62 + 1, 47, 32, 17]
        kernel.cbc_blocks = 0
        store.put_many([b"a", b"b"])  # reuses slots 3 and 2: one write from slot 2
        assert kernel.cbc_blocks == 32
        assert store.cipher_counts.encryptions == 2 + 4 + 1

    def test_batch_write_from_slot_0_derives_the_iv_once(self):
        store = RecordStore(KEY, record_size=120, block_size=512)
        ids = store.put_many([bytes([i]) * 120 for i in range(12)])
        for rid in ids[4:8]:  # block 1, settled (block 2 is the open one)
            store.delete(rid)
        des = store._transform._des
        kernel = des._kernel = _CountingKernel(des._kernel)
        store.put_many([b"a", b"b", b"c", b"d"])  # reuses slots 3 to 0 of block 1
        assert kernel.cbc_blocks == 62
        # the window read's 62 blocks and one IV, shared by read and write
        assert kernel.blocks - kernel.cbc_blocks == 62 + 1
        assert [store.get(rid) for rid in ids[4:8]] == [b"d", b"c", b"b", b"a"]


class TestSlotFreeGuards:
    def test_double_delete_refused_without_a_write(self, store):
        rids = [store.put(f"r{i}".encode()) for i in range(3)]
        store.delete(rids[1])
        state = (store.count, list(store._free))
        writes = store.disk.stats.writes
        encryptions = store.cipher_counts.encryptions
        with pytest.raises(StorageError, match="already free"):
            store.delete(rids[1])
        assert (store.count, store._free) == state
        assert store.disk.stats.writes == writes
        assert store.cipher_counts.encryptions == encryptions
        # the slot is handed out once, so no record overwrites another
        first, second = store.put(b"first"), store.put(b"second")
        assert first == rids[1] and second != first
        assert store.get(first) == b"first"

    def test_failed_put_returns_its_free_slot(self, store, monkeypatch):
        rids = [store.put(f"r{i}".encode()) for i in range(4)]
        store.delete(rids[2])

        def failing_write(block_id, data, **kwargs):
            raise StorageError("injected write failure")

        monkeypatch.setattr(store.disk, "write_block", failing_write)
        with pytest.raises(StorageError, match="injected"):
            store.put(b"lost?")
        assert store._free == [rids[2]]
        assert store.count == 3
        monkeypatch.undo()
        assert store.put(b"kept") == rids[2]
        assert store.get(rids[2]) == b"kept"

    def test_failed_append_leaves_no_record_behind(self, store, monkeypatch):
        rids = [store.put(f"r{i}".encode()) for i in range(2)]

        def failing_write(block_id, data, **kwargs):
            raise StorageError("injected write failure")

        monkeypatch.setattr(store.disk, "write_block", failing_write)
        with pytest.raises(StorageError, match="injected"):
            store.put(b"never stored")
        monkeypatch.undo()
        assert len(store._open_slots) == 2
        rid = store.put(b"next")
        assert rid == rids[-1] + 1
        assert [store.get(r) for r in rids + [rid]] == [b"r0", b"r1", b"next"]
        expected = (store.count, sorted(store._free))
        store.recover_metadata()
        assert (store.count, sorted(store._free)) == expected == (3, [])
