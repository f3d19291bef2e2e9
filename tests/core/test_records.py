"""The enciphered record store."""

from __future__ import annotations

import random

import pytest

from repro.core.records import RecordStore
from repro.exceptions import StorageError
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

    def crypt_block(self, block64, subkeys):
        self.blocks += 1
        return self.inner.crypt_block(block64, subkeys)

    def crypt_blocks(self, data, subkeys):
        self.blocks += len(data) // 8
        return self.inner.crypt_blocks(data, subkeys)


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

        def failing_write(block_id, data):
            writes.append(block_id)
            if len(writes) == fail_at:
                raise StorageError("injected write failure")
            write_block(block_id, data)

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
