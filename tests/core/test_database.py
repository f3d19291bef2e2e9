"""The durable database facade: superblock, reopen, key authentication."""

from __future__ import annotations

import random

import pytest

from repro.core.database import EncipheredDatabase
from repro.crypto.base import CountingCipher
from repro.crypto.des import TABLE_BUILD_CALLS, schedule_derivations, set_default_kernel
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import (
    BTreeError,
    DuplicateKeyError,
    IntegrityError,
    KeyNotFoundError,
    StorageError,
)
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)


@pytest.fixture(scope="module")
def cipher():
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xDB)))


@pytest.fixture
def db(cipher):
    return EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher)


class TestLifecycle:
    def test_crud(self, db):
        db.insert(10, b"ten")
        db.insert(20, b"twenty")
        assert db.search(10) == b"ten"
        db.delete(10)
        assert len(db) == 1
        assert db.range_search(0, 100) == [(20, b"twenty")]

    def test_reopen_restores_everything(self, db, cipher):
        keys = random.Random(0).sample(range(DESIGN.v), 70)
        for k in keys:
            db.insert(k, f"r{k}".encode())

        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 70
        for k in keys[:10]:
            assert reopened.search(k) == f"r{k}".encode()
        # the reopened handle is writable and stays consistent
        fresh = next(k for k in range(DESIGN.v) if k not in keys)
        reopened.insert(fresh, b"new")
        assert reopened.search(fresh) == b"new"

    def test_reopen_after_mutation_cycle(self, db, cipher):
        for k in range(0, 60, 2):
            db.insert(k, b"x")
        for k in range(0, 30, 2):
            db.delete(k)
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert [k for k, _ in reopened.range_search(0, 100)] == list(range(30, 60, 2))


class TestConvenienceAPI:
    def test_get_present_absent_and_default(self, db):
        db.insert(10, b"ten")
        assert db.get(10) == b"ten"
        assert db.get(11) is None
        assert db.get(11, b"fallback") == b"fallback"

    def test_contains(self, db):
        db.insert(42, b"answer")
        assert 42 in db
        assert 43 not in db
        db.delete(42)
        assert 42 not in db

    def test_items_in_key_order_with_records(self, db):
        keys = random.Random(11).sample(range(DESIGN.v), 40)
        for k in keys:
            db.insert(k, f"v{k}".encode())
        listed = list(db.items())
        assert listed == [(k, f"v{k}".encode()) for k in sorted(keys)]
        assert listed == db.range_search(0, DESIGN.v)

    def test_items_empty_database(self, db):
        assert list(db.items()) == []

    def test_stats_rollup_counts(self, db):
        db.insert(1, b"x")
        db.search(1)
        stats = db.stats()
        assert stats["size"] == 1
        assert stats["node_disk"]["writes"] > 0
        assert stats["record_disk"]["writes"] > 0
        assert stats["pointer_cipher"]["decryptions"] > 0
        assert stats["substitution"]["substitutions"] > 0
        assert stats["tree"]["nodes_visited"] > 0


class TestSuperblockSecurity:
    def test_wrong_super_key_rejected(self, db, cipher):
        db.insert(1, b"x")
        with pytest.raises(IntegrityError):
            EncipheredDatabase.reopen(
                OvalSubstitution(DESIGN, t=5),
                cipher,
                db.disk,
                db.records,
                super_key=b"\x00" * 8,
            )

    def test_superblock_is_ciphertext_at_rest(self, db):
        db.insert(5, b"x")
        raw = db.disk.raw_block(0)
        assert b"HSBT1990" not in raw
        assert db.tree.root_id.to_bytes(4, "big") not in raw[:12]

    def test_commits_derive_no_key_schedules(self, db):
        """The superblock cipher is derived once per handle, not per
        commit: autocommit writes (each rewriting the superblock) leave
        the process-wide schedule count where it was."""
        db.insert(0, b"warm")
        before = schedule_derivations()
        for k in range(1, 25):
            db.insert(k, b"x")
        db.delete(3)
        assert schedule_derivations() == before

    def test_close_releases_record_cipher_tables(self, cipher):
        # round tables belong to the fast kernel; openssl builds none
        previous = set_default_kernel("fast")
        try:
            db = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher)
        finally:
            set_default_kernel(previous)
        des = db.records._transform._des
        assert des.kernel == "fast"
        for k in range(TABLE_BUILD_CALLS + 1):
            db.insert(k, b"x")
        assert des._tables is not None  # every record write is a bulk call
        db.close()
        assert des._tables is None

    def test_superblock_tracks_root_splits(self, db, cipher):
        """Enough inserts to split the root several times; the superblock
        must always point at the current root."""
        for k in range(120):
            db.insert(k, b"x")
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert reopened.tree.root_id == db.tree.root_id
        assert len(reopened) == 120


class TestTransactions:
    def test_commit_on_clean_exit(self, db, cipher):
        with db.transaction():
            for k in range(30):
                db.insert(k, f"r{k}".encode())
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 30
        assert reopened.search(17) == b"r17"

    def test_writes_deferred_until_commit(self, db):
        db.disk.stats.reset()
        with db.transaction():
            for k in range(25):
                db.insert(k, b"x")
            # nothing -- not even the superblock -- hit the node disk yet
            assert db.disk.stats.writes == 0
            assert db.search(12) == b"x"
        assert db.disk.stats.writes > 0
        # batching beats one-superblock-rewrite-per-insert on its own
        assert db.disk.stats.writes < 25

    def test_rollback_restores_committed_state(self, db, cipher):
        for k in range(10):
            db.insert(k, f"base{k}".encode())
        records_before = db.records.count
        with pytest.raises(RuntimeError):
            with db.transaction():
                for k in range(10, 40):
                    db.insert(k, b"doomed")
                db.delete(3)
                raise RuntimeError("abort")
        assert len(db) == 10
        db.tree.check_invariants()
        # the deleted record survived: its slot free was deferred
        assert db.search(3) == b"base3"
        # the doomed inserts' slots were freed again
        assert db.records.count == records_before
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 10

    def test_rollback_leaves_db_usable(self, db):
        db.insert(1, b"one")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(2, b"two")
                raise RuntimeError("abort")
        db.insert(3, b"three")
        assert db.search(1) == b"one"
        assert db.search(3) == b"three"
        with pytest.raises(KeyNotFoundError):
            db.search(2)

    def test_commit_inside_transaction_sets_rollback_point(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(1, b"kept")
                db.commit()
                db.insert(2, b"doomed")
                raise RuntimeError("abort")
        assert db.search(1) == b"kept"
        with pytest.raises(KeyNotFoundError):
            db.search(2)

    def test_transactions_do_not_nest(self, db):
        with db.transaction():
            with pytest.raises(StorageError):
                with db.transaction():
                    pass

    def test_pager_mode_restored_after_transaction(self, db):
        pager = db.tree.pager
        assert pager.write_back is False
        with db.transaction():
            assert pager.write_back is True
            assert pager.retain_dirty is True
        assert pager.write_back is False
        assert pager.retain_dirty is False
        assert pager.dirty_blocks == 0

    def test_manual_commit_without_autocommit(self, db, cipher):
        db.autocommit = False
        db.insert(1, b"x")
        db.insert(2, b"y")
        # superblock still describes the empty tree
        with pytest.raises(IntegrityError):
            EncipheredDatabase.reopen(
                OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
            )
        db.commit()
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 2

    def test_write_back_database_round_trip(self, cipher):
        db = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), cipher, write_back=True
        )
        with db.transaction():
            for k in range(50):
                db.insert(k, f"r{k}".encode())
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 50
        assert reopened.search(49) == b"r49"


class TestBulkLoad:
    def test_equivalent_to_sequential_insert(self, db, cipher):
        keys = random.Random(7).sample(range(DESIGN.v), 90)
        db.bulk_load((k, f"r{k}".encode()) for k in keys)
        db.tree.check_invariants()
        inserted = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher)
        for k in keys:
            inserted.insert(k, f"r{k}".encode())
        assert db.range_search(0, DESIGN.v) == inserted.range_search(0, DESIGN.v)
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 90

    def test_requires_empty_database(self, db):
        db.insert(1, b"x")
        with pytest.raises(BTreeError):
            db.bulk_load([(2, b"y")])
        assert db.search(1) == b"x"

    def test_failed_load_frees_records(self, db):
        before = db.records.count
        with pytest.raises(DuplicateKeyError):
            db.bulk_load([(1, b"a"), (1, b"b")])
        assert db.records.count == before
        db.bulk_load([(1, b"a"), (2, b"b")])
        assert db.search(2) == b"b"


class TestBulkLoadRecordWrites:
    def test_each_record_block_enciphered_once(self, db):
        db.records.cipher_counts.reset()
        n = 50
        db.bulk_load((k, f"record {k}".encode()) for k in range(n))
        blocks = db.records.disk.num_blocks
        assert blocks == -(-n // db.records.slots_per_block)
        assert db.stats()["record_cipher"]["encryptions"] == blocks
        assert db.records.disk.stats.writes == blocks
        assert all(db.search(k) == f"record {k}".encode() for k in range(n))


class TestBugfixRegressions:
    def test_counting_cipher_reused_not_double_wrapped(self, cipher):
        counting = CountingCipher(cipher)
        db = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), counting)
        assert db.pointer_cipher is counting
        db.insert(1, b"x")
        db.search(1)
        # one layer sees every operation; a second wrapper would have
        # split the tallies and halved what the caller's handle reports
        assert counting.counts.encryptions > 0
        assert counting.counts.decryptions > 0
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), counting, db.disk, db.records
        )
        assert reopened.pointer_cipher is counting

    def test_delete_writes_superblock_even_if_record_free_fails(self, db, cipher, monkeypatch):
        for k in range(5):
            db.insert(k, b"x")

        def boom(record_id):
            raise StorageError("slot free failed")

        monkeypatch.setattr(db.records, "delete", boom)
        with pytest.raises(StorageError):
            db.delete(2)
        monkeypatch.undo()
        # the tree lost the key; the superblock must agree with it, or
        # the database can never be reopened (the slot merely leaks)
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 4
        with pytest.raises(KeyNotFoundError):
            reopened.search(2)

    def test_retried_commit_frees_each_deferred_slot_once(self, db, monkeypatch):
        for k in range(40):
            db.insert(k, f"r{k}".encode())
        write_block = db.records.disk.write_block
        writes = []

        def second_write_fails(block_id, data, **kwargs):
            writes.append(block_id)
            if len(writes) == 2:
                raise StorageError("slot write failed")
            write_block(block_id, data, **kwargs)

        monkeypatch.setattr(db.records.disk, "write_block", second_write_fails)
        with pytest.raises(StorageError, match="slot write failed"):
            db.delete_many([3, 17])  # the commit frees 3's slot, then fails
        monkeypatch.undo()
        db.commit()  # frees only 17's slot
        free = db.records._free
        assert len(free) == len(set(free)) == 2
        assert db.records.count == len(db) == 38
        for k in (100, 101, 102):
            db.insert(k, f"r{k}".encode())
        assert [db.get(k) for k in (100, 101, 102)] == [b"r100", b"r101", b"r102"]
        assert [db.get(k) for k in range(40) if k not in (3, 17)] == [
            f"r{k}".encode() for k in range(40) if k not in (3, 17)
        ]

    def test_read_superblock_narrowed_exception(self, db, cipher):
        class ExplodingDisk:
            def read_block(self, block_id):
                raise RuntimeError("programming error, not a bad key")

        # a non-cryptographic failure must not masquerade as a key problem
        with pytest.raises(RuntimeError):
            EncipheredDatabase._read_superblock(ExplodingDisk(), b"\x00" * 8)
        # while genuine decipherment failures still map to IntegrityError
        db.disk._blocks[0] = bytes(len(db.disk._blocks[0]))
        with pytest.raises(IntegrityError):
            EncipheredDatabase.reopen(
                OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
            )

    def test_rollback_preserves_pretransaction_uncommitted_writes(self, cipher):
        """Dirty pages written *before* the scope are flushed on entry,
        so rolling the scope back cannot discard them."""
        db = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), cipher,
            write_back=True, autocommit=False,
        )
        db.insert(1, b"pre-txn")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(2, b"doomed")
                raise RuntimeError("abort")
        assert len(db) == 1
        assert db.search(1) == b"pre-txn"
        db.commit()
        reopened = EncipheredDatabase.reopen(
            OvalSubstitution(DESIGN, t=5), cipher, db.disk, db.records
        )
        assert len(reopened) == 1
        assert reopened.search(1) == b"pre-txn"

    def test_bulk_load_frees_records_when_put_fails_midway(self, cipher):
        db = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), cipher, record_size=8
        )
        before = db.records.count
        with pytest.raises(StorageError):
            db.bulk_load([(1, b"ok"), (2, b"way too long for the slot"), (3, b"ok")])
        assert db.records.count == before
        db.bulk_load([(1, b"a"), (2, b"b")])
        assert db.search(2) == b"b"


class TestRangeRecordBatch:
    """A range deciphers every match's slot window in one bulk DES call.

    The counts stay those of one ``get`` per match: one record-block
    decipher and one record-device read each, duplicate blocks included.
    """

    KEYS = random.Random(15).sample(range(DESIGN.v), 60)

    @pytest.fixture
    def pair(self, cipher):
        def make():
            db = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher)
            for key in self.KEYS:
                db.insert(key, f"record {key} ".encode() * (key % 9 + 1))
            return db

        return make(), make()

    @staticmethod
    def _spy_bulk_calls(db, monkeypatch) -> list[int]:
        """Block counts of the record cipher's ``decrypt_blocks`` calls."""
        des = db.records._transform._des
        decrypt_blocks = des.decrypt_blocks
        calls: list[int] = []

        def spy(blocks):
            calls.append(len(blocks) // 8)
            return decrypt_blocks(blocks)

        monkeypatch.setattr(des, "decrypt_blocks", spy)
        return calls

    @staticmethod
    def _counts(db) -> dict[str, int]:
        disk = db.stats()["record_disk"]
        counts = {f"record_disk.{f}": v for f, v in disk.items() if "time" not in f}
        counts["record_decryptions"] = db.records.cipher_counts.decryptions
        counts["pointer_decrypts"] = db.pointer_cipher.counts.decryptions
        return counts

    def _delta(self, db, before) -> dict[str, int]:
        return {name: v - before[name] for name, v in self._counts(db).items()}

    @staticmethod
    def _platter(db) -> list:
        return [db.disk.raw_blocks(), db.records.disk.raw_blocks()]

    @pytest.mark.parametrize("span", [(0, DESIGN.v), (40, 90), (100, 130)])
    def test_counts_and_bytes_equal_looped_get(self, pair, monkeypatch, span):
        db, control = pair
        assert self._platter(db) == self._platter(control)
        before, control_before = self._counts(db), self._counts(control)
        calls = self._spy_bulk_calls(db, monkeypatch)

        got = db.range_search(*span)
        matches = control.tree.range_search(*span)
        want = [(key, control.records.get(rid)) for key, rid in matches]
        assert got == want
        k = len(matches)
        spb = db.records.slots_per_block
        assert len({rid // spb for _, rid in matches}) < k  # repeated blocks

        delta = self._delta(db, before)
        assert delta == self._delta(control, control_before)
        assert delta["record_decryptions"] == delta["record_disk.reads"] == k
        assert self._platter(db) == self._platter(control)
        # one bulk call for the whole range, not one per match
        assert len(calls) == 1

    def test_single_get_counts_one_window(self, pair, monkeypatch):
        db, _ = pair
        before = self._counts(db)
        calls = self._spy_bulk_calls(db, monkeypatch)
        key = self.KEYS[7]
        assert db.search(key) == f"record {key} ".encode() * (key % 9 + 1)
        delta = self._delta(db, before)
        assert delta["record_decryptions"] == delta["record_disk.reads"] == 1
        assert len(calls) == 1
        assert calls[0] < len(db.records.disk.raw_block(0)) // 8

    def test_empty_range_deciphers_nothing(self, pair, monkeypatch):
        db, _ = pair
        calls = self._spy_bulk_calls(db, monkeypatch)
        before = self._counts(db)["record_decryptions"]
        gap = next(k for k in range(DESIGN.v) if k not in self.KEYS)
        assert db.range_search(gap, gap) == []
        assert calls == []
        assert self._counts(db)["record_decryptions"] == before
