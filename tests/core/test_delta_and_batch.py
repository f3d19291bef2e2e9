"""Database-level delta sync, batched mutations and cache warming.

The cluster's incremental replica protocol is built from pieces that
live on :class:`EncipheredDatabase`: ``seal_changes``/``collect_delta``
on the producer side, ``apply_delta`` on the replica side.  These tests
drive that surface directly -- one parent, one hand-made replica --
without any process machinery, so failures localise to the state
transfer itself.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.storage.disk import SimulatedDisk
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)


@pytest.fixture(scope="module")
def cipher():
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xD1)))


@pytest.fixture
def db(cipher):
    return EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher)


def make_replica(db, cipher) -> EncipheredDatabase:
    """What a process worker holds: a reopen from exported state."""
    disk = SimulatedDisk(block_size=db.disk.block_size)
    disk.import_state(db.disk.export_state())
    records = RecordStore.from_state(db.records.export_state())
    return EncipheredDatabase.reopen(
        OvalSubstitution(DESIGN, t=5), cipher, disk, records
    )


def assert_platters_identical(a: EncipheredDatabase, b: EncipheredDatabase) -> None:
    assert a.disk.export_state() == b.disk.export_state()
    assert a.records.disk.export_state() == b.records.disk.export_state()


class TestDeltaRoundTrip:
    def test_incremental_catch_up_is_byte_identical(self, db, cipher):
        keys = random.Random(0).sample(range(DESIGN.v), 60)
        for k in keys[:40]:
            db.insert(k, f"r{k}".encode())
        replica = make_replica(db, cipher)
        db.truncate_journals(0)  # the replica's full ship, at epoch 0

        for k in keys[40:]:
            db.insert(k, f"r{k}".encode())
        db.delete(keys[0])
        db.seal_changes(1)

        delta = db.collect_delta(0, 1)
        assert delta is not None
        # the delta is targeted: far fewer blocks than the platters hold
        total = db.disk.num_blocks + db.records.disk.num_blocks
        assert 0 < delta.blocks_shipped < total

        replica.apply_delta(delta)
        assert_platters_identical(db, replica)
        assert len(replica) == len(db)
        assert dict(replica.items()) == dict(db.items())

    def test_repeated_rewrites_ship_final_bytes_once(self, db, cipher):
        db.insert(1, b"v1")
        replica = make_replica(db, cipher)
        db.truncate_journals(0)
        for version in range(5):  # hammer the same key's record slot
            db.delete(1)
            db.insert(1, f"v{version}".encode())
        db.seal_changes(1)
        delta = db.collect_delta(0, 1)
        replica.apply_delta(delta)
        assert_platters_identical(db, replica)
        assert replica.search(1) == db.search(1)

    def test_multi_epoch_catch_up(self, db, cipher):
        db.insert(1, b"one")
        replica = make_replica(db, cipher)
        db.truncate_journals(0)
        for epoch, key in enumerate((2, 3, 4), start=1):
            db.insert(key, f"k{key}".encode())
            db.seal_changes(epoch)
        delta = db.collect_delta(0, 3)  # three epochs behind
        replica.apply_delta(delta)
        assert_platters_identical(db, replica)
        assert sorted(dict(replica.items())) == [1, 2, 3, 4]

    def test_truncated_history_refuses_delta(self, db):
        db.truncate_journals(5)
        db.insert(1, b"one")
        db.seal_changes(6)
        assert db.collect_delta(3, 6) is None  # consumer older than floor
        assert db.collect_delta(5, 6) is not None

    def test_uncommitted_state_refuses_delta(self, cipher):
        db = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), cipher, autocommit=False
        )
        db.truncate_journals(0)
        db.insert(1, b"one")  # platter node blocks written, superblock stale
        assert db.has_uncommitted_changes
        assert db.collect_delta(0, 1) is None
        db.commit()
        db.seal_changes(1)
        assert db.collect_delta(0, 1) is not None

    def test_delta_apply_invalidates_replica_caches(self, db, cipher):
        """Cached plaintext on the replica must not survive a patch of
        the bytes it was deciphered from."""
        db.records.cache.resize(8)
        for k in (1, 2, 3):
            db.insert(k, f"old{k}".encode())
        replica = make_replica(db, cipher)
        replica.records.cache.resize(8)
        db.truncate_journals(0)
        assert replica.search(2) == b"old2"  # warm the replica's caches

        db.delete(2)
        db.insert(2, b"new2")
        db.seal_changes(1)
        replica.apply_delta(db.collect_delta(0, 1))
        assert replica.search(2) == b"new2"

    def test_committed_but_unsealed_changes_refuse_delta(self, db):
        """Between a sibling writer's commit and its seal (or after a
        rollback's freed slots) the platter is ahead of the sealed
        history: a delta would pair fresh tree metadata with missing
        blocks, so only a full snapshot may serve that sync."""
        db.truncate_journals(0)
        db.insert(1, b"one")
        db.seal_changes(1)
        db.insert(2, b"two")  # committed, not yet sealed
        assert db.has_unsealed_changes
        assert db.collect_delta(0, 1) is None
        db.seal_changes(2)
        assert db.collect_delta(0, 2) is not None

    def test_no_op_commit_is_journal_invisible(self, db):
        db.insert(1, b"one")
        db.seal_changes(1)
        assert not db.has_unsealed_changes
        db.commit()  # rewrites the superblock with identical ciphertext
        assert not db.has_unsealed_changes
        db.insert(2, b"two")
        assert db.has_unsealed_changes


class TestBatchedMutations:
    def test_put_many_inserts_everything(self, db):
        items = [(k, f"r{k}".encode()) for k in (5, 1, 9, 3)]
        assert db.put_many(items) == 4
        assert dict(db.items()) == dict(items)

    def test_put_many_commits_once(self, db, cipher):
        """The batch costs one superblock rewrite, not one per key."""
        keys = random.Random(1).sample(range(DESIGN.v), 20)
        control = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher)
        for k in keys:
            control.insert(k, b"x")
        batched_before = db.disk.stats.writes
        db.put_many((k, b"x") for k in keys)
        batched_writes = db.disk.stats.writes - batched_before
        assert batched_writes < control.disk.stats.writes
        assert dict(db.items()) == dict(control.items())

    def test_put_many_rolls_back_whole_batch(self, db):
        db.insert(7, b"seven")
        with pytest.raises(DuplicateKeyError):
            db.put_many([(1, b"one"), (7, b"dup"), (2, b"two")])
        assert dict(db.items()) == {7: b"seven"}  # 1 rolled back too

    def test_delete_many_and_rollback(self, db):
        db.put_many([(k, b"x") for k in (1, 2, 3, 4)])
        assert db.delete_many([2, 4]) == 2
        assert sorted(dict(db.items())) == [1, 3]
        with pytest.raises(KeyNotFoundError):
            db.delete_many([1, 99])
        assert sorted(dict(db.items())) == [1, 3]  # 1 survived the rollback

    def test_batches_join_an_enclosing_transaction(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.put_many([(1, b"one"), (2, b"two")])
                db.delete_many([1])
                raise RuntimeError("abort")
        assert len(db) == 0  # the outer rollback took the batch with it

    def test_empty_batches(self, db):
        assert db.put_many([]) == 0
        assert db.delete_many([]) == 0

    def test_foreign_thread_batch_keeps_atomicity(self, db):
        """Regression: a batch racing another thread's open transaction
        must not 'join' it -- it waits for the write lock and runs as
        its own atomic transaction, so a mid-batch failure still rolls
        the whole batch back."""
        import threading
        import time

        db.insert(7, b"seven")
        entered = threading.Event()
        failures: list[BaseException] = []

        def foreign_batch():
            try:
                entered.wait(5)
                # duplicate key 7 must roll back 1 and 2 as well
                with pytest.raises(DuplicateKeyError):
                    db.put_many([(1, b"one"), (7, b"dup"), (2, b"two")])
            except BaseException as exc:  # pragma: no cover - fail path
                failures.append(exc)

        thread = threading.Thread(target=foreign_batch)
        thread.start()
        with db.transaction():
            db.insert(8, b"eight")
            entered.set()  # the batch now observes _in_txn == True
            time.sleep(0.2)  # ... while this scope is still open
        thread.join(10)
        assert not failures, failures
        assert dict(db.items()) == {7: b"seven", 8: b"eight"}
