"""Database-level batched mutations: one transaction, one commit.

``put_many``/``delete_many`` run a whole batch under one write-lock
acquisition and one commit, roll the whole batch back on a failure, and
join an enclosing transaction instead of opening their own.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)


@pytest.fixture(scope="module")
def cipher():
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xD1)))


@pytest.fixture
def db(cipher):
    return EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), cipher)


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
