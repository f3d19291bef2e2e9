"""Concurrent access: readers share, writers serialise, nothing tears.

The acceptance bar: interleaved reader/writer threads never observe a
torn superblock or raise :class:`IntegrityError`.  A verifier thread
makes that literal -- it repeatedly *reopens* the database from its
platters under the read lock, which authenticates the superblock and
walks the whole tree; any torn state fails loudly.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_READERS = 4


@pytest.fixture(scope="module")
def keypairs():
    return {
        i: generate_rsa_keypair(bits=128, rng=random.Random(0xCC + i))
        for i in range(4)
    }


def run_all(threads, timeout=60):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads), "threads wedged"


class TestSingleDatabaseConcurrency:
    def test_readers_and_writer_interleave(self, keypairs):
        substitution = OvalSubstitution(DESIGN, t=UNITS[0])
        cipher = RSA(keypairs[0])
        backend = MemoryBackend()
        db = EncipheredDatabase.create(substitution, cipher, backend=backend)
        stable = list(range(0, 60))
        for k in stable:
            db.insert(k, f"stable-{k}".encode())

        errors: list[BaseException] = []
        writer_done = threading.Event()

        def writer():
            try:
                for k in range(60, 150):
                    db.insert(k, f"hot-{k}".encode())
                for k in range(60, 100):
                    db.delete(k)
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)
            finally:
                writer_done.set()

        def reader(seed: int):
            rng = random.Random(seed)
            try:
                while not writer_done.is_set():
                    k = rng.choice(stable)
                    assert db.search(k) == f"stable-{k}".encode()
                    assert k in db
                    lo = rng.randrange(0, 50)
                    results = db.range_search(lo, lo + 9)
                    for key, record in results:
                        if key < 60:
                            assert record == f"stable-{key}".encode()
                    assert len(db) >= len(stable)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def verifier():
            """Read the superblock off the platter mid-flight: it must
            always decipher and agree with the tree it describes."""
            try:
                while not writer_done.is_set():
                    with db.lock.read_locked():
                        _, root_id, _, size = EncipheredDatabase._read_superblock(
                            db.disk, b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde"
                        )
                        assert (root_id, size) == (db.tree.root_id, len(db))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [
            threading.Thread(target=reader, args=(i,)) for i in range(NUM_READERS)
        ]
        threads.append(threading.Thread(target=verifier))
        run_all(threads)
        assert not errors, f"concurrent access failed: {errors[:3]}"
        assert len(db) == 60 + 50
        db.tree.check_invariants()
        # a final reopen proves the platter state is coherent
        db.close()
        reopened = EncipheredDatabase.reopen_from_backend(
            OvalSubstitution(DESIGN, t=UNITS[0]), RSA(keypairs[0]), backend
        )
        assert len(reopened) == 110

    def test_transaction_scope_excludes_readers(self, keypairs):
        """A reader can never see a transaction's intermediate state."""
        db = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=UNITS[0]), RSA(keypairs[1])
        )
        db.insert(1, b"base")
        observed: list[int] = []
        in_txn = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                with db.transaction():
                    db.insert(2, b"a")
                    in_txn.set()
                    db.insert(3, b"b")
                    db.insert(4, b"c")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                in_txn.wait(timeout=10)
                # blocks until the transaction commits, then sees all of it
                observed.append(len(db))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        t_w = threading.Thread(target=writer)
        t_r = threading.Thread(target=reader)
        t_w.start()
        assert in_txn.wait(timeout=10)
        t_r.start()
        t_w.join(timeout=30)
        t_r.join(timeout=30)
        assert not t_w.is_alive() and not t_r.is_alive(), "threads wedged"
        assert not errors
        assert observed == [4]  # all-or-nothing: never 2 or 3


class TestForeignThreadRollback:
    def test_rollback_from_other_thread_after_commit_is_rejected(self, keypairs):
        """A foreign rollback() queued behind a live transaction must get
        StorageError once it runs, never a rollback against the committed
        state (the snapshot check happens under the write lock)."""
        from repro.exceptions import StorageError

        db = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=UNITS[0]), RSA(keypairs[2])
        )
        in_txn = threading.Event()
        release = threading.Event()
        outcome: list[object] = []

        def writer():
            with db.transaction():
                db.insert(1, b"committed")
                in_txn.set()
                release.wait(timeout=10)

        def meddler():
            in_txn.wait(timeout=10)
            release.set()  # let the transaction commit while we block
            try:
                db.rollback()
            except StorageError as exc:
                outcome.append(exc)
            except BaseException as exc:  # noqa: BLE001
                outcome.append(exc)
            else:
                outcome.append("rolled back")

        run_all([threading.Thread(target=writer), threading.Thread(target=meddler)])
        assert len(outcome) == 1 and isinstance(outcome[0], StorageError)
        assert db.search(1) == b"committed"


class TestShardedConcurrency:
    def test_parallel_writers_on_distinct_shards(self, keypairs):
        """Range routing gives each writer its own shard: per-shard write
        locks let them proceed together while cluster readers fan out."""
        db = ShardedEncipheredDatabase.create(
            lambda i: OvalSubstitution(DESIGN, t=UNITS[i]),
            lambda i: RSA(keypairs[i]),
            num_shards=4,
            router="range",
        )
        boundaries = db.router.boundaries
        lanes = [
            range(0, boundaries[0]),
            range(boundaries[0], boundaries[1]),
            range(boundaries[1], boundaries[2]),
            range(boundaries[2], DESIGN.v),
        ]
        errors: list[BaseException] = []
        done = threading.Event()

        def writer(lane: range):
            try:
                for k in lane:
                    db.insert(k, f"w-{k}".encode())
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                while not done.is_set():
                    results = db.range_search(0, DESIGN.v - 1)
                    keys = [k for k, _ in results]
                    assert keys == sorted(keys)  # merged order is coherent
                    for k, record in results[:10]:
                        assert record == f"w-{k}".encode()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(lane,)) for lane in lanes]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        run_all(writers)
        done.set()
        for t in readers:
            t.join(timeout=60)
        assert not errors, f"sharded concurrent access failed: {errors[:3]}"
        assert len(db) == DESIGN.v
        db.check_invariants()
        db.close()
