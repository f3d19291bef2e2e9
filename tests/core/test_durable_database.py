"""The database on a durable backend: reopen, crash recovery, reader reopen.

The suite asserts the PR 6 contract at the database layer: a database
created on :class:`FileBackend` and killed mid-commit (after the WAL
seal, before the block apply) reopens from the directory and the
secrets alone to exactly the committed state; a second same-process
handle catches up with a writer's commits by reopening; and the
cipher-operation counts -- the paper's cost model -- are identical
across the in-memory and durable devices.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import KeyNotFoundError, StorageError
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # key universe Z_183
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0xDB))


def fresh_parts():
    return OvalSubstitution(DESIGN, t=5), RSA(KEYPAIR)


def make_db(backend, **kwargs):
    sub, rsa = fresh_parts()
    return EncipheredDatabase.create(sub, rsa, backend=backend, **kwargs)


def reopen_db(backend, **kwargs):
    sub, rsa = fresh_parts()
    return EncipheredDatabase.reopen_from_backend(sub, rsa, backend, **kwargs)


def backend_at(tmp_path):
    return FileBackend(tmp_path / "db", fsync=False)


class Kill(Exception):
    pass


class TestDurableLifecycle:
    def test_create_commit_close_reopen(self, tmp_path):
        backend = backend_at(tmp_path)
        db = make_db(backend)
        keys = random.Random(1).sample(range(DESIGN.v), 60)
        for k in keys:
            db.insert(k, f"rec-{k}".encode())
        for k in keys[::7]:
            db.delete(k)
        db.close()

        db2 = reopen_db(backend_at(tmp_path))
        live = [k for i, k in enumerate(keys) if i % 7]
        assert db2.tree.size == len(live)
        for k in live:
            assert db2.search(k) == f"rec-{k}".encode()
        for k in keys[::7]:
            with pytest.raises(KeyNotFoundError):
                db2.search(k)

    def test_reopened_handle_reuses_freed_slots(self, tmp_path):
        backend = backend_at(tmp_path)
        db = make_db(backend)
        for k in range(40):
            db.insert(k, f"v{k}".encode())
        for k in range(0, 40, 2):
            db.delete(k)
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        blocks_before = db2.records.disk.num_blocks
        for k in range(0, 40, 2):  # scan recovery must have found the holes
            db2.insert(k, f"again{k}".encode())
        assert db2.records.disk.num_blocks == blocks_before
        db2.close()
        db3 = reopen_db(backend_at(tmp_path))
        assert db3.search(2) == b"again2"
        assert db3.search(39) == b"v39"

    def test_memory_backend_same_api(self):
        backend = MemoryBackend()
        db = make_db(backend)
        db.insert(5, b"five")
        db.close()
        db2 = reopen_db(backend)
        assert db2.search(5) == b"five"

    def test_stats_carry_durability_counters(self, tmp_path):
        db = make_db(backend_at(tmp_path))
        db.insert(1, b"x")
        db.commit()
        durability = db.stats()["durability"]
        assert durability["node"]["syncs"] >= 1
        assert durability["node"]["wal_frames"] >= 1
        assert durability["records"]["syncs"] >= 1
        mem = make_db(MemoryBackend())
        assert set(mem.stats()["durability"]["node"]) == set(durability["node"])


class TestFailedDelete:
    """An absent-key delete commits only what its descent reshaped."""

    @staticmethod
    def at_rest(tmp_path) -> dict[str, bytes]:
        root = tmp_path / "db"
        return {path.name: path.read_bytes() for path in sorted(root.iterdir())}

    @staticmethod
    def device_counts(db) -> dict[str, int]:
        counts = {}
        for name, device in (("node", db.disk), ("records", db.records.disk)):
            counts[f"{name}.writes"] = device.stats.writes
            counts[f"{name}.syncs"] = device.durability_snapshot()["syncs"]
        return counts

    def test_delete_that_reshapes_nothing_writes_nothing(self, tmp_path):
        db = make_db(backend_at(tmp_path), min_degree=4)
        keys = random.Random(30).sample(range(DESIGN.v), 150)
        for k in keys:
            db.insert(k, f"rec-{k}".encode())
        tree = db.tree
        assert tree.height() >= 3
        checked = 0
        for k in sorted(set(range(DESIGN.v)) - set(keys)):
            reshaped = tree.counters.merges + tree.counters.borrows
            files, counts = self.at_rest(tmp_path), self.device_counts(db)
            with pytest.raises(KeyNotFoundError):
                db.delete(k)
            if tree.counters.merges + tree.counters.borrows != reshaped:
                continue  # a rebalancing descent commits what it wrote
            checked += 1
            assert self.at_rest(tmp_path) == files
            assert self.device_counts(db) == counts
            assert not db.has_uncommitted_changes
        assert checked >= 10
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert sorted(k for k, _ in db2.items()) == sorted(keys)

    def test_delete_that_rebalances_still_commits(self, tmp_path):
        db = make_db(backend_at(tmp_path), min_degree=2)
        keys = random.Random(31).sample(range(DESIGN.v), 60)
        for k in keys:
            db.insert(k, b"x")
        tree = db.tree
        syncs = db.disk.durability_snapshot()["syncs"]
        for k in sorted(set(range(DESIGN.v)) - set(keys)):
            reshaped = tree.counters.merges + tree.counters.borrows
            with pytest.raises(KeyNotFoundError):
                db.delete(k)
            if tree.counters.merges + tree.counters.borrows != reshaped:
                break
        else:
            pytest.fail("no absent-key delete rebalanced")
        assert db.disk.durability_snapshot()["syncs"] == syncs + 1
        assert not db.has_uncommitted_changes
        tree.check_invariants()
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert sorted(k for k, _ in db2.items()) == sorted(keys)


class TestCrashRecovery:
    def workload(self, db):
        for k in range(0, 120, 3):
            db.insert(k, f"base-{k}".encode())
        db.commit()

    def test_kill_after_wal_seal_recovers_committed_batch(self, tmp_path):
        backend = backend_at(tmp_path)
        db = make_db(backend, autocommit=False)
        self.workload(db)
        for k in range(1, 60, 3):
            db.insert(k, f"late-{k}".encode())

        def bomb(point):
            if point == "wal:appended":
                raise Kill

        db.disk.fault_hook = bomb  # node device: the commit point
        with pytest.raises(Kill):
            db.commit()
        db.disk.abandon()
        db.records.disk.abandon()

        db2 = reopen_db(backend_at(tmp_path))
        replayed = db2.stats()["durability"]["node"]["frames_replayed"]
        assert replayed >= 1
        for k in range(0, 120, 3):
            assert db2.search(k) == f"base-{k}".encode()
        for k in range(1, 60, 3):  # sealed implies durable
            assert db2.search(k) == f"late-{k}".encode()

    def test_kill_before_wal_seal_loses_only_the_uncommitted(self, tmp_path):
        backend = backend_at(tmp_path)
        db = make_db(backend, autocommit=False)
        self.workload(db)
        for k in range(1, 60, 3):
            db.insert(k, f"late-{k}".encode())

        def bomb(point):
            if point == "sync:start":
                raise Kill

        db.records.disk.fault_hook = bomb  # records sync first: nothing lands
        with pytest.raises(Kill):
            db.commit()
        db.disk.abandon()
        db.records.disk.abandon()

        db2 = reopen_db(backend_at(tmp_path))
        for k in range(0, 120, 3):
            assert db2.search(k) == f"base-{k}".encode()
        for k in range(1, 60, 3):
            with pytest.raises(KeyNotFoundError):
                db2.search(k)

    def test_recovered_state_is_byte_identical_to_uninterrupted(self, tmp_path):
        """The acceptance check: crash + recovery vs a control that
        committed the same batches cleanly -- same at-rest bytes."""
        crashed = backend_at(tmp_path)
        db = make_db(crashed, autocommit=False)
        self.workload(db)
        for k in range(1, 30, 3):
            db.insert(k, f"late-{k}".encode())
        db.disk.fault_hook = lambda p: (_ for _ in ()).throw(Kill) \
            if p == "wal:appended" else None
        with pytest.raises(Kill):
            db.commit()
        db.disk.abandon()
        db.records.disk.abandon()
        recovered = reopen_db(backend_at(tmp_path))

        control = make_db(MemoryBackend(), autocommit=False)
        self.workload(control)
        for k in range(1, 30, 3):
            control.insert(k, f"late-{k}".encode())
        control.commit()

        assert recovered.disk.raw_blocks() == control.disk.raw_blocks()
        assert (recovered.records.disk.raw_blocks()
                == control.records.disk.raw_blocks())


class TestCipherParity:
    def test_cipher_counts_identical_across_backends(self, tmp_path):
        """The durable device must not change the paper's cost model:
        same workload, same substitution/RSA/record-cipher counts."""
        observations = []
        for backend in (MemoryBackend(), backend_at(tmp_path)):
            db = make_db(backend)
            for k in range(0, 150, 2):
                db.insert(k, f"rec-{k}".encode())
            for k in range(0, 150, 10):
                db.delete(k)
            for k in range(5, 150, 15):
                try:  # hit and miss alike: both are deterministic work
                    db.search(k)
                except KeyNotFoundError:
                    pass
            db.range_search(20, 90)
            db.commit()
            s = db.stats()
            observations.append({
                "substitution": s["substitution"],
                "pointer_cipher": s["pointer_cipher"],
                "record_cipher": s["record_cipher"],
                "node_disk_writes": s["node_disk"]["writes"],
                "record_disk_writes": s["record_disk"]["writes"],
            })
        assert observations[0] == observations[1]


class TestOneLiveHandle:
    def test_second_open_refused_until_close(self, tmp_path):
        """A platter has one live handle: a reopen while the writer is
        live is refused and leaves the writer working; after close() a
        reopen sees every commit."""
        writer = make_db(backend_at(tmp_path))
        for k in range(0, 60, 2):
            writer.insert(k, f"v{k}".encode())
        with pytest.raises(StorageError, match="open in another handle"):
            reopen_db(backend_at(tmp_path))
        writer.insert(61, b"fresh")
        writer.close()

        reader = reopen_db(backend_at(tmp_path), record_cache_blocks=16)
        assert reader.search(61) == b"fresh"
        assert reader.tree.size == writer.tree.size == 31
        reader.close()


class TestClosedHandle:
    def test_get_after_close_raises_storage_error(self, tmp_path):
        db = make_db(backend_at(tmp_path))
        db.insert(7, b"seven")
        db.close()
        with pytest.raises(StorageError, match="closed platter"):
            db.get(7)
