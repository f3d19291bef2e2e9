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
from repro.exceptions import DuplicateKeyError, KeyNotFoundError, StorageError
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


class TestFailedMutation:
    """A duplicate insert or an absent-key delete raises before its
    descent edits anything: no byte, device count or commit moves."""

    @staticmethod
    def at_rest(tmp_path) -> dict[str, bytes]:
        root = tmp_path / "db"
        return {path.name: path.read_bytes() for path in sorted(root.iterdir())}

    @staticmethod
    def device_counts(db) -> dict[str, int]:
        counts = {}
        for name, device in (("node", db.disk), ("records", db.records.disk)):
            durability = device.durability_snapshot()
            counts[f"{name}.writes"] = device.stats.writes
            counts[f"{name}.syncs"] = durability["syncs"]
            counts[f"{name}.header_flips"] = durability["header_flips"]
        return counts

    def assert_untouched(self, tmp_path, db, mutation, error):
        files, counts = self.at_rest(tmp_path), self.device_counts(db)
        with pytest.raises(error):
            mutation()
        assert self.at_rest(tmp_path) == files
        assert self.device_counts(db) == counts
        assert not db.has_uncommitted_changes

    def test_failed_mutations_write_nothing(self, tmp_path):
        db = make_db(backend_at(tmp_path), min_degree=4)
        keys = random.Random(30).sample(range(DESIGN.v), 150)
        for k in keys:
            db.insert(k, f"rec-{k}".encode())
        assert db.tree.height() >= 3
        for k in keys[::5]:
            self.assert_untouched(
                tmp_path, db, lambda: db.insert(k, b"again"), DuplicateKeyError
            )
        for k in sorted(set(range(DESIGN.v)) - set(keys)):
            self.assert_untouched(tmp_path, db, lambda: db.delete(k), KeyNotFoundError)
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert sorted(k for k, _ in db2.items()) == sorted(keys)
        assert db2.search(keys[0]) == f"rec-{keys[0]}".encode()

    def test_missing_key_delete_never_commits(self, tmp_path):
        # t=2 keeps many minimal nodes on every path: the descents a
        # top-down delete would rebalance on its way to a missing key
        db = make_db(backend_at(tmp_path), min_degree=2)
        keys = random.Random(31).sample(range(DESIGN.v), 60)
        for k in keys:
            db.insert(k, b"x")
        tree = db.tree
        syncs = db.disk.durability_snapshot()["syncs"]
        reshaped = tree.counters.merges + tree.counters.borrows
        for k in sorted(set(range(DESIGN.v)) - set(keys)):
            with pytest.raises(KeyNotFoundError):
                db.delete(k)
        assert tree.counters.merges + tree.counters.borrows == reshaped
        assert db.disk.durability_snapshot()["syncs"] == syncs
        assert not db.has_uncommitted_changes
        tree.check_invariants()
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert sorted(k for k, _ in db2.items()) == sorted(keys)

    def test_node_write_failing_mid_split_rolls_the_insert_back(
        self, tmp_path, monkeypatch
    ):
        # t=2 splits often; the first insert below that splits a node
        # fails on its second node write.  It must leave no trace the
        # next commit could make durable: nothing reaches the node
        # device, and the record slot it filled is freed again (two
        # record writes, staged and never synced)
        db = make_db(backend_at(tmp_path), min_degree=2)
        keys = random.Random(33).sample(range(DESIGN.v), 60)
        live = keys[:40]
        for k in live:
            db.insert(k, f"rec-{k}".encode())
        pager = db.tree.pager
        write = pager.write
        writes = []

        def second_write_fails(block_id, data):
            writes.append(block_id)
            if len(writes) == 2:
                raise OSError("node write failed")
            write(block_id, data)

        monkeypatch.setattr(pager, "write", second_write_fails)
        for failed in keys[40:]:
            writes.clear()
            files, counts = self.at_rest(tmp_path), self.device_counts(db)
            records, size = db.records.count, len(db)
            try:
                db.insert(failed, f"rec-{failed}".encode())
            except OSError:
                break
            live.append(failed)
        else:
            pytest.fail("no insert split a node")
        assert self.at_rest(tmp_path) == files
        counts["records.writes"] += 2
        assert self.device_counts(db) == counts
        assert (db.records.count, len(db)) == (records, size)
        assert not db.has_uncommitted_changes
        monkeypatch.undo()

        extra = next(k for k in keys[40:] if k not in live and k != failed)
        db.insert(extra, f"rec-{extra}".encode())
        live.append(extra)
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        db2.tree.check_invariants()
        assert len(db2) == len(live)
        for k in live:
            assert db2.search(k) == f"rec-{k}".encode()
        assert failed not in db2
        db2.close()


class TestCrashRecovery:
    def workload(self, db):
        with db.transaction():
            for k in range(0, 120, 3):
                db.insert(k, f"base-{k}".encode())

    @staticmethod
    def late_batch(db, keys):
        with db.transaction():
            for k in keys:
                db.insert(k, f"late-{k}".encode())

    def test_kill_after_wal_seal_recovers_committed_batch(self, tmp_path):
        backend = backend_at(tmp_path)
        db = make_db(backend)
        self.workload(db)

        def bomb(point):
            if point == "wal:appended":
                raise Kill

        db.disk.fault_hook = bomb  # node device: the commit point
        with pytest.raises(Kill):
            self.late_batch(db, range(1, 60, 3))
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
        db = make_db(backend)
        self.workload(db)

        def bomb(point):
            if point == "sync:start":
                raise Kill

        db.records.disk.fault_hook = bomb  # records sync first: nothing lands
        with pytest.raises(Kill):
            self.late_batch(db, range(1, 60, 3))
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
        db = make_db(crashed)
        self.workload(db)
        db.disk.fault_hook = lambda p: (_ for _ in ()).throw(Kill) \
            if p == "wal:appended" else None
        with pytest.raises(Kill):
            self.late_batch(db, range(1, 30, 3))
        db.disk.abandon()
        db.records.disk.abandon()
        recovered = reopen_db(backend_at(tmp_path))

        control = make_db(MemoryBackend())
        self.workload(control)
        self.late_batch(control, range(1, 30, 3))

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
        with pytest.raises(StorageError, match="I/O on a closed device"):
            db.get(7)
