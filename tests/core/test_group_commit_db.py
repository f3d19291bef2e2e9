"""Concurrent commits at the database layer.

A commit stages under the write lock and syncs under the read lock, so
concurrent explicit committers share WAL frames with no extra
machinery.  This suite pins the single-threaded platter bytes and
durability counters, proves concurrent committers all reach durability,
keeps a transaction's commit inline, and covers the stale-superblock
regression: an uncommitted write-through mutation that lands between
one committer's staging and its sync must never be sealed without the
superblock that describes it.
"""

from __future__ import annotations

import hashlib
import random
import threading
from contextlib import contextmanager

import pytest

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.storage.backend import FileBackend
from repro.storage.platter import FilePlatter

DESIGN = planar_difference_set(13)
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0x9C))


def fresh_parts():
    from repro.substitution.oval import OvalSubstitution

    return OvalSubstitution(DESIGN, t=5), RSA(KEYPAIR)


def make_db(backend, **kwargs):
    sub, rsa = fresh_parts()
    return EncipheredDatabase.create(sub, rsa, backend=backend, **kwargs)


def reopen_db(backend, **kwargs):
    sub, rsa = fresh_parts()
    return EncipheredDatabase.reopen_from_backend(sub, rsa, backend, **kwargs)


def backend_at(tmp_path):
    return FileBackend(tmp_path / "db", fsync=False)


def platter_digest(device):
    """A short hash over every at-rest block of one device."""
    h = hashlib.sha256()
    for block_id, data in device.raw_blocks():
        h.update(block_id.to_bytes(8, "little"))
        h.update(len(data).to_bytes(4, "little") + data)
    return h.hexdigest()[:16]


def pinned_outcome(tmp_path, autocommit):
    """Per device (at-rest digest, syncs, WAL frames, header flips, WAL
    bytes) after a fixed insert/delete workload with two commits."""
    db = make_db(backend_at(tmp_path), autocommit=autocommit)
    for k in range(0, 90, 3):
        db.insert(k, f"rec-{k}".encode())
    db.commit()
    for k in range(0, 90, 9):
        db.delete(k)
    db.commit()
    outcome = {}
    for name, device in (("node", db.disk), ("records", db.records.disk)):
        snap = device.durability_snapshot()
        outcome[name] = (
            platter_digest(device),
            snap["syncs"],
            snap["wal_frames"],
            snap["header_flips"],
            snap["wal_bytes"],
        )
    db.close()
    return outcome


class TestDefaults:
    def test_stats_surface(self, tmp_path):
        db = make_db(backend_at(tmp_path), autocommit=False)
        db.insert(1, b"x")
        db.commit()
        durability = db.stats()["durability"]
        assert durability["node"]["wal_frames"] >= 1
        assert durability["node"]["header_flips"] == durability["node"]["wal_frames"]
        assert durability["records"]["wal_frames"] >= 1
        db.close()


class TestPinnedPlatter:
    """Single-threaded commits write exactly the bytes, frames and flips
    of the serial protocol: per device, (at-rest digest, syncs, WAL
    frames, header flips, WAL bytes)."""

    EXPECTED = {
        True: {
            "node": ("ac42e77eee1edaf4", 41, 41, 41, 9453),
            "records": ("29546da74762bb8b", 40, 40, 40, 15936),
        },
        False: {
            "node": ("ac42e77eee1edaf4", 3, 3, 3, 1371),
            "records": ("29546da74762bb8b", 2, 2, 2, 7444),
        },
    }

    @pytest.mark.parametrize("autocommit", [True, False])
    def test_bytes_and_counters_pinned(self, tmp_path, autocommit):
        assert pinned_outcome(tmp_path, autocommit) == self.EXPECTED[autocommit]

    def test_group_commit_env_flag_is_inert(self, tmp_path, monkeypatch):
        # the old opt-in switch must not select any other protocol
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "1")
        assert pinned_outcome(tmp_path, False) == self.EXPECTED[False]


class TestConcurrentCommitters:
    def test_all_committers_durable_after_reopen(self, tmp_path):
        db = make_db(backend_at(tmp_path), autocommit=False)
        before = db.stats()["durability"]["node"]
        barrier = threading.Barrier(8)
        errors = []

        def committer(i):
            try:
                barrier.wait()
                db.insert(i, f"thread-{i}".encode())
                db.commit()
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=committer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        after = db.stats()["durability"]["node"]
        frames = after["wal_frames"] - before["wal_frames"]
        assert 1 <= frames <= 8
        assert after["header_flips"] - before["header_flips"] == frames
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        for i in range(8):
            assert db2.search(i) == f"thread-{i}".encode()
        db2.close()


    def test_follower_sync_finds_nothing_pending(self, tmp_path):
        # B stages after A and syncs only once A's sync is done: A's one
        # frame per device carries both commits, and B's sync is free
        db = make_db(backend_at(tmp_path), autocommit=False)
        db.insert(1, b"a")
        committer = threading.current_thread()
        real_read_locked = db.lock.read_locked
        b_staged = threading.Event()
        a_synced = threading.Event()
        intercepted = set()

        def commit_b():
            db.insert(2, b"b")
            db.commit()

        @contextmanager
        def read_locked():
            me = threading.current_thread()
            first = me not in intercepted
            intercepted.add(me)
            if first and me is committer:
                b = threading.Thread(target=commit_b)
                b.start()
                assert b_staged.wait(5)
                with real_read_locked():
                    yield
                a_synced.set()
                b.join(5)
                assert not b.is_alive()
                return
            if first:
                b_staged.set()
                assert a_synced.wait(5)
            with real_read_locked():
                yield

        before = {
            name: dev.durability_snapshot()["wal_frames"]
            for name, dev in (("node", db.disk), ("records", db.records.disk))
        }
        db.lock.read_locked = read_locked
        db.commit()
        assert a_synced.is_set()
        for name, dev in (("node", db.disk), ("records", db.records.disk)):
            assert dev.durability_snapshot()["wal_frames"] == before[name] + 1
        db.disk.abandon()
        db.records.disk.abandon()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(1) == b"a"
        assert db2.search(2) == b"b"
        db2.close()


class TestReadersDuringSync:
    def test_reader_runs_while_commit_syncs(self, tmp_path):
        # the sync holds only the read side, so a query started while
        # the node device is mid-sync completes and sees the staged tree
        db = make_db(backend_at(tmp_path), autocommit=False)
        for k in range(20):
            db.insert(k, b"r%d" % k)
        db.commit()
        db.insert(100, b"late")
        seen = {}

        def hook(point):
            if point != "sync:start":
                return
            db.disk.fault_hook = None
            reader = threading.Thread(target=lambda: seen.update(
                record=db.search(5), size=len(db), late=100 in db))
            reader.start()
            reader.join(5)
            seen["blocked"] = reader.is_alive()

        db.disk.fault_hook = hook
        db.commit()
        assert seen == {"record": b"r5", "size": 21, "late": True,
                        "blocked": False}
        db.close()


class TestTransactionsStaySerial:
    def test_commit_inside_transaction_syncs_inline(self, tmp_path):
        # the transaction owner holds the write lock, so its commit
        # re-enters the read side and syncs before the scope goes on
        db = make_db(backend_at(tmp_path), autocommit=False)
        before = db.stats()["durability"]["node"]["syncs"]
        with db.transaction():
            db.insert(3, b"t")
            db.commit()  # explicit mid-transaction commit point
            assert db.stats()["durability"]["node"]["syncs"] == before + 1
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(3) == b"t"
        db2.close()


class TestStaleSuperblock:
    def test_uncommitted_write_between_stage_and_sync(self, tmp_path):
        # thread B's autocommit=False insert lands after A's staging and
        # before A's sync; A's sync must not seal B's node blocks without
        # a superblock that counts B's key, or reopen fails with
        # "superblock records 1 keys, tree holds 2"
        backend = backend_at(tmp_path)
        db = make_db(backend, autocommit=False)
        db.insert(1, b"committed")
        committer = threading.current_thread()
        real_read_locked = db.lock.read_locked
        fired = []

        @contextmanager
        def read_locked():
            if not fired and threading.current_thread() is committer:
                fired.append(True)
                b = threading.Thread(target=db.insert, args=(2, b"uncommitted"))
                b.start()
                b.join()
            with real_read_locked():
                yield

        db.lock.read_locked = read_locked
        db.commit()
        assert fired
        db.disk.abandon()
        db.records.disk.abandon()

        db2 = reopen_db(backend_at(tmp_path))
        assert len(db2) == 2
        assert db2.search(1) == b"committed"
        assert db2.search(2) == b"uncommitted"
        db2.close()

    @pytest.mark.parametrize("mutation", ["insert", "delete", "insert_and_delete"])
    def test_intervening_mutation_sealed_with_its_superblock(
        self, tmp_path, mutation
    ):
        # whatever write-through change slips in between the two steps,
        # the frame that seals it carries a superblock describing it
        db = make_db(backend_at(tmp_path), autocommit=False)
        for k in (1, 2, 3):
            db.insert(k, b"base-%d" % k)
        db.commit()
        db.insert(10, b"staged")

        def intervene():
            if mutation in ("insert", "insert_and_delete"):
                db.insert(11, b"intervening")
            if mutation in ("delete", "insert_and_delete"):
                db.delete(2)

        committer = threading.current_thread()
        real_read_locked = db.lock.read_locked
        fired = []

        @contextmanager
        def read_locked():
            if not fired and threading.current_thread() is committer:
                fired.append(True)
                b = threading.Thread(target=intervene)
                b.start()
                b.join()
            with real_read_locked():
                yield

        db.lock.read_locked = read_locked
        db.commit()
        assert fired
        assert not db.has_uncommitted_changes
        expected = dict(db.items())
        db.disk.abandon()
        db.records.disk.abandon()

        db2 = reopen_db(backend_at(tmp_path))
        assert dict(db2.items()) == expected
        assert (11 in expected) == (mutation != "delete")
        assert (2 in expected) == (mutation == "insert")
        db2.tree.check_invariants()
        db2.close()


class Kill(Exception):
    pass


CRASH_POINTS = ["sync:start", "wal:appended", "apply:block", "apply:done",
                "header:flipped"]


class TestCrashDuringSharedSync:
    """Four threads stage inserts, then one commit's sync is killed at
    each protocol point of each device.  The node device's WAL frame is
    the commit point: once it is sealed every staged key survives,
    before it none does, and reopen always finds a superblock that
    agrees with the tree."""

    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("device", ["records", "node"])
    def test_kill_recovers_all_or_none(self, tmp_path, device, point):
        db = make_db(backend_at(tmp_path), autocommit=False)
        for k in range(0, 60, 3):
            db.insert(k, b"base-%d" % k)
        db.commit()
        stagers = [
            threading.Thread(target=db.insert, args=(k, b"late-%d" % k))
            for k in (1, 4, 7, 10)
        ]
        for t in stagers:
            t.start()
        for t in stagers:
            t.join()

        def bomb(p):
            if p == point:
                raise Kill

        target = db.disk if device == "node" else db.records.disk
        target.fault_hook = bomb
        with pytest.raises(Kill):
            db.commit()
        db.disk.abandon()
        db.records.disk.abandon()

        db2 = reopen_db(backend_at(tmp_path))
        sealed = device == "node" and point != "sync:start"
        for k in range(0, 60, 3):
            assert db2.search(k) == b"base-%d" % k
        for k in (1, 4, 7, 10):
            assert db2.get(k) == (b"late-%d" % k if sealed else None)
        assert len(db2) == 20 + (4 if sealed else 0)
        db2.tree.check_invariants()
        db2.close()


class TestSyncFailure:
    def arm_once(self, device):
        def bomb(point):
            if point == "sync:start":
                device.fault_hook = None
                raise Kill

        device.fault_hook = bomb

    def test_failed_sync_keeps_changes_uncommitted(self, tmp_path):
        # a commit whose sync fails is not durable: the flag stays set,
        # so close() retries the commit
        db = make_db(backend_at(tmp_path), autocommit=False)
        db.insert(1, b"x")
        self.arm_once(db.disk)
        with pytest.raises(Kill):
            db.commit()
        assert db.has_uncommitted_changes
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(1) == b"x"
        db2.close()

    def test_failed_sync_releases_the_lock(self, tmp_path):
        db = make_db(backend_at(tmp_path), autocommit=False)
        db.insert(1, b"x")
        self.arm_once(db.records.disk)
        with pytest.raises(Kill):
            db.commit()
        writer = threading.Thread(target=db.insert, args=(2, b"y"))
        writer.start()
        writer.join(5)
        assert not writer.is_alive()
        db.commit()
        db.disk.abandon()
        db.records.disk.abandon()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(1) == b"x"
        assert db2.search(2) == b"y"
        db2.close()


class TestRemovedOptions:
    """The deleted commit knobs fail loudly instead of being ignored."""

    @pytest.mark.parametrize("option", ["group_commit", "background_checkpoint"])
    def test_platter_rejects(self, tmp_path, option):
        with pytest.raises(TypeError):
            FilePlatter(tmp_path / "p.platter", block_size=64, fsync=False,
                        **{option: True})

    @pytest.mark.parametrize("option", ["group_commit", "background_checkpoint"])
    def test_backend_rejects(self, tmp_path, option):
        with pytest.raises(TypeError):
            FileBackend(tmp_path / "db", fsync=False, **{option: True})

    @pytest.mark.parametrize("option", ["group_commit", "async_flush"])
    def test_database_constructors_reject(self, tmp_path, option):
        with pytest.raises(TypeError):
            make_db(backend_at(tmp_path), **{option: True})
        make_db(backend_at(tmp_path)).close()
        with pytest.raises(TypeError):
            reopen_db(backend_at(tmp_path), **{option: True})

    def test_durability_methods_gone(self, tmp_path):
        db = make_db(backend_at(tmp_path))
        assert not hasattr(db, "wait_durable")
        assert not hasattr(db.disk, "checkpoint_now")
        assert "commit_group" not in db.stats()
        assert "group_rounds" not in db.disk.durability_snapshot()
        db.close()
