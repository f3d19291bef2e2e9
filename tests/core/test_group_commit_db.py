"""Group commit and async flush at the database layer.

The platter-level suite (tests/storage/test_group_commit.py) proves
the WAL-round coalescing; this one proves the database plumbing above
it: the env-flag default, parity with serial commits, concurrent
committers all reaching durability, the async flusher's deferred
durability point, error surfacing, and the rollback-during-async-flush
regression from the PR 9 bugfix sweep.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import KeyNotFoundError
from repro.storage.backend import FileBackend, MemoryBackend

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


def backend_at(tmp_path, group_commit=True):
    return FileBackend(tmp_path / "db", fsync=False, group_commit=group_commit)


class Kill(Exception):
    pass


class TestDefaults:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_GROUP_COMMIT", raising=False)
        db = make_db(MemoryBackend())
        assert db._group_commit is False

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "1")
        assert make_db(MemoryBackend())._group_commit is True

    def test_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "0")
        assert make_db(MemoryBackend())._group_commit is False

    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "1")
        assert make_db(MemoryBackend(), group_commit=False)._group_commit is False

    def test_stats_surface(self, tmp_path):
        db = make_db(backend_at(tmp_path), group_commit=True, autocommit=False)
        db.insert(1, b"x")
        db.commit()
        s = db.stats()
        assert s["commit_group"]["rounds"] >= 1
        assert s["commit_group"]["joins"] >= 0
        assert s["commit_group"]["async_flushes"] == 0
        db.close()


class TestParityWithSerial:
    def workload(self, db):
        for k in range(0, 90, 3):
            db.insert(k, f"rec-{k}".encode())
        db.commit()
        for k in range(0, 90, 9):
            db.delete(k)
        db.commit()

    def test_single_threaded_bytes_and_counters_match(self, tmp_path):
        outcomes = {}
        for name, group in (("serial", False), ("grouped", True)):
            backend = FileBackend(tmp_path / name, fsync=False)
            db = make_db(backend, autocommit=False, group_commit=group)
            self.workload(db)
            snap = db.stats()["durability"]
            outcomes[name] = {
                "node_bytes": db.disk.raw_blocks(),
                "record_bytes": db.records.disk.raw_blocks(),
                "node_syncs": snap["node"]["syncs"],
                "node_frames": snap["node"]["wal_frames"],
                "record_syncs": snap["records"]["syncs"],
            }
            db.close()
        assert outcomes["grouped"] == outcomes["serial"]


class TestConcurrentCommitters:
    def test_all_committers_durable_after_reopen(self, tmp_path):
        db = make_db(backend_at(tmp_path), autocommit=False, group_commit=True)
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
        rounds = db.stats()["commit_group"]["rounds"]
        assert 1 <= rounds <= 8
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        for i in range(8):
            assert db2.search(i) == f"thread-{i}".encode()
        db2.close()


class TestAsyncFlush:
    def test_commit_returns_wait_durable_lands_it(self, tmp_path):
        db = make_db(
            backend_at(tmp_path),
            autocommit=False,
            group_commit=True,
            async_flush=True,
        )
        db.insert(7, b"seven")
        db.commit()  # staged; durability deferred to the flusher
        assert db.stats()["commit_group"]["async_flushes"] >= 1  # create commits too
        db.wait_durable()
        assert db.stats()["commit_group"]["rounds"] >= 1
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(7) == b"seven"
        db2.close()

    def test_close_drains_staged_work(self, tmp_path):
        db = make_db(
            backend_at(tmp_path),
            autocommit=False,
            group_commit=True,
            async_flush=True,
        )
        for k in range(5):
            db.insert(k, f"v{k}".encode())
            db.commit()
        db.close()  # no explicit wait_durable: close must drain
        db2 = reopen_db(backend_at(tmp_path))
        for k in range(5):
            assert db2.search(k) == f"v{k}".encode()
        db2.close()

    def test_flush_error_surfaces_once_then_clears(self, tmp_path):
        db = make_db(
            backend_at(tmp_path),
            autocommit=False,
            group_commit=True,
            async_flush=True,
        )
        db.insert(1, b"x")
        db.commit()
        db.wait_durable()  # baseline durable

        def bomb(point):
            if point == "sync:start":
                raise Kill

        db.disk.fault_hook = bomb
        db.insert(2, b"y")
        db.commit()  # returns; background flush will fail
        with pytest.raises(Kill):
            db.wait_durable()
        db.disk.fault_hook = None
        db.wait_durable()  # retried round succeeds, error is spent
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(2) == b"y"
        db2.close()

    def test_rollback_during_async_flush_regression(self, tmp_path):
        # the PR 9 bugfix sweep's scenario: a commit is staged for async
        # durability when a transaction opens, writes, and rolls back.
        # The rollback must discard only the transaction's pages -- the
        # staged commit's blocks are already flushed to the platter (the
        # pager flush happens at staging), so the in-flight durability
        # round must land exactly the committed bytes.
        db = make_db(
            backend_at(tmp_path),
            autocommit=False,
            group_commit=True,
            async_flush=True,
        )
        db.insert(1, b"committed")
        db.commit()  # async: durability may still be in flight
        with pytest.raises(Kill):
            with db.transaction():
                db.insert(2, b"doomed")
                raise Kill
        db.wait_durable()
        assert db.search(1) == b"committed"
        with pytest.raises(KeyNotFoundError):
            db.search(2)
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(1) == b"committed"
        with pytest.raises(KeyNotFoundError):
            db2.search(2)
        db2.close()


class TestTransactionsStaySerial:
    def test_commit_inside_transaction_syncs_inline(self, tmp_path):
        # a thread holding the write lock can never wait on a leader
        # that needs it: the in-transaction commit path must not stage
        db = make_db(backend_at(tmp_path), autocommit=False, group_commit=True)
        before = db.stats()["commit_group"]["rounds"]
        with db.transaction():
            db.insert(3, b"t")
            db.commit()  # explicit mid-transaction commit point
        assert db.stats()["commit_group"]["rounds"] == before
        assert db.stats()["durability"]["node"]["syncs"] >= 1
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(3) == b"t"
        db2.close()
