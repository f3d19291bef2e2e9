"""Concurrent syncs on the file platter coalesce into shared WAL frames.

The platter holds its lock for the whole WAL/apply/flip protocol and
clears its pending set only at the end, so a batch of concurrent
committers reaches durability through as few rounds as the interleaving
allows -- one frame append, one data fsync and one header flip each --
which the fsync and frame counters prove, while every payload must
still be durable after reopen.  The crash matrix for the (single)
protocol lives in ``test_platter.py``.
"""

from __future__ import annotations

import threading

from repro.storage.platter import FilePlatter


def make(tmp_path, name="disk", **kwargs):
    kwargs.setdefault("block_size", 64)
    kwargs.setdefault("fsync", False)
    return FilePlatter(tmp_path / f"{name}.platter", **kwargs)


class TestConcurrentCommitters:
    def test_prestaged_batch_costs_one_fsync_set(self, tmp_path):
        # all 8 committers stage *before* anyone syncs: the first sync
        # packs every pending write, the other seven find nothing left,
        # so exactly one WAL round runs -- one frame fsync, one data
        # fsync, one header-flip fsync
        p = make(tmp_path, fsync=True)
        blocks = [p.allocate() for _ in range(8)]
        for i, b in enumerate(blocks):
            p.write_block(b, b"committer-%d" % i)
        p.stats.reset()  # creation's header/WAL-init fsyncs are not the round's
        barrier = threading.Barrier(8)

        def committer():
            barrier.wait()
            p.sync()

        threads = [threading.Thread(target=committer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert p.stats.fsyncs == 3
        snap = p.durability_snapshot()
        assert snap["wal_frames"] == 1
        assert snap["header_flips"] == 1
        p.close()
        q = make(tmp_path, create=False)
        for i, b in enumerate(blocks):
            assert q.read_block(b) == b"committer-%d" % i

    def test_sequential_control_pays_per_commit(self, tmp_path):
        # the baseline the batch above beats: 8 write+sync pairs on a
        # serial platter cost 3 fsyncs each
        p = make(tmp_path, name="serial", fsync=True)
        p.stats.reset()
        for i in range(8):
            b = p.allocate()
            p.write_block(b, b"committer-%d" % i)
            p.sync()
        assert p.stats.fsyncs == 24
        p.close()

    def test_racing_write_and_sync_threads_all_durable(self, tmp_path):
        # the unconstrained interleaving: every thread writes its own
        # block and syncs; whatever the schedule, every payload
        # must be durable and every round costs exactly 3 fsyncs
        p = make(tmp_path, fsync=True)
        p.stats.reset()
        blocks = [p.allocate() for _ in range(8)]
        barrier = threading.Barrier(8)
        errors = []

        def committer(i):
            try:
                barrier.wait()
                p.write_block(blocks[i], b"racer-%d" % i)
                p.sync()
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=committer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snap = p.durability_snapshot()
        assert 1 <= snap["wal_frames"] <= 8
        assert snap["header_flips"] == snap["wal_frames"]
        assert p.stats.fsyncs == 3 * snap["header_flips"]
        p.close()
        q = make(tmp_path, create=False)
        for i, b in enumerate(blocks):
            assert q.read_block(b) == b"racer-%d" % i
