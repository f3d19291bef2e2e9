"""Pager cache behaviour."""

from __future__ import annotations

import sys
import threading

from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager


def make_pager(capacity: int, write_back: bool = False) -> Pager:
    disk = SimulatedDisk(block_size=64)
    pager = Pager(disk, cache_blocks=capacity)
    pager.write_back = write_back  # the mode a transaction raises
    return pager


class TestCaching:
    def test_hit_avoids_disk(self):
        pager = make_pager(4)
        b = pager.allocate()
        pager.write(b, b"cached")
        pager.disk.stats.reset()
        assert pager.read(b) == b"cached"
        assert pager.disk.stats.reads == 0
        assert pager.stats.hits == 1

    def test_zero_capacity_always_misses(self):
        pager = make_pager(0)
        b = pager.allocate()
        pager.write(b, b"data")
        pager.read(b)
        pager.read(b)
        assert pager.stats.hits == 0
        assert pager.disk.stats.reads == 2

    def test_lru_eviction(self):
        pager = make_pager(2)
        blocks = [pager.allocate() for _ in range(3)]
        for b in blocks:
            pager.write(b, f"block{b}".encode())
        # cache now holds blocks[1], blocks[2]; blocks[0] was evicted
        pager.disk.stats.reset()
        pager.read(blocks[0])
        assert pager.disk.stats.reads == 1
        pager.disk.stats.reset()
        pager.read(blocks[2])
        assert pager.disk.stats.reads == 0

    def test_write_through(self):
        pager = make_pager(4)
        b = pager.allocate()
        pager.write(b, b"persisted")
        assert pager.disk.read_block(b) == b"persisted"

    def test_write_refreshes_cache(self):
        pager = make_pager(4)
        b = pager.allocate()
        pager.write(b, b"old")
        pager.write(b, b"new")
        assert pager.read(b) == b"new"
        assert pager.stats.hits == 1

    def test_invalidate(self):
        pager = make_pager(4)
        b = pager.allocate()
        pager.write(b, b"x")
        pager.invalidate(b)
        pager.read(b)
        assert pager.stats.misses == 1

    def test_clear_cache(self):
        pager = make_pager(4)
        b = pager.allocate()
        pager.write(b, b"x")
        pager.clear_cache()
        pager.read(b)
        assert pager.stats.hits == 0

    def test_hit_rate(self):
        pager = make_pager(4)
        b = pager.allocate()
        pager.write(b, b"x")
        pager.read(b)
        pager.read(b)
        assert pager.stats.hit_rate == 1.0

    def test_raw_cache_keeps_no_second_tally(self):
        # PagerStats is the pager's one tally: fills, evictions,
        # invalidations and clears book nothing in the raw cache
        pager = make_pager(2)
        assert pager._raw.stats is None
        blocks = [pager.allocate() for _ in range(3)]
        for b in blocks:
            pager.write(b, bytes([b]))
        pager.invalidate(blocks[1])
        pager.clear_cache()
        assert [pager.read(b) for b in blocks] == [bytes([b]) for b in blocks]
        assert pager.stats.misses == 3

    def test_concurrent_reads_book_every_hit_and_miss(self):
        """Hits take no pager mutex; the per-thread stats must still
        add up to exactly one hit or miss per read."""
        pager = make_pager(4)
        blocks = [pager.allocate() for _ in range(6)]  # more than the cache
        for b in blocks:
            pager.write(b, f"block{b}".encode())
        pager.reset_stats()
        threads, reads = 6, 2000
        start = threading.Barrier(threads)
        wrong: list[int] = []

        def reader(offset: int) -> None:
            start.wait(timeout=30)
            for i in range(reads):
                b = blocks[(offset + i) % len(blocks)]
                if pager.read(b) != f"block{b}".encode():
                    wrong.append(b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=reader, args=(i,)) for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not wrong
        assert pager.stats.hits + pager.stats.misses == threads * reads
        assert pager.stats.misses == pager.disk.stats.reads


class TestWriteBack:
    def test_write_defers_disk(self):
        pager = make_pager(4, write_back=True)
        b = pager.allocate()
        pager.write(b, b"deferred")
        assert pager.disk.stats.writes == 0
        assert pager.dirty_blocks == 1
        # the cache is authoritative: reads see the unwritten data
        assert pager.read(b) == b"deferred"

    def test_flush_coalesces_rewrites(self):
        pager = make_pager(4, write_back=True)
        b = pager.allocate()
        for i in range(5):
            pager.write(b, f"v{i}".encode())
        assert pager.flush() == 1
        assert pager.disk.stats.writes == 1
        assert pager.disk.read_block(b) == b"v4"
        assert pager.stats.write_requests == 5
        assert pager.stats.disk_writes == 1
        assert pager.stats.writes_deferred == 4

    def test_second_flush_is_noop(self):
        pager = make_pager(4, write_back=True)
        b = pager.allocate()
        pager.write(b, b"x")
        assert pager.flush() == 1
        assert pager.flush() == 0
        assert pager.disk.stats.writes == 1
        assert pager.stats.flushes == 1

    def test_evict_writes_dirty(self):
        pager = make_pager(2, write_back=True)
        blocks = [pager.allocate() for _ in range(3)]
        for b in blocks:
            pager.write(b, f"block{b}".encode())
        # capacity 2: the LRU dirty page was evicted -- and written
        assert pager.disk.stats.writes == 1
        assert pager.stats.dirty_evictions == 1
        assert pager.disk.read_block(blocks[0]) == b"block0"
        # the remaining two reach disk only at flush
        assert pager.flush() == 2

    def test_retain_dirty_pins_pages_beyond_capacity(self):
        pager = make_pager(1, write_back=True)
        pager.retain_dirty = True
        blocks = [pager.allocate() for _ in range(3)]
        for b in blocks:
            pager.write(b, f"block{b}".encode())
        assert pager.disk.stats.writes == 0
        assert pager.dirty_blocks == 3
        assert pager.flush() == 3
        # flush restores the cache bound
        assert pager.stats.hits + pager.stats.misses == 0
        pager.read(blocks[0])
        pager.read(blocks[0])
        assert pager.stats.misses <= 2  # cache shrank to capacity 1

    def test_retain_dirty_protects_pre_existing_dirt(self):
        """Pages dirtied *before* retain_dirty was raised must also be
        exempt from evict-writes-dirty: rollback owns them too."""
        pager = make_pager(2, write_back=True)
        blocks = [pager.allocate() for _ in range(3)]
        pager.write(blocks[0], b"dirty before retain")
        pager.retain_dirty = True
        pager.write(blocks[1], b"b1")
        pager.write(blocks[2], b"b2")  # over capacity: nothing evictable
        assert pager.disk.stats.writes == 0
        assert pager.dirty_blocks == 3
        assert pager.discard_dirty() == 3
        assert pager.disk.stats.writes == 0  # rollback reached every page

    def test_discard_dirty_keeps_platter_state(self):
        pager = make_pager(4, write_back=True)
        b = pager.allocate()
        pager.write(b, b"committed")
        pager.flush()
        pager.write(b, b"uncommitted")
        assert pager.discard_dirty() == 1
        assert pager.read(b) == b"committed"
        assert pager.disk.read_block(b) == b"committed"

    def test_discard_of_never_written_block(self):
        pager = make_pager(4, write_back=True)
        b = pager.allocate()
        pager.write(b, b"only in cache")
        pager.discard_dirty()
        assert pager.dirty_blocks == 0
        assert pager.disk.stats.writes == 0

    def test_invalidate_drops_dirty_page_unwritten(self):
        pager = make_pager(4, write_back=True)
        b = pager.allocate()
        pager.write(b, b"dead")
        pager.invalidate(b)
        assert pager.flush() == 0
        assert pager.disk.stats.writes == 0

    def test_clear_cache_flushes_first(self):
        pager = make_pager(4, write_back=True)
        b = pager.allocate()
        pager.write(b, b"must survive")
        pager.clear_cache()
        assert pager.disk.read_block(b) == b"must survive"

    def test_zero_capacity_degenerates_to_write_through(self):
        pager = make_pager(0, write_back=True)
        b = pager.allocate()
        pager.write(b, b"x")
        assert pager.disk.stats.writes == 1
        assert pager.dirty_blocks == 0

    def test_write_amplification_stats(self):
        pager = make_pager(8, write_back=True)
        b = pager.allocate()
        for _ in range(4):
            pager.write(b, b"x")
        pager.flush()
        assert pager.stats.write_amplification == 0.25
        wt = make_pager(8)
        c = wt.allocate()
        for _ in range(4):
            wt.write(c, b"x")
        assert wt.stats.write_amplification == 1.0

    def test_write_through_counts_match(self):
        pager = make_pager(4)
        b = pager.allocate()
        pager.write(b, b"x")
        pager.write(b, b"y")
        assert pager.stats.write_requests == 2
        assert pager.stats.disk_writes == 2
        assert pager.dirty_blocks == 0


class RacingWriterLock:
    """Stands in for a counters object's lock; every acquisition first
    books one write-through write and one read miss and hit in the
    caller's bucket, as a concurrent writer and reader landing between
    two field reads would."""

    def __init__(self, stats):
        stats.bump("hits", 0)  # register the bucket before the swap
        self._bucket = stats._local.bucket
        self._inner = stats._lock
        self.entries = 0

    def __enter__(self):
        self.entries += 1
        for field in ("write_requests", "disk_writes", "hits", "misses"):
            self._bucket[field] += 1
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


class TestMergedReads:
    """A derived counter reads every field it merges in one snapshot."""

    def racing(self):
        stats = make_pager(4).stats
        lock = stats._lock = RacingWriterLock(stats)
        return stats, lock

    def test_writes_deferred_never_tears(self):
        stats, lock = self.racing()
        # two separate field reads would see write_requests=1 and
        # disk_writes=2 and report -1 deferred writes
        assert stats.writes_deferred == 0
        assert lock.entries == 1

    def test_accesses_reads_hits_and_misses_together(self):
        stats, lock = self.racing()
        assert stats.accesses == 2
        assert lock.entries == 1


class TestDiskOverwrites:
    def test_overwrite_counter(self):
        disk = SimulatedDisk(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"first")
        assert disk.stats.overwrites == 0
        disk.write_block(b, b"second")
        disk.write_block(b, b"third")
        assert disk.stats.overwrites == 2
        disk.stats.reset()
        assert disk.stats.overwrites == 0
