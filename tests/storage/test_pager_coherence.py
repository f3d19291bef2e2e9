"""The pager's one blocking read path never serves stale bytes.

Every read either hits a cache entry that the last write, invalidation
or rollback left coherent, or goes to the device.  Both entry points are
checked: ``read`` and ``read_decoded``, which decodes whatever ``read``
serves on every call and keeps no decoded plaintext.
"""

from __future__ import annotations

from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager


def make_pager(capacity=8, write_back=False):
    disk = SimulatedDisk(block_size=64)
    pager = Pager(disk, cache_blocks=capacity)
    pager.write_back = write_back  # the mode a transaction raises
    return pager


def seeded(pager, n=4):
    blocks = [pager.allocate() for _ in range(n)]
    for b in blocks:
        pager.write(b, b"block-%d" % b)
    return blocks


class CountingDecoder:
    """A ``read_decoded`` decode callback that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, block_id, raw):
        self.calls += 1
        return ("view", block_id, raw)


class TestRawPath:
    def test_rewrite_after_cold_cache_is_served(self):
        pager = make_pager()
        b = seeded(pager, 1)[0]
        pager.clear_cache()
        pager.write(b, b"rewritten")
        assert pager.read(b) == b"rewritten"
        assert pager.disk.read_block(b) == b"rewritten"

    def test_invalidate_forces_one_fresh_disk_read(self):
        pager = make_pager()
        b = seeded(pager, 1)[0]
        pager.invalidate(b)
        pager.disk.stats.reset()
        assert pager.read(b) == b"block-%d" % b
        assert pager.read(b) == b"block-%d" % b  # refilled: a hit
        assert pager.disk.stats.reads == 1

    def test_rollback_serves_committed_bytes_from_disk(self):
        pager = make_pager(write_back=True)
        pager.retain_dirty = True
        b = pager.allocate()
        pager.write(b, b"committed")
        pager.flush()
        pager.clear_cache()
        pager.write(b, b"uncommitted")
        assert pager.discard_dirty() == 1
        pager.disk.stats.reset()
        assert pager.read(b) == b"committed"
        assert pager.disk.stats.reads == 1

    def test_drop_clean_cache_keeps_dirty_pages(self):
        pager = make_pager(write_back=True)
        clean, dirty = pager.allocate(), pager.allocate()
        pager.write(clean, b"clean")
        pager.flush()
        pager.write(dirty, b"dirty")
        pager.drop_clean_cache()
        assert pager.dirty_blocks == 1
        pager.disk.stats.reset()
        assert pager.read(dirty) == b"dirty"  # still cached, never flushed
        assert pager.disk.stats.reads == 0
        assert pager.read(clean) == b"clean"  # dropped: back from disk
        assert pager.disk.stats.reads == 1

    def test_clear_cache_makes_every_read_cold(self):
        pager = make_pager()
        blocks = seeded(pager)
        pager.clear_cache()
        pager.disk.stats.reset()
        pager.stats.reset()
        for b in blocks:
            assert pager.read(b) == b"block-%d" % b
        assert pager.disk.stats.reads == len(blocks)
        assert pager.stats.misses == len(blocks)
        assert pager.stats.hits == 0


class TestDecodedPath:
    def test_rewrite_is_decoded_at_the_next_read(self):
        pager = make_pager()
        b = seeded(pager, 1)[0]
        decode = CountingDecoder()
        pager.read_decoded(b, decode)
        pager.write(b, b"new")
        assert pager.read_decoded(b, decode) == ("view", b, b"new")
        assert decode.calls == 2

    def test_rollback_decodes_the_committed_page(self):
        pager = make_pager(write_back=True)
        pager.retain_dirty = True
        b = pager.allocate()
        pager.write(b, b"committed")
        pager.flush()
        pager.write(b, b"uncommitted")
        decode = CountingDecoder()
        assert pager.read_decoded(b, decode) == ("view", b, b"uncommitted")
        pager.discard_dirty()
        assert pager.read_decoded(b, decode) == ("view", b, b"committed")

    def test_every_read_decodes(self):
        pager = make_pager()
        b = seeded(pager, 1)[0]
        decode = CountingDecoder()
        views = [pager.read_decoded(b, decode) for _ in range(3)]
        assert views == [("view", b, b"block-%d" % b)] * 3
        assert decode.calls == 3
        # a fresh view per call: nothing decoded is kept between reads
        assert views[0] is not views[1]
