"""The batched device API: ``read_many``/``write_many`` equal the looped form.

``RecordStore.get_many`` fetches every record block of a range search
through one ``read_many`` call, so the batch must return the same bytes,
count the same statistics and raise the same errors as one
``read_block`` per id, while fetching the batch in one pass.
"""

from __future__ import annotations

import pytest

from repro.exceptions import BlockBoundsError
from repro.storage.disk import SimulatedDisk


class TestBulkDeviceApi:
    def test_read_many_matches_looped_reads(self):
        disk = SimulatedDisk(block_size=64)
        ids = [disk.allocate() for _ in range(5)]
        for b in ids:
            disk.write_block(b, b"payload-%d" % b)
        want = [disk.read_block(b) for b in ids]
        disk.stats.reset()
        got = disk.read_many(ids)
        assert got == want
        assert disk.stats.reads == len(ids)

    def test_write_many_matches_looped_writes(self):
        one = SimulatedDisk(block_size=64)
        many = SimulatedDisk(block_size=64)
        for disk in (one, many):
            for _ in range(3):
                disk.allocate()
        pairs = [(0, b"a"), (1, b"bb"), (2, b"ccc")]
        for b, data in pairs:
            one.write_block(b, data)
        many.write_many(pairs)
        assert [many.read_block(b) for b in range(3)] == [
            one.read_block(b) for b in range(3)
        ]
        assert many.stats.writes == one.stats.writes

    def test_read_many_unwritten_raises(self):
        disk = SimulatedDisk(block_size=64)
        disk.allocate()
        with pytest.raises(BlockBoundsError):
            disk.read_many([0])

    def test_empty_batches_are_free(self):
        disk = SimulatedDisk(block_size=64)
        assert disk.read_many([]) == []
        disk.write_many([])
        assert disk.stats.reads == 0
        assert disk.stats.writes == 0
        assert disk.stats.read_time_s == 0.0
        assert disk.stats.write_time_s == 0.0

    def test_write_many_out_of_range_writes_nothing(self):
        disk = SimulatedDisk(block_size=64)
        disk.allocate()
        disk.write_block(0, b"before")
        with pytest.raises(BlockBoundsError):
            disk.write_many([(0, b"after"), (7, b"beyond")])
        assert disk.read_block(0) == b"before"
        assert disk.stats.writes == 1
