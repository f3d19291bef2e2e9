"""The simulated block device and its encipherment hook."""

from __future__ import annotations

import pytest

from repro.crypto.pagekey import PageKeyScheme
from repro.storage.disk import SimulatedDisk, transform_from_page_key_scheme
from repro.exceptions import BlockBoundsError, StorageError


class TestBasicIO:
    def test_write_read_roundtrip(self):
        disk = SimulatedDisk(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"hello block")
        assert disk.read_block(b) == b"hello block"

    def test_allocation_is_sequential(self):
        disk = SimulatedDisk()
        assert [disk.allocate() for _ in range(4)] == [0, 1, 2, 3]
        assert disk.num_blocks == 4

    def test_overwrite(self):
        disk = SimulatedDisk(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"first")
        disk.write_block(b, b"second")
        assert disk.read_block(b) == b"second"

    def test_unwritten_block_rejected(self):
        disk = SimulatedDisk()
        b = disk.allocate()
        with pytest.raises(BlockBoundsError):
            disk.read_block(b)

    def test_out_of_bounds_rejected(self):
        disk = SimulatedDisk()
        with pytest.raises(BlockBoundsError):
            disk.read_block(0)
        with pytest.raises(BlockBoundsError):
            disk.write_block(5, b"x")

    def test_overflow_rejected(self):
        disk = SimulatedDisk(block_size=16)
        b = disk.allocate()
        with pytest.raises(BlockBoundsError):
            disk.write_block(b, b"x" * 17)

    def test_tiny_block_size_rejected(self):
        with pytest.raises(StorageError):
            SimulatedDisk(block_size=4)


class TestStats:
    def test_counters(self):
        disk = SimulatedDisk(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"12345678")
        disk.read_block(b)
        disk.read_block(b)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2
        assert disk.stats.bytes_written == 8
        assert disk.stats.bytes_read == 16

    def test_window_read_counts_as_a_whole_block_read(self):
        disk = SimulatedDisk(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"12345678")
        assert disk.read_block(b, window=(2, 5)) == b"345"
        assert disk.read_block(b, window=(6, 20)) == b"78"
        assert disk.stats.reads == 2
        assert disk.stats.bytes_read == 16

    def test_reset(self):
        disk = SimulatedDisk(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"x")
        disk.stats.reset()
        assert disk.stats.writes == 0


class TestTransform:
    def test_page_key_transform_roundtrip(self):
        scheme = PageKeyScheme(b"\x01" * 8)
        disk = SimulatedDisk(block_size=64, transform=transform_from_page_key_scheme(scheme))
        b = disk.allocate()
        disk.write_block(b, b"plain contents")
        assert disk.read_block(b) == b"plain contents"

    def test_at_rest_bytes_are_ciphertext(self):
        scheme = PageKeyScheme(b"\x01" * 8)
        disk = SimulatedDisk(block_size=64, transform=transform_from_page_key_scheme(scheme))
        b = disk.allocate()
        disk.write_block(b, b"plain contents!!")
        raw = disk.raw_block(b)
        assert raw != b"plain contents!!"
        assert b"plain" not in raw

    def test_raw_reads_bypass_stats(self):
        disk = SimulatedDisk(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"data")
        disk.stats.reset()
        disk.raw_block(b)
        assert disk.stats.reads == 0

    def test_raw_blocks_enumerates_written_only(self):
        disk = SimulatedDisk(block_size=64)
        b1 = disk.allocate()
        disk.allocate()  # never written
        disk.write_block(b1, b"one")
        assert disk.raw_blocks() == [(b1, b"one")]

    def test_transform_expansion_must_fit(self):
        """CBC padding expands to the next block multiple; the expanded
        form must fit the device block."""
        scheme = PageKeyScheme(b"\x01" * 8, mode="cbc")
        disk = SimulatedDisk(block_size=16, transform=transform_from_page_key_scheme(scheme))
        b = disk.allocate()
        with pytest.raises(BlockBoundsError):
            disk.write_block(b, b"x" * 16)  # pads to 24 > 16
