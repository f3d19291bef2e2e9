"""The simulated block device and its encipherment hook."""

from __future__ import annotations

import pytest

from repro.core.records import _RecordBlockTransform
from repro.crypto.pagekey import PageKeyScheme
from repro.storage.disk import SimulatedDisk, transform_from_page_key_scheme
from repro.storage.platter import FilePlatter
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


class _SlicingTransform:
    """A windowed transform with no ``on_read_many``: XOR, then slice."""

    def on_write(self, block_id, data):
        return bytes(b ^ 0x5A for b in data)

    def on_read(self, block_id, data, window=None):
        plain = bytes(b ^ 0x5A for b in data)
        return plain if window is None else plain[window[0] : window[1]]


class TestWindowedReadMany:
    """``read_many(ids, windows=)`` equals windowed ``read_block`` per item."""

    IDS = [2, 0, 2, 1, 2]  # block 2 has three requesters
    WINDOWS = [(0, 8), (3, 40), (8, 16), (0, 0), (30, 90)]

    @staticmethod
    def _device(kind, transform, tmp_path, name):
        if kind == "memory":
            return SimulatedDisk(block_size=128, transform=transform)
        return FilePlatter(
            tmp_path / f"{name}.platter", block_size=128, transform=transform,
            fsync=False,
        )

    @staticmethod
    def _transform(kind):
        if kind == "record":
            return _RecordBlockTransform(b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1")
        return _SlicingTransform() if kind == "sliced" else None

    @pytest.mark.parametrize("transform", ["record", "sliced", "none"])
    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_duplicates_get_per_requester_results_and_stats(
        self, kind, transform, tmp_path
    ):
        devices = [
            self._device(kind, self._transform(transform), tmp_path, name)
            for name in ("batched", "looped")
        ]
        for device in devices:
            for i in range(3):
                device.write_block(device.allocate(), bytes(range(i, i + 40 + 9 * i)))
            device.stats.reset()
        batched, looped = devices
        got = batched.read_many(self.IDS, windows=self.WINDOWS)
        want = [looped.read_block(b, window=w) for b, w in zip(self.IDS, self.WINDOWS)]
        assert got == want
        whole = [looped.read_block(b) for b in self.IDS]
        assert got == [w[lo:hi] for w, (lo, hi) in zip(whole, self.WINDOWS)]
        assert batched.stats.reads == len(self.IDS)
        assert batched.stats.bytes_read == looped.stats.bytes_read // 2
        counts = getattr(batched.transform, "counts", None)
        if counts is not None:
            assert counts.decryptions == len(self.IDS)
        for device in devices:
            device.close()

    def test_window_count_must_match_ids(self):
        disk = SimulatedDisk(block_size=64)
        disk.write_block(disk.allocate(), b"abc")
        with pytest.raises(ValueError):
            disk.read_many([0, 0], windows=[(0, 1)])
