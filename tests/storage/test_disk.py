"""The block-device contract, run on both backends.

Every class here takes the ``device`` factory fixture, which builds a
:class:`SimulatedDisk` or a :class:`FilePlatter` (``fsync=False``): the
at-rest contract is written once, in :class:`BlockDevice`, and both
backends must honour it alike.  :class:`TestDifferential` runs one
operation sequence on both and compares everything observable.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.core.records import _RecordBlockTransform
from repro.crypto.pagekey import PageKeyScheme
from repro.storage.disk import SimulatedDisk, transform_from_page_key_scheme
from repro.storage.platter import FilePlatter
from repro.exceptions import BlockBoundsError, StorageError

BACKENDS = ["memory", "file"]


def build(kind, tmp_path, name, block_size=4096, transform=None):
    if kind == "memory":
        return SimulatedDisk(block_size=block_size, transform=transform)
    return FilePlatter(
        tmp_path / f"{name}.platter", block_size=block_size, transform=transform,
        fsync=False,
    )


@pytest.fixture(params=BACKENDS)
def device(request, tmp_path):
    """``device(block_size=..., transform=...)`` on the parametrised backend."""
    made = []

    def make(block_size=4096, transform=None):
        made.append(build(request.param, tmp_path, f"d{len(made)}", block_size,
                          transform))
        return made[-1]

    yield make
    for built in made:
        built.close()


class TestBasicIO:
    def test_write_read_roundtrip(self, device):
        disk = device(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"hello block")
        assert disk.read_block(b) == b"hello block"

    def test_allocation_is_sequential(self, device):
        disk = device()
        assert [disk.allocate() for _ in range(4)] == [0, 1, 2, 3]
        assert disk.num_blocks == 4

    def test_overwrite(self, device):
        disk = device(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"first")
        disk.write_block(b, b"second")
        assert disk.read_block(b) == b"second"

    def test_unwritten_block_rejected(self, device):
        disk = device()
        b = disk.allocate()
        with pytest.raises(BlockBoundsError):
            disk.read_block(b)

    def test_out_of_bounds_rejected(self, device):
        disk = device()
        with pytest.raises(BlockBoundsError):
            disk.read_block(0)
        with pytest.raises(BlockBoundsError):
            disk.write_block(5, b"x")

    def test_overflow_rejected(self, device):
        disk = device(block_size=16)
        b = disk.allocate()
        with pytest.raises(BlockBoundsError):
            disk.write_block(b, b"x" * 17)

    def test_tiny_block_size_rejected(self, device):
        with pytest.raises(StorageError):
            device(block_size=4)


class TestNoOpRewrite:
    def test_identical_rewrite_stages_nothing(self, device):
        """A write whose at-rest bytes are already there is counted as a
        write but never staged, so a no-op commit's superblock rewrite
        leaves a durable platter nothing to sync."""
        disk = device(block_size=64)
        staged = []
        real_stage = disk._stage

        def spy(block_id, stored):
            staged.append(block_id)
            real_stage(block_id, stored)

        disk._stage = spy
        block = disk.allocate()
        disk.write_block(block, b"same")
        disk.sync()
        assert staged == [block]
        disk.write_block(block, b"same")
        disk.write_many([(block, b"same")])
        assert staged == [block]
        assert disk.sync() == 0  # nothing pending
        assert (disk.stats.writes, disk.stats.overwrites) == (3, 2)
        disk.write_block(block, b"changed")
        assert staged == [block, block]
        assert disk.read_block(block) == b"changed"


class TestAtRestState:
    def test_patch_state_validates_before_applying(self, device):
        disk = device(block_size=64)
        with pytest.raises(BlockBoundsError):
            disk.patch_state(2, {0: b"x" * 65})
        with pytest.raises(BlockBoundsError):
            disk.patch_state(2, {2: b"x"})
        assert disk.num_blocks == 0  # nothing half-applied

    def test_patch_state_never_shrinks(self, device):
        disk = device(block_size=64)
        for _ in range(3):
            disk.allocate()
        disk.write_block(2, b"keep")
        disk.patch_state(1, {0: b"new"})
        assert disk.num_blocks == 3
        assert disk.read_block(2) == b"keep"

    def test_state_access_is_at_rest_and_uncounted(self, device):
        calls = []

        class Transform:
            def on_write(self, block_id, data):
                return bytes(b ^ 0xFF for b in data)

            def on_read(self, block_id, data):
                calls.append(block_id)
                return bytes(b ^ 0xFF for b in data)

        disk = device(block_size=64, transform=Transform())
        block = disk.allocate()
        disk.write_block(block, b"secret")
        before = dataclasses.asdict(disk.stats)
        assert disk.export_state() == [bytes(b ^ 0xFF for b in b"secret")]
        disk.patch_state(1, {block: b"forged"})
        assert dataclasses.asdict(disk.stats) == before
        assert calls == []  # the transform never ran
        assert disk.raw_block(block) == b"forged"


class TestStats:
    def test_counters(self, device):
        disk = device(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"12345678")
        disk.read_block(b)
        disk.read_block(b)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2
        assert disk.stats.bytes_written == 8
        assert disk.stats.bytes_read == 16

    def test_window_read_counts_as_a_whole_block_read(self, device):
        disk = device(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"12345678")
        assert disk.read_block(b, window=(2, 5)) == b"345"
        assert disk.read_block(b, window=(6, 20)) == b"78"
        assert disk.stats.reads == 2
        assert disk.stats.bytes_read == 16

    def test_reset(self, device):
        disk = device(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"x")
        disk.stats.reset()
        assert disk.stats.writes == 0


class TestMeasuredTime:
    """One time path: a device books what it measures, nothing modelled."""

    def test_reads_book_their_fetch_time_and_writes_none(self, device):
        disk = device(block_size=64)
        ids = [disk.allocate() for _ in range(3)]
        disk.write_many([(b, b"block-%d" % b) for b in ids])
        disk.write_block(ids[0], b"rewritten")
        disk.read_block(ids[0])
        disk.read_many(ids + [ids[1]])
        assert disk.stats.read_time_s > 0.0
        assert disk.stats.write_time_s == 0.0

    def test_a_platter_books_write_time_at_sync(self, tmp_path):
        disk = build("file", tmp_path, "timed", block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"payload")
        assert disk.stats.write_time_s == 0.0
        disk.sync()
        assert disk.stats.write_time_s > 0.0
        disk.close()


class TestTransform:
    def test_page_key_transform_roundtrip(self, device):
        scheme = PageKeyScheme(b"\x01" * 8)
        disk = device(block_size=64, transform=transform_from_page_key_scheme(scheme))
        b = disk.allocate()
        disk.write_block(b, b"plain contents")
        assert disk.read_block(b) == b"plain contents"

    def test_at_rest_bytes_are_ciphertext(self, device):
        scheme = PageKeyScheme(b"\x01" * 8)
        disk = device(block_size=64, transform=transform_from_page_key_scheme(scheme))
        b = disk.allocate()
        disk.write_block(b, b"plain contents!!")
        raw = disk.raw_block(b)
        assert raw != b"plain contents!!"
        assert b"plain" not in raw

    def test_raw_reads_bypass_stats(self, device):
        disk = device(block_size=64)
        b = disk.allocate()
        disk.write_block(b, b"data")
        disk.stats.reset()
        disk.raw_block(b)
        assert disk.stats.reads == 0

    def test_raw_blocks_enumerates_written_only(self, device):
        disk = device(block_size=64)
        b1 = disk.allocate()
        disk.allocate()  # never written
        disk.write_block(b1, b"one")
        assert disk.raw_blocks() == [(b1, b"one")]

    def test_transform_expansion_must_fit(self, device):
        """CBC padding expands to the next block multiple; the expanded
        form must fit the device block."""
        scheme = PageKeyScheme(b"\x01" * 8, mode="cbc")
        disk = device(block_size=16, transform=transform_from_page_key_scheme(scheme))
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
    def _transform(kind):
        if kind == "record":
            return _RecordBlockTransform(b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1")
        return _SlicingTransform() if kind == "sliced" else None

    @pytest.mark.parametrize("transform", ["record", "sliced", "none"])
    def test_duplicates_get_per_requester_results_and_stats(self, device, transform):
        devices = [
            device(block_size=128, transform=self._transform(transform))
            for _ in ("batched", "looped")
        ]
        for disk in devices:
            for i in range(3):
                disk.write_block(disk.allocate(), bytes(range(i, i + 40 + 9 * i)))
            disk.stats.reset()
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

    def test_window_count_must_match_ids(self, device):
        disk = device(block_size=64)
        disk.write_block(disk.allocate(), b"abc")
        with pytest.raises(ValueError):
            disk.read_many([0, 0], windows=[(0, 1)])


class TestWriteBase:
    """``write_block(base=)`` keeps the at-rest bytes before ``base``."""

    KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"

    @pytest.mark.parametrize("transform", ["record", "none"])
    def test_tail_write_equals_whole_write_with_whole_write_stats(
        self, device, transform
    ):
        def make():
            record = _RecordBlockTransform(self.KEY) if transform == "record" else None
            return device(block_size=128, transform=record)

        tail, whole = make(), make()
        old, new = bytes(range(100)), bytes(range(16)) + b"changed from byte 16"
        for disk in (tail, whole):
            disk.write_block(disk.allocate(), old)
            disk.stats.reset()
        tail.write_block(0, new[16:], base=16)
        whole.write_block(0, new)
        assert tail.raw_block(0) == whole.raw_block(0)
        # one write and one overwrite of the same size; keeping the
        # prefix is not a read
        stats = [
            [getattr(disk.stats, field) for field in CONTRACT_STATS]
            for disk in (tail, whole)
        ]
        assert stats[0] == stats[1] == [0, 1, 1, 0, len(tail.raw_block(0))]
        assert tail.read_block(0) == new
        if transform == "record":  # one encipher per block write
            assert tail.transform.counts.encryptions == 2
            assert whole.transform.counts.encryptions == 2

    def test_base_past_the_stored_bytes_is_refused(self, device):
        disk = device(block_size=64)
        b = disk.allocate()
        with pytest.raises(BlockBoundsError, match="never written"):
            disk.write_block(b, b"x", base=8)
        disk.write_block(b, b"12345678")
        with pytest.raises(BlockBoundsError, match="past"):
            disk.write_block(b, b"x", base=16)
        assert disk.read_block(b) == b"12345678"


#: The DiskStats fields the shared contract owns; the time fields are
#: measured, so no two runs agree on them, and the barrier fields
#: (fsyncs, header flips) are the durable device's own.
CONTRACT_STATS = ("reads", "writes", "overwrites", "bytes_read", "bytes_written")


def _contract_script(disk) -> list[tuple]:
    """One operation sequence; every result or exception, in order."""
    out: list[tuple] = []

    def step(fn, *args, **kwargs):
        try:
            out.append(("ok", fn(*args, **kwargs)))
        except Exception as exc:  # noqa: BLE001 -- the exception is the result
            out.append(("raises", type(exc).__name__, str(exc)))
        stats = dataclasses.asdict(disk.stats)
        out.append(("stats", {f: stats[f] for f in CONTRACT_STATS}))

    a, b, c = (disk.allocate() for _ in range(3))
    step(disk.write_block, a, b"alpha")
    step(disk.write_block, a, b"alpha")  # identical bytes: not staged
    step(disk.write_block, b, b"beta")
    step(disk.write_block, a, b"x" * 65)  # overflows the block
    step(disk.write_block, -1, b"x")
    step(disk.read_block, c)  # never written
    step(disk.read_block, 3)  # out of range
    step(disk.read_many, [b, a, b])  # duplicate ids, one requester each
    step(disk.read_many, [a, c])
    step(disk.raw_block, c)
    step(disk.raw_blocks)
    step(disk.patch_state, 5, {c: b"gamma", 4: b"epsilon"})
    step(disk.patch_state, 4, {4: b"x"})  # id beyond the patched length
    step(disk.patch_state, 5, {0: b"y" * 65})
    step(disk.export_state)
    step(disk.write_many, [(a, b"uno"), (b, b"beta"), (4, b"cinco")])
    step(disk.allocate)
    step(disk.patch_state, 7, {})
    step(disk.read_block, 6)
    step(disk.export_state)
    step(disk.raw_blocks)
    step(disk.read_many, [0, 0])
    step(lambda: disk.num_blocks)
    return out


class TestDifferential:
    def test_same_sequence_same_observations(self, tmp_path):
        runs = []
        for kind in BACKENDS:
            disk = build(kind, tmp_path, "differential", block_size=64)
            runs.append(_contract_script(disk))
            disk.close()
        memory, file = runs
        assert len(memory) == len(file)
        for step, (want, got) in enumerate(zip(memory, file)):
            assert got == want, f"observation {step}"


class TestOneContract:
    @pytest.mark.parametrize("backend", [SimulatedDisk, FilePlatter])
    def test_backends_leave_the_contract_to_the_base(self, backend):
        shared = (
            "allocate", "num_blocks", "_check_id", "_store", "_fetch",
            "_fetch_many", "_store_many", "export_state", "patch_state",
            "raw_block", "raw_blocks",
        )
        assert [name for name in shared if name in vars(backend)] == []


class TestConcurrency:
    def test_threads_never_lose_an_allocation_or_a_count(self, device):
        """More threads than cores, a tiny switch interval: every
        allocation is distinct and every read and write is counted."""
        disk = device(block_size=64)
        threads, rounds = 8, 2000
        got: list[list[int]] = [[] for _ in range(threads)]
        start = threading.Barrier(threads)

        def work(slot):
            start.wait(timeout=30)
            for i in range(rounds):
                b = disk.allocate()
                got[slot].append(b)
                if i % 10 == 0:
                    disk.write_block(b, bytes([slot, i % 256]))
                    assert disk.read_block(b) == bytes([slot, i % 256])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        ids = sorted(b for ids in got for b in ids)
        assert ids == list(range(threads * rounds))
        assert disk.num_blocks == threads * rounds
        assert disk.stats.writes == disk.stats.reads == threads * rounds // 10
