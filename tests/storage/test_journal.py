"""Change journals: the ledger behind incremental replica sync."""

from __future__ import annotations


import pytest

from repro.exceptions import BlockBoundsError
from repro.storage.disk import SimulatedDisk
from repro.storage.journal import (
    ChangeJournal,
    DiskDelta,
    RecordStoreDelta,
    ShardDelta,
)
from repro.storage.pager import Pager


class TestChangeJournal:
    def test_unserveable_until_first_checkpoint(self):
        j = ChangeJournal()
        j.note(1)
        assert j.collect_since(0) is None  # never checkpointed

    def test_first_seal_is_the_checkpoint(self):
        j = ChangeJournal()
        j.note(1)  # pre-checkpoint history: discarded, not served
        j.seal(3)
        assert j.collect_since(3) == set()
        assert j.collect_since(2) is None  # before the checkpoint

    def test_collect_unions_epochs_after_the_consumer(self):
        j = ChangeJournal()
        j.seal(0)  # checkpoint
        j.note(10)
        j.seal(1)
        j.note(11)
        j.note(12)
        j.seal(2)
        assert j.collect_since(0) == {10, 11, 12}
        assert j.collect_since(1) == {11, 12}
        assert j.collect_since(2) == set()

    def test_open_changes_are_not_served(self):
        j = ChangeJournal()
        j.seal(0)
        j.note(7)  # unsealed: belongs to no epoch yet
        assert j.collect_since(0) == set()
        assert j.has_open
        j.seal(1)
        assert j.collect_since(0) == {7}
        assert not j.has_open

    def test_truncate_drops_history_and_raises_floor(self):
        j = ChangeJournal()
        j.seal(0)
        j.note(1)
        j.seal(1)
        j.note(2)  # open at snapshot time: inside the snapshot
        j.truncate(1)
        assert j.collect_since(0) is None  # history <= 1 is gone
        assert j.collect_since(1) == set()  # open set cleared too
        j.note(3)
        j.seal(2)
        assert j.collect_since(1) == {3}

    def test_taint_voids_everything(self):
        j = ChangeJournal()
        j.seal(0)
        j.note(1)
        j.seal(1)
        j.taint()
        assert j.collect_since(1) is None
        # the next seal re-checkpoints at its own epoch
        j.note(9)
        j.seal(5)
        assert j.collect_since(4) is None
        assert j.collect_since(5) == set()

    def test_max_epochs_bounds_history(self):
        j = ChangeJournal(max_epochs=2)
        j.seal(0)
        for epoch in (1, 2, 3):
            j.note(epoch * 100)
            j.seal(epoch)
        assert j.collect_since(0) is None  # epoch 1 was dropped
        assert j.collect_since(1) == {200, 300}
        assert j.collect_since(2) == {300}

    def test_duplicate_epoch_seal_merges(self):
        """Two seals under one epoch number must union, not overwrite:
        an overwrite would drop the first seal's ids from history."""
        j = ChangeJournal()
        j.seal(0)
        j.note(1)
        j.seal(1)
        j.note(2)
        j.seal(1)  # racing writer published the same epoch
        assert j.collect_since(0) == {1, 2}

    def test_rejects_empty_retention(self):
        with pytest.raises(ValueError):
            ChangeJournal(max_epochs=0)

    def test_snapshot_reports_shape(self):
        j = ChangeJournal()
        j.seal(0)
        j.note(1)
        j.seal(1)
        j.note(2)
        snap = j.snapshot()
        assert snap == {"open_items": 1, "sealed_epochs": 1, "floor": 0}


class TestDiskJournalIntegration:
    def test_writes_are_journaled(self):
        disk = SimulatedDisk(block_size=64)
        a, b = disk.allocate(), disk.allocate()
        disk.journal.seal(0)
        disk.write_block(a, b"alpha")
        disk.write_block(b, b"beta")
        disk.journal.seal(1)
        assert disk.journal.collect_since(0) == {a, b}

    def test_byte_identical_rewrite_not_journaled(self):
        """A no-op commit rewrites the superblock with identical bytes;
        the journal must not turn that into a replica re-ship."""
        disk = SimulatedDisk(block_size=64)
        block = disk.allocate()
        disk.write_block(block, b"same")
        disk.journal.seal(0)
        disk.write_block(block, b"same")
        assert not disk.journal.has_open
        assert disk.stats.writes == 2  # I/O accounting still honest
        disk.write_block(block, b"changed")
        assert disk.journal.has_open

    def test_import_state_taints(self):
        disk = SimulatedDisk(block_size=64)
        disk.write_block(disk.allocate(), b"x")
        disk.journal.seal(0)
        disk.import_state([b"y"])
        assert disk.journal.collect_since(0) is None

    def test_snapshot_and_patch_round_trip(self):
        disk = SimulatedDisk(block_size=64)
        for payload in (b"one", b"two", b"three"):
            disk.write_block(disk.allocate(), payload)
        disk.allocate()  # allocated, never written
        replica = SimulatedDisk(block_size=64)
        replica.import_state(disk.export_state())

        disk.write_block(1, b"TWO")
        extra = disk.allocate()
        disk.write_block(extra, b"four")
        patch = disk.snapshot_blocks([1, extra])
        replica.patch_state(disk.num_blocks, patch)
        assert replica.export_state() == disk.export_state()

    def test_snapshot_blocks_is_at_rest_and_uncounted(self):
        calls = []

        class Transform:
            def on_write(self, block_id, data):
                return bytes(b ^ 0xFF for b in data)

            def on_read(self, block_id, data):
                calls.append(block_id)
                return bytes(b ^ 0xFF for b in data)

        disk = SimulatedDisk(block_size=64, transform=Transform())
        block = disk.allocate()
        disk.write_block(block, b"secret")
        reads_before = disk.stats.reads
        snapshot = disk.snapshot_blocks([block])
        assert snapshot[block] == bytes(b ^ 0xFF for b in b"secret")
        assert disk.stats.reads == reads_before
        assert calls == []  # the transform never ran

    def test_snapshot_blocks_rejects_out_of_range(self):
        disk = SimulatedDisk(block_size=64)
        disk.allocate()
        with pytest.raises(BlockBoundsError):
            disk.snapshot_blocks([5])

    def test_patch_state_validates_bounds(self):
        disk = SimulatedDisk(block_size=64)
        with pytest.raises(BlockBoundsError):
            disk.patch_state(2, {0: b"x" * 65})
        with pytest.raises(BlockBoundsError):
            disk.patch_state(2, {2: b"x"})
        assert disk.num_blocks == 0  # nothing half-applied

    def test_patch_state_never_shrinks(self):
        disk = SimulatedDisk(block_size=64)
        for _ in range(3):
            disk.allocate()
        disk.write_block(2, b"keep")
        disk.patch_state(1, {0: b"new"})
        assert disk.num_blocks == 3
        assert disk.read_block(2) == b"keep"


class TestPagerCollectDelta:
    def test_serves_committed_changes(self):
        disk = SimulatedDisk(block_size=64)
        pager = Pager(disk, cache_blocks=4)
        block = pager.allocate()
        disk.journal.seal(0)
        pager.write(block, b"data")
        disk.journal.seal(1)
        delta = pager.collect_delta(0)
        assert delta is not None
        assert delta.block_writes == {block: b"data"}
        assert delta.num_blocks == disk.num_blocks

    def test_dirty_pages_block_delta(self):
        """A delta must describe committed state only: dirty write-back
        pages make the platter non-authoritative."""
        disk = SimulatedDisk(block_size=64)
        pager = Pager(disk, cache_blocks=4, write_back=True)
        block = pager.allocate()
        disk.journal.seal(0)
        pager.write(block, b"dirty")
        assert pager.collect_delta(0) is None
        pager.flush()
        disk.journal.seal(1)
        delta = pager.collect_delta(0)
        assert delta is not None and delta.block_writes == {block: b"dirty"}

    def test_truncated_journal_blocks_delta(self):
        disk = SimulatedDisk(block_size=64)
        pager = Pager(disk, cache_blocks=4)
        assert pager.collect_delta(0) is None  # never checkpointed


class TestDeltaPayloadAccounting:
    def test_payload_bytes_count_blocks_and_ids(self):
        node = DiskDelta(num_blocks=4, block_writes={0: b"x" * 100, 3: None})
        assert node.payload_bytes == 100 + 2 * 8 + 8
        records = RecordStoreDelta(
            disk=DiskDelta(num_blocks=2, block_writes={1: b"y" * 50}),
            free=[9],
            count=3,
            open_block=1,
            open_slots=[b"z" * 10],
        )
        shard = ShardDelta(
            index=0, epoch=7, node=node, records=records,
            tree_state=(1, 3, []),
        )
        assert shard.blocks_shipped == 3
        assert shard.payload_bytes == (
            node.payload_bytes + records.payload_bytes + 32
        )

