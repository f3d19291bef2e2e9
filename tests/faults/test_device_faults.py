"""Fault injection at the device seam: both backends, byte-identical healing.

The load-bearing invariant: injection fires *before* the backend
primitive and the transform sits *outside* the retry loop, so a run
whose transient faults were all healed by retries leaves DiskStats,
cipher counts and at-rest bytes exactly equal to a fault-free control.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.des import DES
from repro.crypto.modes import CBCCipher
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import (
    CryptoError,
    PermanentIOError,
    PlatterFormatError,
    StorageError,
    TransientIOError,
)
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.storage.backend import FileBackend
from repro.storage.disk import SimulatedDisk
from repro.storage.platter import FilePlatter
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)

FAST_RETRY = RetryPolicy(base_delay_s=0.0, max_delay_s=0.0)


def make_devices(tmp_path, name):
    """One device per backend, identical geometry."""
    return {
        "memory": SimulatedDisk(block_size=64),
        "file": FilePlatter(tmp_path / f"{name}.platter", block_size=64, fsync=False),
    }


def arm(device, spec, retry=FAST_RETRY):
    plan = FaultPlan.parse(spec)
    injector = FaultInjector(plan, seed=plan.seed)
    device.attach_faults(injector, retry)
    return injector


def write_workload(device, n=8):
    ids = []
    for i in range(n):
        b = device.allocate()
        device.write_block(b, bytes([i]) * 64)
        ids.append(b)
    return ids


@pytest.mark.parametrize("backend", ["memory", "file"])
class TestTransientHealing:
    def test_write_fault_heals_byte_identically(self, tmp_path, backend):
        control = make_devices(tmp_path, "control")[backend]
        chaos = make_devices(tmp_path, "chaos")[backend]
        injector = arm(chaos, "write.transient@3")
        write_workload(control)
        write_workload(chaos)
        assert chaos.export_state() == control.export_state()
        # injection fired before the store primitive: the retried write
        # is the only one that landed, so the I/O ledger matches too
        assert chaos.stats.writes == control.stats.writes
        assert chaos.stats.bytes_written == control.stats.bytes_written
        snap = chaos.fault_snapshot()
        assert snap["injected_transient"] == 1
        assert snap["retries"] == 1
        assert snap["retries_exhausted"] == 0

    def test_read_fault_heals_and_returns_right_bytes(self, tmp_path, backend):
        device = make_devices(tmp_path, "d")[backend]
        ids = write_workload(device)
        arm(device, "read.transient@2")
        got = [device.read_block(b) for b in ids]
        assert got == [bytes([i]) * 64 for i in range(len(ids))]
        assert device.fault_snapshot()["retries"] == 1

    def test_torn_write_heals_through_retry(self, tmp_path, backend):
        control = make_devices(tmp_path, "control")[backend]
        chaos = make_devices(tmp_path, "chaos")[backend]
        arm(chaos, "write.torn@4")
        write_workload(control)
        write_workload(chaos)
        # the torn bytes landed, the retry overwrote them: identical at rest
        assert chaos.export_state() == control.export_state()
        snap = chaos.fault_snapshot()
        assert snap["injected_torn"] == 1 and snap["retries"] == 1

    def test_torn_write_without_retries_leaves_corruption(self, tmp_path, backend):
        device = make_devices(tmp_path, "d")[backend]
        b = device.allocate()
        device.write_block(b, b"\x11" * 64)
        arm(device, "write.torn@1", retry=RetryPolicy(max_attempts=1))
        with pytest.raises(TransientIOError):
            device.write_block(b, b"\x22" * 64)
        raw = device.raw_block(b)
        assert raw != b"\x22" * 64  # the intended bytes never fully landed
        assert device.fault_snapshot()["retries_exhausted"] == 1

    def test_latency_rule_changes_nothing_but_time(self, tmp_path, backend):
        control = make_devices(tmp_path, "control")[backend]
        chaos = make_devices(tmp_path, "chaos")[backend]
        arm(chaos, "write.latency*2=0.0 read.latency*2=0.0")
        ids_c = write_workload(control)
        ids = write_workload(chaos)
        assert [chaos.read_block(b) for b in ids] == [
            control.read_block(b) for b in ids_c
        ]
        assert chaos.export_state() == control.export_state()
        assert chaos.fault_snapshot()["injected_latency"] > 0

    def test_permanent_fault_is_typed_and_sticky(self, tmp_path, backend):
        device = make_devices(tmp_path, "d")[backend]
        ids = write_workload(device)
        arm(device, "read.permanent@1")
        with pytest.raises(PermanentIOError):
            device.read_block(ids[0])
        # sticky: writes die too now, and retries never burned attempts
        with pytest.raises(PermanentIOError):
            device.write_block(ids[0], b"\x00" * 64)
        snap = device.fault_snapshot()
        assert snap["injected_permanent"] >= 2
        assert snap["retries"] == 0

    def test_retry_exhaustion_surfaces_transient_error(self, tmp_path, backend):
        device = make_devices(tmp_path, "d")[backend]
        ids = write_workload(device)
        # every read faults; two attempts cannot outlast it
        arm(device, "read.transient*1", retry=RetryPolicy(
            max_attempts=2, base_delay_s=0.0, max_delay_s=0.0))
        with pytest.raises(TransientIOError):
            device.read_block(ids[0])
        snap = device.fault_snapshot()
        assert snap["retries"] == 1 and snap["retries_exhausted"] == 1

    def test_batch_reads_retry_as_a_unit(self, tmp_path, backend):
        control = make_devices(tmp_path, "control")[backend]
        chaos = make_devices(tmp_path, "chaos")[backend]
        ids_c = write_workload(control)
        ids = write_workload(chaos)
        arm(chaos, "read.transient@3")
        assert chaos.read_many(ids) == control.read_many(ids_c)
        assert chaos.fault_snapshot()["retries"] == 1

    def test_range_record_batch_heals_byte_identically(self, tmp_path, backend):
        # a range reads every match's record block in one batched read;
        # a transient fault inside it retries the batch, deciphered once
        def make(name):
            db = EncipheredDatabase.create(
                OvalSubstitution(DESIGN, t=5),
                RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xDB))),
                backend=None if backend == "memory"
                else FileBackend(tmp_path / name, fsync=False),
            )
            for key in range(0, DESIGN.v, 3):
                db.insert(key, f"r{key}".encode() * 4)
            db.records.disk.attach_faults(None)  # disarm any REPRO_FAULTS plan
            return db

        control, chaos = make("control"), make("chaos")
        injector = arm(chaos.records.disk, "read.transient@3")
        got = chaos.range_search(20, 80)
        assert got == control.range_search(20, 80)
        assert len(got) > 3
        assert injector.snapshot()["injected_transient"] == 1
        assert chaos.records.disk.fault_snapshot()["retries"] == 1
        untimed = ("read_time_s", "write_time_s")
        for db in (control, chaos):
            for field in untimed:
                setattr(db.records.disk.stats, field, 0.0)
        assert chaos.records.disk.stats == control.records.disk.stats
        assert (
            chaos.records.cipher_counts.snapshot()
            == control.records.cipher_counts.snapshot()
        )
        assert (
            chaos.pointer_cipher.counts.snapshot()
            == control.pointer_cipher.counts.snapshot()
        )
        for db in (control, chaos):
            db.close()

    def test_batch_writes_retry_as_a_unit(self, tmp_path, backend):
        control = make_devices(tmp_path, "control")[backend]
        chaos = make_devices(tmp_path, "chaos")[backend]
        ids_c = write_workload(control)
        ids = write_workload(chaos)
        arm(chaos, "write.transient@2")
        pairs = [(b, bytes([0x40 + i]) * 64) for i, b in enumerate(ids)]
        chaos.write_many(pairs)
        control.write_many(
            [(b, bytes([0x40 + i]) * 64) for i, b in enumerate(ids_c)]
        )
        assert chaos.export_state() == control.export_state()
        assert chaos.fault_snapshot()["retries"] == 1

    def test_attach_none_disarms(self, tmp_path, backend):
        device = make_devices(tmp_path, "d")[backend]
        arm(device, "write.transient*1")
        device.attach_faults(None)
        write_workload(device)  # would fail every write if still armed
        snap = device.fault_snapshot()
        assert all(v == 0 for v in snap.values())


RECORD_KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"


@pytest.mark.parametrize("backend", ["memory", "file"])
class TestTornRecordBlock:
    """A record-block write that lands torn and exhausts its retries.

    Writes re-encipher only from the first DES block they change, keeping
    the stored cipher blocks before it -- which a torn write has wrecked.
    The store's next write to that block must still land and heal it,
    re-enciphering it whole from the plaintext the store holds, as a
    whole-block writer did.
    """

    @staticmethod
    def _store(tmp_path, backend, cache_blocks=0):
        extra = {"backend": FileBackend(tmp_path / "db")} if backend == "file" else {}
        return RecordStore(
            RECORD_KEY, record_size=120, block_size=512, cache_blocks=cache_blocks,
            **extra,
        )

    @staticmethod
    def _tear_next_write(store):
        arm(store.disk, "write.torn@1", retry=RetryPolicy(max_attempts=1))

    @staticmethod
    def _whole_block(store, block_id, slots):
        iv = store._transform._iv(block_id)
        return CBCCipher(DES(RECORD_KEY), iv).encrypt(b"".join(slots))

    def test_open_block_append_heals(self, tmp_path, backend):
        store = self._store(tmp_path, backend)
        rids = [store.put(b"r0"), store.put(b"r1")]
        self._tear_next_write(store)
        with pytest.raises(TransientIOError):
            store.put(b"torn")
        store.disk.attach_faults(None)
        with pytest.raises(CryptoError):
            store.get(rids[0])  # the block is unreadable
        rid = store.put(b"heals")
        assert [store.get(r) for r in rids + [rid]] == [b"r0", b"r1", b"heals"]
        assert store.disk.raw_block(0) == self._whole_block(store, 0, store._open_slots)
        # the next append keeps the healed prefix again
        store.put(b"after")
        assert store.disk.raw_block(0) == self._whole_block(store, 0, store._open_slots)
        store.disk.close()

    def test_cached_slot_rewrite_heals(self, tmp_path, backend):
        store = self._store(tmp_path, backend, cache_blocks=4)
        rids = [store.put(f"r{i}".encode()) for i in range(5)]  # block 0 is full
        slots = list(store.cache.get(0))
        self._tear_next_write(store)
        with pytest.raises(TransientIOError):
            store.delete(rids[2])
        store.disk.attach_faults(None)
        store.delete(rids[2])  # from the cached plaintext
        slots[2] = store._free_slot
        assert store.disk.raw_block(0) == self._whole_block(store, 0, slots)
        store.clear_cache()
        assert [store.get(r) for r in rids[:2] + rids[3:]] == [b"r0", b"r1", b"r3", b"r4"]
        with pytest.raises(StorageError, match="free"):
            store.get(rids[2])
        store.disk.close()

    def test_uncached_slot_rewrite_fails_on_the_torn_block(self, tmp_path, backend):
        # with nothing in memory to heal from, the read fails -- as the
        # whole-block read did -- and nothing is written or freed
        store = self._store(tmp_path, backend)
        rids = [store.put(f"r{i}".encode()) for i in range(5)]
        self._tear_next_write(store)
        with pytest.raises(TransientIOError):
            store.delete(rids[2])
        store.disk.attach_faults(None)
        torn = store.disk.raw_block(0)
        with pytest.raises(CryptoError):
            store.delete(rids[1])
        assert store.disk.raw_block(0) == torn
        assert (store.count, store._free) == (5, [])
        store.disk.close()


class TestEnvArming:
    def test_devices_arm_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3 write.transient@2")
        disk = SimulatedDisk(block_size=64)
        assert disk.faults is not None
        assert disk.retry_policy is not None
        write_workload(disk)  # the injected fault heals silently
        assert disk.fault_snapshot()["injected_transient"] == 1

    def test_attach_replaces_env_injector(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3 write.transient%0.5")
        disk = SimulatedDisk(block_size=64)
        arm(disk, "read.transient@1")  # a test's own schedule takes over
        write_workload(disk)
        snap = disk.fault_snapshot()
        assert snap["injected_transient"] == 0  # no write rule armed anymore

    def test_no_env_means_no_injector(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        disk = SimulatedDisk(block_size=64)
        assert disk.faults is None and disk.retry_policy is None


class TestPlatterSyncAndCrashPoints:
    def test_sync_transient_fault_retries_at_entry(self, tmp_path):
        platter = FilePlatter(tmp_path / "p.platter", block_size=64, fsync=False)
        write_workload(platter)
        arm(platter, "sync.transient@1")
        platter.sync()  # injected at entry, before any WAL bytes: retried
        assert platter.fault_snapshot()["retries"] == 1
        platter.close()
        reopened = FilePlatter(tmp_path / "p.platter", block_size=64, fsync=False)
        assert reopened.read_block(0) == bytes([0]) * 64
        reopened.close()

    def test_sync_permanent_fault_fails_fast(self, tmp_path):
        platter = FilePlatter(tmp_path / "p.platter", block_size=64, fsync=False)
        write_workload(platter)
        arm(platter, "sync.permanent@1")
        with pytest.raises(PermanentIOError):
            platter.sync()

    def test_injected_crash_point_recovers_via_wal(self, tmp_path):
        path = tmp_path / "c.platter"
        platter = FilePlatter(path, block_size=64, fsync=False)
        ids = write_workload(platter)
        platter.sync()
        arm(platter, "crash:wal:appended@1")
        platter.write_block(ids[0], b"\xaa" * 64)
        from repro.faults import InjectedCrashError

        with pytest.raises(InjectedCrashError):
            platter.sync()  # dies after the WAL frame, before the apply
        platter.abandon()
        recovered = FilePlatter(path, block_size=64, fsync=False)
        # the sealed WAL frame replays: the write survived the "crash"
        assert recovered.read_block(ids[0]) == b"\xaa" * 64
        recovered.close()

    def test_crash_before_wal_loses_only_the_uncommitted(self, tmp_path):
        path = tmp_path / "c.platter"
        platter = FilePlatter(path, block_size=64, fsync=False)
        ids = write_workload(platter)
        platter.sync()
        arm(platter, "crash:sync:start@1")
        platter.write_block(ids[0], b"\xbb" * 64)
        from repro.faults import InjectedCrashError

        with pytest.raises(InjectedCrashError):
            platter.sync()
        platter.abandon()
        recovered = FilePlatter(path, block_size=64, fsync=False)
        assert recovered.read_block(ids[0]) == bytes([0]) * 64  # pre-crash
        recovered.close()

    def test_close_is_idempotent_after_auto_checkpoint(self, tmp_path):
        platter = FilePlatter(
            tmp_path / "idem.platter",
            block_size=64,
            fsync=False,
            wal_limit_bytes=128,  # tiny: the sync below checkpoints inline
        )
        write_workload(platter)
        platter.sync()
        assert platter.durability_snapshot()["checkpoints"] >= 1
        platter.close()
        platter.close()  # second close: clean no-op


class TestInjectionKeepsFormatsValid:
    def test_faulted_platter_still_reopens_clean(self, tmp_path):
        """Heavy transient chaos, then a clean close: no torn formats."""
        path = tmp_path / "torture.platter"
        platter = FilePlatter(path, block_size=64, fsync=False)
        arm(platter, "seed=11 write.transient%0.2 read.transient%0.2")
        ids = write_workload(platter, n=16)
        for b in ids[::2]:
            platter.write_block(b, b"\x5c" * 64)
        platter.sync()
        data = [platter.read_block(b) for b in ids]
        platter.close()
        reopened = FilePlatter(path, block_size=64, fsync=False)
        assert [reopened.read_block(b) for b in ids] == data
        reopened.close()

    def test_wal_scan_rejects_midprotocol_duplicates(self, tmp_path):
        """Why sync faults fire only at entry: a mid-protocol repeat tears.

        Documents the invariant by construction rather than by comment:
        appending the same counter twice is exactly what a naive retry
        *inside* the sync protocol would do, and the scan refuses it.
        """
        path = tmp_path / "dup.platter"
        platter = FilePlatter(path, block_size=64, fsync=False)
        b = platter.allocate()
        platter.write_block(b, b"\x01" * 64)
        platter.sync()
        with open(platter.wal_path, "rb") as fh:
            wal = fh.read()
        frames = wal[16:]  # everything after the 16-byte WAL header
        if frames:  # duplicate the sealed frame: same counter twice
            with open(platter.wal_path, "ab") as fh:
                fh.write(frames)
            platter.abandon()
            with pytest.raises(PlatterFormatError):
                FilePlatter(path, block_size=64, fsync=False)
        else:  # checkpoint already drained it; nothing to duplicate
            platter.close()
