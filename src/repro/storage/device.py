"""The block-device interface every storage bottom implements.

Until PR 6 the storage bottom *was* :class:`~repro.storage.disk.
SimulatedDisk` -- an instant, in-memory dict -- and every layer above it
(pager, record store, database, cluster, replica sync) was written
against that one concrete class.  This module extracts the contract
those layers actually rely on into :class:`BlockDevice`, so the bottom
becomes pluggable:

* :class:`~repro.storage.disk.SimulatedDisk` -- the in-memory backend,
  now with an optional per-operation latency so executor and cache
  benchmarks can model I/O wait without a real file;
* :class:`~repro.storage.platter.FilePlatter` -- a single real file with
  a checksummed self-describing header, CRC-tagged block records and a
  write-ahead log, giving the enciphered-database-at-rest story an
  actual at-rest form and a crash-recovery path.

The template methods here pin down the one architectural invariant both
backends share: the optional :class:`BlockTransform` -- the paper's
on-the-fly hardware encipherment module -- runs exactly at the
read/write boundary, *outside* any device lock (cryptography is the
expensive part and enciphers streams independently of platter
arbitration).  Backends implement the at-rest primitives
(:meth:`BlockDevice._store` / :meth:`BlockDevice._fetch`) plus the
state-transfer surface the replica-sync protocol ships bytes through.

Durability is part of the interface but optional in the implementation:
:meth:`BlockDevice.sync` is the commit-time barrier ("pending writes
are now at rest"), a no-op for the in-memory device and a WAL-append +
apply + header-flip for the file platter; :meth:`BlockDevice.poll` is
the cross-process catch-up probe behind journal-driven cache
invalidation (see :meth:`repro.core.database.EncipheredDatabase.
reattach`); :meth:`BlockDevice.durability_snapshot` reports the same
counter shape for every backend so cluster statistics merge leaf-wise.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.exceptions import (
    BlockBoundsError,
    PermanentIOError,
    StorageError,
    TransientIOError,
)
from repro.faults import (
    FaultInjector,
    RetryPolicy,
    plan_from_env,
    zero_fault_counters,
)
from repro.obs.tracing import NULL_TRACER
from repro.storage.journal import ChangeJournal


class BlockTransform(Protocol):
    """The on-the-fly encipherment module between memory and disk."""

    def on_write(self, block_id: int, data: bytes) -> bytes:
        """Transform plain block bytes into their at-rest form."""
        ...

    def on_read(self, block_id: int, data: bytes) -> bytes:
        """Invert :meth:`on_write`.

        A transform that can invert part of a block also takes a
        ``window=(lo, hi)`` argument (see :meth:`BlockDevice.read_block`).
        """
        ...


@dataclass
class DiskStats:
    """Counters for physical block traffic.

    ``overwrites`` counts writes landing on a block that already held
    data -- the quantity a write-back pager drives down by coalescing
    repeated rewrites of hot blocks (benchmark C7).

    ``read_time_s``/``write_time_s`` accumulate time the device spent in
    physical I/O (the modeled service time for :class:`~repro.storage.
    disk.SimulatedDisk`, measured wall time for :class:`~repro.storage.
    platter.FilePlatter`); ``fsyncs`` and ``header_flips`` count the
    durable device's barrier operations.  Together they are the signal
    an async pager needs to decide what is worth overlapping (ROADMAP
    item 1 follow-on); the instant in-memory device reports zeros.
    """

    reads: int = 0
    writes: int = 0
    overwrites: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_time_s: float = 0.0
    write_time_s: float = 0.0
    fsyncs: int = 0
    header_flips: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.overwrites = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_time_s = 0.0
        self.write_time_s = 0.0
        self.fsyncs = 0
        self.header_flips = 0


@dataclass
class _PageKeyTransform:
    """Adapter turning a page-key scheme into a :class:`BlockTransform`."""

    encrypt: Callable[[int, bytes], bytes]
    decrypt: Callable[[int, bytes], bytes]

    def on_write(self, block_id: int, data: bytes) -> bytes:
        return self.encrypt(block_id, data)

    def on_read(self, block_id: int, data: bytes) -> bytes:
        return self.decrypt(block_id, data)


def transform_from_page_key_scheme(scheme) -> BlockTransform:
    """Wrap a :class:`repro.crypto.pagekey.PageKeyScheme` as a transform."""
    return _PageKeyTransform(encrypt=scheme.encrypt_page, decrypt=scheme.decrypt_page)


#: The one durability-counter shape every backend reports, so the
#: cluster's leaf-wise counter merge works whatever mix of backends the
#: shards run on.  The in-memory device reports all zeros.
DURABILITY_FIELDS = (
    "syncs",
    "wal_frames",
    "wal_bytes",
    "header_flips",
    "frames_replayed",
    "blocks_repaired",
    "checkpoints",
    # group commit (PR 9): rounds a leader flushed on behalf of a batch,
    # and follower syncs satisfied by another thread's round without
    # paying their own WAL append + fsyncs + header flip
    "group_rounds",
    "group_joins",
    # background checkpointing (PR 10): WAL compactions run off the
    # commit path by the platter's daemon checkpointer
    "background_checkpoints",
)


class BlockDevice(ABC):
    """A growable array of fixed-size blocks with I/O accounting.

    Subclasses supply the at-rest storage (:meth:`_store`/:meth:`_fetch`
    plus the allocation and state-transfer surface); this base class
    owns the transform boundary, the shared statistics object and the
    change journal that the incremental replica-sync protocol reads.

    The transform runs outside whatever lock the backend takes for its
    at-rest bookkeeping, so concurrent readers admitted by the
    database's reader--writer lock decipher in parallel.
    """

    def __init__(self, block_size: int, transform: BlockTransform | None) -> None:
        if block_size < 16:
            raise StorageError(f"block size {block_size} is unrealistically small")
        self.block_size = block_size
        self.transform = transform
        self.stats = DiskStats()
        #: Span tracer for durable-path instrumentation (WAL append,
        #: fsync, header flip).  Defaults to the shared disabled tracer;
        #: the owning database replaces it with its own.
        self.tracer = NULL_TRACER
        #: Ledger of mutated block ids for incremental replica sync; a
        #: write whose at-rest bytes equal what the platter already held
        #: is *not* journaled (nothing changed, nothing to ship), which
        #: is what keeps no-op commits -- identical superblock rewrites
        #: -- invisible to the sync protocol.
        self.journal = ChangeJournal(on_seal=self._on_journal_seal)
        #: Fault-injection + retry seam (the chaos plane).  Unset by
        #: default; :func:`repro.faults.plan_from_env` arms every device
        #: constructed while ``REPRO_FAULTS`` is set.
        self.faults: FaultInjector | None = None
        self.retry_policy: RetryPolicy | None = None
        self.retry_counters = {"retries": 0, "retries_exhausted": 0}
        self._fault_rng = random.Random(0)
        plan = plan_from_env()
        if plan is not None:
            self.attach_faults(plan.injector(label=type(self).__name__), plan.retry)

    # -- fault injection + retries (the chaos seam) ----------------------

    def attach_faults(
        self,
        injector: FaultInjector | None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        """Arm (or disarm, with ``None``) fault injection on this device.

        Attaching replaces any previous injector -- including one armed
        from the environment -- and resets the retry counters, so a test
        that attaches its own schedule observes only its own faults.
        When an injector is supplied without a policy the default
        :class:`~repro.faults.RetryPolicy` is used; pass an explicit
        policy of ``None`` only by disarming entirely.
        """
        self.faults = injector
        if injector is None:
            self.retry_policy = retry_policy
        else:
            self.retry_policy = retry_policy or RetryPolicy()
        self.retry_counters = {"retries": 0, "retries_exhausted": 0}
        seed = getattr(injector, "seed", 0) if injector is not None else 0
        self._fault_rng = random.Random(seed ^ 0x5EED)

    def fault_snapshot(self) -> dict[str, int]:
        """Injected-fault + retry counters in one fixed, mergeable shape."""
        snap = zero_fault_counters()
        if self.faults is not None:
            snap.update(self.faults.snapshot())
        snap["retries"] = self.retry_counters["retries"]
        snap["retries_exhausted"] = self.retry_counters["retries_exhausted"]
        return snap

    def _inject(self, op: str, block_id: int | None, stored: bytes | None) -> None:
        """Consult the injector for one at-rest op; raise/sleep on its cue.

        Runs *before* the backend primitive, so an injected failure that
        is later retried leaves :class:`DiskStats` exactly as a
        fault-free run would -- only torn writes land (corrupt) bytes.
        """
        action = self.faults.fire(op)
        if action is None:
            return
        where = f" on block {block_id}" if block_id is not None else ""
        if action.kind == "latency":
            time.sleep(action.delay_s)
            return
        if action.kind == "torn" and stored is not None and block_id is not None:
            # the classic torn write: corrupt bytes reach the platter AND
            # the caller sees an error -- a retry must heal byte-exactly
            self._store(block_id, self.faults.tear(stored))
            raise TransientIOError(f"injected torn write{where}")
        if action.kind in ("transient", "torn"):
            raise TransientIOError(f"injected transient {op} error{where}")
        raise PermanentIOError(f"injected permanent {op} failure{where}")

    def _guarded(self, op: str, fn, block_id: int | None = None,
                 stored: bytes | None = None):
        """Run an at-rest primitive under injection and the retry policy.

        The transform never sits inside this loop: callers transform
        once, then retry only the at-rest part, keeping cipher-operation
        counts identical whether or not faults fire.
        """
        faults = self.faults
        policy = self.retry_policy
        if faults is None and policy is None:
            return fn()

        def attempt():
            if faults is not None:
                self._inject(op, block_id, stored)
            return fn()

        if policy is None:
            return attempt()

        def on_retry(_attempt_no, _exc):
            self.retry_counters["retries"] += 1
            with self.tracer.trace("device.fault_retry"):
                pass  # count the retry in the span stream, duration ~0

        try:
            return policy.call(attempt, rng=self._fault_rng, on_retry=on_retry)
        except Exception as exc:
            if RetryPolicy.is_transient(exc):
                self.retry_counters["retries_exhausted"] += 1
            raise

    def _guarded_batch(self, attempt):
        """Retry an already-prepared batch attempt (injection included)."""
        policy = self.retry_policy
        if policy is None:
            return attempt()

        def on_retry(_attempt_no, _exc):
            self.retry_counters["retries"] += 1
            with self.tracer.trace("device.fault_retry"):
                pass  # count the retry in the span stream, duration ~0

        try:
            return policy.call(attempt, rng=self._fault_rng, on_retry=on_retry)
        except Exception as exc:
            if RetryPolicy.is_transient(exc):
                self.retry_counters["retries_exhausted"] += 1
            raise

    # -- allocation ------------------------------------------------------

    @abstractmethod
    def allocate(self) -> int:
        """Reserve a fresh block and return its id."""

    @property
    @abstractmethod
    def num_blocks(self) -> int:
        """Number of allocated blocks (including never-written ones)."""

    @abstractmethod
    def _check_id(self, block_id: int) -> None:
        """Raise :class:`BlockBoundsError` for an out-of-range id."""

    # -- I/O (template: transform at the boundary, at-rest below) --------

    def write_block(self, block_id: int, data: bytes) -> None:
        """Write plain bytes; the transform runs before the platter."""
        self._check_id(block_id)
        stored = self.transform.on_write(block_id, data) if self.transform else data
        if len(stored) > self.block_size:
            raise BlockBoundsError(
                f"payload of {len(stored)} bytes overflows {self.block_size}-byte block",
                block_id=block_id,
            )
        if self.faults is None and self.retry_policy is None:
            self._store(block_id, stored)
        else:
            self._guarded(
                "write", lambda: self._store(block_id, stored),
                block_id=block_id, stored=stored,
            )

    def read_block(
        self, block_id: int, window: tuple[int, int] | None = None
    ) -> bytes:
        """Read a block; the transform is inverted after the platter.

        ``window=(lo, hi)`` asks for plain bytes ``[lo, hi)`` only,
        clamped to the block's plain length.  It is handed to the
        transform's ``on_read``, which may then invert just the part of
        the block the window covers (the record cipher deciphers only the
        CBC blocks under one slot); only transforms that accept a window
        may be read with one.  The fetch, fault injection, retries and
        statistics are exactly those of a whole-block read.
        """
        self._check_id(block_id)
        if self.faults is None and self.retry_policy is None:
            stored = self._fetch(block_id)
        else:
            stored = self._guarded(
                "read", lambda: self._fetch(block_id), block_id=block_id
            )
        if self.transform is None:
            return stored if window is None else stored[window[0] : window[1]]
        if window is None:
            return self.transform.on_read(block_id, stored)
        return self.transform.on_read(block_id, stored, window)

    def read_many(self, block_ids) -> list[bytes]:
        """Read several blocks in one device round trip.

        The bulk entry point behind readahead and batched cache warming:
        one call charges the device's fixed per-operation costs once for
        the whole batch (:class:`~repro.storage.disk.SimulatedDisk`
        sleeps its ``latency_s`` once; :class:`~repro.storage.platter.
        FilePlatter` does a single seek-ordered pass), while the
        transform still runs per block *outside* any device lock, so a
        readahead worker deciphers an entire batch without stalling
        foreground I/O.  Semantics are exactly ``[read_block(b) for b in
        block_ids]`` -- same bounds checks, same per-block statistics,
        same exceptions.
        """
        ids = list(block_ids)
        for block_id in ids:
            self._check_id(block_id)
        if self.faults is None and self.retry_policy is None:
            stored = self._fetch_many(ids)
        else:
            # the injector sees one "read" op per block (matching the
            # looped form); the whole batch retries as a unit
            def attempt_batch():
                if self.faults is not None:
                    for block_id in ids:
                        self._inject("read", block_id, None)
                return self._fetch_many(ids)

            stored = self._guarded_batch(attempt_batch)
        if self.transform is None:
            return stored
        return [self.transform.on_read(b, s) for b, s in zip(ids, stored)]

    def write_many(self, items) -> None:
        """Write several ``(block_id, data)`` pairs in one round trip.

        The mirror of :meth:`read_many`: transforms run per block before
        the batch lands, and the backend's :meth:`_store_many` charges
        fixed costs once.  Equivalent to ``write_block`` in a loop.
        """
        pairs = []
        for block_id, data in items:
            self._check_id(block_id)
            stored = self.transform.on_write(block_id, data) if self.transform else data
            if len(stored) > self.block_size:
                raise BlockBoundsError(
                    f"payload of {len(stored)} bytes overflows "
                    f"{self.block_size}-byte block",
                    block_id=block_id,
                )
            pairs.append((block_id, stored))
        if self.faults is None and self.retry_policy is None:
            self._store_many(pairs)
            return

        def attempt_batch():
            if self.faults is not None:
                for pair_id, pair_stored in pairs:
                    self._inject("write", pair_id, pair_stored)
            self._store_many(pairs)

        self._guarded_batch(attempt_batch)

    @abstractmethod
    def _store(self, block_id: int, stored: bytes) -> None:
        """Land at-rest bytes: statistics, journal dedup, persistence."""

    @abstractmethod
    def _fetch(self, block_id: int) -> bytes:
        """Return at-rest bytes (raising for a never-written block)."""

    def _fetch_many(self, block_ids: list[int]) -> list[bytes]:
        """Batch at-rest fetch seam; the default simply loops.

        Backends override to amortise fixed per-operation costs over the
        batch.  Overrides must keep per-block statistics identical to
        the looped form (only the *time* accounting may differ).
        """
        return [self._fetch(block_id) for block_id in block_ids]

    def _store_many(self, pairs: list[tuple[int, bytes]]) -> None:
        """Batch at-rest store seam; the default simply loops."""
        for block_id, stored in pairs:
            self._store(block_id, stored)

    # -- whole-platter state (process-executor support) ------------------

    @abstractmethod
    def export_state(self) -> list[bytes | None]:
        """Every block slot -- written or not -- in platter order.

        A state *transfer*, not I/O: neither the statistics nor the
        transform are touched (the bytes are already at rest).
        """

    @abstractmethod
    def import_state(self, blocks: list[bytes | None]) -> None:
        """Replace the entire platter with :meth:`export_state` output.

        A state transfer: statistics untouched, oversized blocks
        rejected exactly as a physical write would reject them, and the
        change journal *tainted* -- its history described the replaced
        platter.
        """

    @abstractmethod
    def snapshot_blocks(self, block_ids) -> dict[int, bytes | None]:
        """At-rest bytes of the listed blocks (a targeted export)."""

    @abstractmethod
    def patch_state(self, num_blocks: int, block_writes: dict[int, bytes | None]) -> None:
        """Apply a targeted delta: grow to ``num_blocks``, set the ids."""

    # -- the attacker's view ---------------------------------------------

    @abstractmethod
    def raw_block(self, block_id: int) -> bytes:
        """Bytes at rest, as an opponent reading the platter sees them."""

    @abstractmethod
    def raw_blocks(self) -> list[tuple[int, bytes]]:
        """Every written block, in platter order -- the full dump."""

    # -- durability (optional; defaults describe the instant device) -----

    def sync(self) -> int:
        """Make every pending write durable; returns blocks made durable.

        The commit-time barrier.  The in-memory device is always
        "durable" (it dies with the process), so the default is a no-op.
        """
        return 0

    def poll(self) -> set[int] | None:
        """Block ids another handle of this device committed since our last look.

        Supports journal-driven cache invalidation across processes:
        ``set()`` means nothing changed (always true for a private
        in-memory device), a non-empty set lists exactly the blocks
        whose at-rest bytes moved, and ``None`` means the device cannot
        prove completeness -- the caller must invalidate wholesale.
        """
        return set()

    def close(self) -> None:
        """Release any operating-system resources (default: none held)."""

    def durability_snapshot(self) -> dict[str, int]:
        """Durability counters in the one shared, mergeable shape."""
        return {field: 0 for field in DURABILITY_FIELDS}

    def _on_journal_seal(self, epoch: int, sealed_ids: frozenset[int]) -> None:
        """Hook: the device's change journal sealed ``epoch``.

        The file platter overrides this to make sealed epochs durable
        (WAL-first); the in-memory device has nothing to do.
        """
