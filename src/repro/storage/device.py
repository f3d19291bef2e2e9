"""The block device: the one place the at-rest contract is written.

The paper puts encipherment at exactly one place, the device boundary
(Bayer and Metzger's on-the-fly hardware module, here a
:class:`BlockTransform`).  :class:`BlockDevice` is that boundary, and it
implements every shared device semantic once:

* allocation, ``num_blocks`` and bounds checks;
* single and batched reads and writes with their :class:`DiskStats`
  bookkeeping -- a batch reads each distinct id once, in id order, and
  counts every requester -- and the no-op dedup (a write whose at-rest
  bytes equal what is already there is counted but not staged);
* ``export_state``/``patch_state``, which read and set at-rest bytes
  below the transform and the statistics;
* the attacker's view (``raw_block``/``raw_blocks``);
* fault injection and retries around the at-rest part.

A backend supplies only its at-rest primitives: :meth:`BlockDevice.
_at_rest` (one id's bytes, or ``None`` if never written),
:meth:`BlockDevice._stage` (set one id's bytes) and :meth:`BlockDevice._grow`
(make room for more ids).  Every device charges the same measured time:
a read its at-rest fetch, a write nothing until a durable device's
:meth:`~BlockDevice.sync` lands it.  There are two:

* :class:`~repro.storage.disk.SimulatedDisk` -- a list in memory;
* :class:`~repro.storage.platter.FilePlatter` -- a single real file with
  a checksummed self-describing header, CRC-tagged block records and a
  write-ahead log, giving the enciphered-database-at-rest story an
  actual at-rest form and a crash-recovery path.

The transform runs at the read/write boundary, *outside* the device lock
(cryptography is the expensive part and enciphers streams independently
of platter arbitration).

Durability is part of the interface but optional in the implementation:
:meth:`BlockDevice.sync` is the commit-time barrier ("pending writes
are now at rest"), a no-op for the in-memory device and a WAL-append +
apply + header-flip for the file platter;
:meth:`BlockDevice.durability_snapshot` reports the same counter shape
for every backend so cluster statistics merge leaf-wise.
"""

from __future__ import annotations

import random
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import perf_counter
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


class BlockTransform(Protocol):
    """The on-the-fly encipherment module between memory and disk."""

    def on_write(self, block_id: int, data: bytes) -> bytes:
        """Transform plain block bytes into their at-rest form.

        A prefix-preserving transform -- one whose at-rest bytes before
        any offset depend only on the plain bytes before it, as CBC's
        do at cipher-block boundaries -- can also rewrite just a block's
        tail.  It then takes a ``prefix=`` keyword: the stored bytes the
        write keeps, with ``data`` the plain bytes from ``len(prefix)``
        on, and returns the whole at-rest block (see
        :meth:`BlockDevice.write_block`'s ``base=``).
        """
        ...

    def on_read(self, block_id: int, data: bytes) -> bytes:
        """Invert :meth:`on_write`.

        A transform that can invert part of a block also takes a
        ``window=(lo, hi)`` argument (see :meth:`BlockDevice.read_block`),
        and may add ``on_read_many(block_ids, data, windows)`` to invert
        a whole windowed batch at once (see :meth:`BlockDevice.read_many`).
        """
        ...


@dataclass
class DiskStats:
    """Counters for physical block traffic.

    ``overwrites`` counts writes landing on a block that already held
    data -- the quantity a write-back pager drives down by coalescing
    repeated rewrites of hot blocks (benchmark C7).

    ``read_time_s``/``write_time_s`` accumulate measured wall time:
    ``read_time_s`` every device's at-rest fetches, ``write_time_s`` the
    :meth:`~BlockDevice.sync` rounds that land writes on a durable
    device (the in-memory device never books it).  ``fsyncs`` and
    ``header_flips`` count the durable device's barrier operations.
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
)


class BlockDevice(ABC):
    """A growable array of fixed-size blocks with I/O accounting.

    Subclasses supply the at-rest primitives (:meth:`_at_rest`,
    :meth:`_stage`, :meth:`_grow`); this base class owns
    everything else: allocation, bounds, the transform boundary, the
    statistics, at-rest state access and the attacker's view.

    The primitives run under ``_lock``, which guards the block count,
    the at-rest bytes and the statistics; the transform runs outside it,
    so concurrent readers admitted by the database's reader--writer lock
    decipher in parallel.
    """

    def __init__(self, block_size: int, transform: BlockTransform | None) -> None:
        if block_size < 16:
            raise StorageError(f"block size {block_size} is unrealistically small")
        self.block_size = block_size
        self.transform = transform
        self.stats = DiskStats()
        self._lock = threading.RLock()
        self._count = 0
        #: Span tracer for durable-path instrumentation (WAL append,
        #: fsync, header flip).  Defaults to the shared disabled tracer;
        #: the owning database replaces it with its own.
        self.tracer = NULL_TRACER
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
        """Consult the injector for one at-rest op; raise or stall on its cue.

        Runs *before* the backend primitive, so an injected failure that
        is later retried leaves :class:`DiskStats` exactly as a
        fault-free run would -- only torn writes land (corrupt) bytes.
        """
        action = self.faults.fire(op)
        if action is None or action.stall():
            return
        where = f" on block {block_id}" if block_id is not None else ""
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
        if faults is None and self.retry_policy is None:
            return fn()

        def attempt():
            if faults is not None:
                self._inject(op, block_id, stored)
            return fn()

        return self._guarded_batch(attempt)

    def _guarded_batch(self, attempt):
        """Retry an already-prepared attempt (injection included)."""
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

    # -- the backend's at-rest primitives --------------------------------

    @abstractmethod
    def _at_rest(self, block_id: int) -> bytes | None:
        """At-rest bytes of an in-range id, or ``None`` if never written.

        Called under ``_lock``, like :meth:`_stage` and :meth:`_grow`.
        """

    @abstractmethod
    def _stage(self, block_id: int, stored: bytes | None) -> None:
        """Set an id's at-rest bytes (``None``: never written).

        No statistics: the callers here account for them.
        """

    def _grow(self, num_blocks: int) -> None:
        """Make room for ids below ``num_blocks`` (default: nothing to do)."""

    def _overwritten(self, block_id: int):
        """The at-rest bytes a write is about to replace (the dedup compare).

        A backend whose stored bytes can be unreadable overrides this to
        return a value unequal to any bytes, so the write lands and heals.
        """
        return self._at_rest(block_id)

    # -- allocation ------------------------------------------------------

    def allocate(self) -> int:
        """Reserve a fresh block and return its id."""
        with self._lock:
            block_id = self._count
            self._grow(block_id + 1)
            self._count = block_id + 1
            return block_id

    @property
    def num_blocks(self) -> int:
        """Number of allocated blocks (including never-written ones)."""
        return self._count

    def _check_id(self, block_id: int) -> None:
        if not 0 <= block_id < self._count:
            raise BlockBoundsError(
                f"block {block_id} outside device of {self._count} blocks",
                block_id=block_id,
            )

    def _check_fits(
        self, block_id: int, data: bytes | None, what: str = "payload"
    ) -> None:
        if data is not None and len(data) > self.block_size:
            raise BlockBoundsError(
                f"{what} of {len(data)} bytes overflows {self.block_size}-byte block",
                block_id=block_id,
            )

    def _written(self, block_id: int) -> bytes:
        """At-rest bytes of a block that must have been written (locked)."""
        stored = self._at_rest(block_id)
        if stored is None:
            raise BlockBoundsError(
                f"block {block_id} was never written", block_id=block_id
            )
        return stored

    # -- I/O (template: transform at the boundary, at-rest below) --------

    def write_block(self, block_id: int, data: bytes, base: int = 0) -> None:
        """Write plain bytes; the transform runs before the platter.

        ``base > 0`` rewrites only the block's tail, mirroring
        :meth:`read_block`'s ``window=``: ``data`` is the plain bytes
        from offset ``base`` on, the at-rest bytes before ``base`` stay
        as they are, and they are handed to the transform's ``on_write``
        as ``prefix=`` (the record cipher then enciphers only the CBC
        blocks from ``base`` on).  Only transforms that accept a prefix
        may be written with a base, and only at one of their block
        boundaries.  Taking the kept bytes is not a read -- no
        statistics, no fault injection -- and the landing, its
        injection, retries and statistics are exactly those of a
        whole-block write.
        """
        self._check_id(block_id)
        if not base:
            stored = self.transform.on_write(block_id, data) if self.transform else data
        else:
            with self._lock:
                prefix = self._written(block_id)[:base]
            if len(prefix) != base:
                raise BlockBoundsError(
                    f"write base {base} past the {len(prefix)} bytes at rest",
                    block_id=block_id,
                )
            if self.transform is None:
                stored = prefix + data
            else:
                stored = self.transform.on_write(block_id, data, prefix=prefix)
        self._check_fits(block_id, stored)
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

    def read_many(self, block_ids, windows=None) -> list[bytes]:
        """Read several blocks in one device round trip.

        The bulk entry point behind
        :meth:`~repro.core.records.RecordStore.get_many`, which fetches
        every record block of a range search in one call: the batch is
        fetched in one id-ordered pass under one lock acquisition (one
        seek-ordered sweep of a :class:`~repro.storage.platter.
        FilePlatter`), while the transform still runs *outside* any
        device lock, so concurrent readers decipher in parallel.
        Semantics are those of ``[read_block(b) for b in block_ids]``
        -- same bounds checks, same per-block statistics, same
        exception types.

        ``windows``, one ``(lo, hi)`` per id, asks for each block's plain
        bytes ``[lo, hi)`` as :meth:`read_block`'s ``window=`` does.  A
        transform with ``on_read_many(block_ids, data, windows)`` inverts
        the whole windowed batch in one call (the record cipher deciphers
        every window of a range search in one bulk DES call); others get
        one windowed ``on_read`` per item.  Ids may repeat: each
        occurrence is a requester with its own window, result and
        statistics.
        """
        ids = list(block_ids)
        if windows is not None:
            windows = list(windows)
            if len(windows) != len(ids):
                raise ValueError(f"{len(windows)} windows for {len(ids)} block ids")
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
        transform = self.transform
        if windows is None:
            if transform is None:
                return stored
            return [transform.on_read(b, s) for b, s in zip(ids, stored)]
        if transform is None:
            return [s[lo:hi] for s, (lo, hi) in zip(stored, windows)]
        if hasattr(transform, "on_read_many"):
            return transform.on_read_many(ids, stored, windows)
        return [transform.on_read(*item) for item in zip(ids, stored, windows)]

    def write_many(self, items) -> None:
        """Write several ``(block_id, data)`` pairs in one round trip.

        The mirror of :meth:`read_many`: transforms run per block before
        the batch lands under one lock acquisition.  Equivalent to
        ``write_block`` in a loop.
        """
        pairs = []
        for block_id, data in items:
            self._check_id(block_id)
            stored = self.transform.on_write(block_id, data) if self.transform else data
            self._check_fits(block_id, stored)
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

    def _store(self, block_id: int, stored: bytes) -> None:
        """Land at-rest bytes: statistics, no-op dedup, staging."""
        self._store_many([(block_id, stored)])

    def _store_many(self, pairs: list[tuple[int, bytes]]) -> None:
        """Land a batch: statistics, no-op dedup, staging.

        A write whose at-rest bytes equal what the block already holds
        is counted but not staged, so an identical rewrite (a no-op
        commit's superblock) gives a durable platter nothing to sync.
        It charges no time: a durable device's physical write is its
        :meth:`sync`, which books ``write_time_s``.
        """
        stats = self.stats
        with self._lock:
            for block_id, stored in pairs:
                current = self._overwritten(block_id)
                if current is not None:
                    stats.overwrites += 1
                if current != stored:
                    self._stage(block_id, stored)
                stats.writes += 1
                stats.bytes_written += len(stored)

    def _fetch(self, block_id: int) -> bytes:
        """At-rest bytes of one block, with its read statistics."""
        start = perf_counter()
        with self._lock:
            stored = self._written(block_id)
            stats = self.stats
            stats.reads += 1
            stats.bytes_read += len(stored)
            stats.read_time_s += perf_counter() - start
        return stored

    def _fetch_many(self, block_ids: list[int]) -> list[bytes]:
        """Batch fetch: one id-ordered pass, one measured time.

        Serves :meth:`read_many`, whose one caller is
        :meth:`~repro.core.records.RecordStore.get_many`; the file
        platter reads the batch in one forward sweep.  Duplicates are
        read once and served to every requester; per-block statistics
        equal the looped form's, and the pass's measured time is spread
        evenly over the requesters.
        """
        if not block_ids:
            return []
        start = perf_counter()
        with self._lock:
            fetched = {
                block_id: self._written(block_id)
                for block_id in sorted(set(block_ids))
            }
            share = (perf_counter() - start) / len(block_ids)
            stats = self.stats
            for block_id in block_ids:
                stats.reads += 1
                stats.bytes_read += len(fetched[block_id])
                stats.read_time_s += share
        return [fetched[block_id] for block_id in block_ids]

    # -- at-rest state -------------------------------------------------
    #
    # State access, not I/O: neither the statistics nor the transform
    # are touched (the bytes are already at rest), and oversized blocks
    # are rejected exactly as a physical write would reject them.

    def export_state(self) -> list[bytes | None]:
        """Every block slot -- written or not -- in platter order."""
        with self._lock:
            return [self._at_rest(block_id) for block_id in range(self._count)]

    def patch_state(self, num_blocks: int, block_writes: dict[int, bytes | None]) -> None:
        """Grow to ``num_blocks`` and set the listed ids' at-rest bytes.

        The device never shrinks here.  Tests use it to tamper with
        stored bytes behind the transform's back.
        """
        for block_id, data in block_writes.items():
            self._check_fits(block_id, data, "patched payload")
            if block_id >= num_blocks:
                raise BlockBoundsError(
                    f"patch writes block {block_id} beyond device of "
                    f"{num_blocks} blocks",
                    block_id=block_id,
                )
        with self._lock:
            if num_blocks > self._count:
                self._grow(num_blocks)
                self._count = num_blocks
            for block_id, data in block_writes.items():
                self._stage(block_id, data)

    # -- the attacker's view ---------------------------------------------

    def raw_block(self, block_id: int) -> bytes:
        """Bytes at rest, as an opponent reading the platter sees them.

        Bypasses the transform and the statistics: the attacker does not
        announce their reads.
        """
        self._check_id(block_id)
        with self._lock:
            return self._written(block_id)

    def raw_blocks(self) -> list[tuple[int, bytes]]:
        """Every written block, in platter order -- the full dump."""
        with self._lock:
            return [
                (block_id, data)
                for block_id in range(self._count)
                for data in (self._at_rest(block_id),)
                if data is not None
            ]

    # -- durability (optional; defaults describe the instant device) -----

    def sync(self) -> int:
        """Make every pending write durable; returns blocks made durable.

        The commit-time barrier.  The in-memory device is always
        "durable" (it dies with the process), so the default is a no-op.
        """
        return 0

    def close(self) -> None:
        """Release any operating-system resources (default: none held)."""

    def durability_snapshot(self) -> dict[str, int]:
        """Durability counters in the one shared, mergeable shape."""
        return {field: 0 for field in DURABILITY_FIELDS}
