"""A self-contained enciphered database: superblock + index + records.

The bare :class:`~repro.core.enciphered_btree.EncipheredBTree` keeps its
root id and geometry in Python attributes; a real deployment must survive
a restart from the platter alone.  :class:`EncipheredDatabase` adds the
missing piece: **block 0 is a superblock** holding the root id, the
minimum degree and the key count, enciphered under the file key like any
other block (an opponent cannot even read the geometry), plus a magic tag
that authenticates the deciphering key.

``create`` builds a fresh database; ``reopen`` reconstructs a working
handle from the two disks and the secret material alone, verifying the
B-Tree invariants on the way up.

Write policies and transactions
-------------------------------

By default the database *autocommits*: every ``insert``/``delete``
re-enciphers the superblock and (with the default write-through pager)
pushes each dirty node block to disk immediately.  That is the mode the
paper's experiments must use -- C1/C3 charge every node rewrite its disk
write, and the per-operation cipher counts assume no batching.

For ingest-style workloads the hot path can amortise that cost:

* ``create(..., write_back=True)`` puts the node pager in write-back
  mode, so repeated rewrites of a hot block coalesce;
* :meth:`EncipheredDatabase.transaction` defers the superblock rewrite
  and every dirty node block to a single :meth:`commit` at scope exit,
  and rolls the index back (discarding the dirty pages) if the block
  raises;
* :meth:`EncipheredDatabase.bulk_load` builds the index bottom-up,
  writing and enciphering each node exactly once.

Deferral always happens *below* the node codec: pointer-cipher and
substitution counts are identical across modes, only disk-write counts
change (benchmark C7 reports both).

Read-path caches
----------------

Two opt-in plaintext cache levels (both off by default, keeping every
cipher count on the paper's cost model):

* ``record_cache_blocks`` -- the record store caches deciphered slot
  blocks, so ``get``/``range_search`` decipher each data block once per
  residency instead of once per matching record;
* ``decoded_node_cache_blocks`` -- the pager memoises decoded node
  views, so repeat visits to a hot node skip the codec's substitution
  inversions and pointer decryptions.

Invalidation is wired through every mutation path: ``put``/``delete``
refresh the record cache in the same step as the platter write, node
writes drop the block's decoded view, and a transaction rollback
discards both the dirty pages and any plaintext decoded from them --
cached plaintext can never outlive the bytes it came from.  Caching
changes *plaintext-side* work only; ciphertext traffic is byte-identical
with the caches on or off (benchmark C9 asserts both properties).
:meth:`EncipheredDatabase.stats` reports each level's hit/miss/eviction
counters and :meth:`EncipheredDatabase.clear_caches` forces a cold
start.

Concurrency
-----------

Every public operation runs under a per-database
:class:`~repro.storage.rwlock.ReadWriteLock` (exposed as ``db.lock``):
queries (``search``/``get``/``range_search``/``items``/``len``) share the
read side, mutations and commits hold the write side exclusively, and a
:meth:`transaction` scope holds the write side end to end.  Combined with
the internally locked pager, caches and disks, interleaved reader threads
can never observe a torn superblock or a half-flushed node.  Operation
*counters* (tree comparisons, substitution tallies, cipher operations)
accumulate per-thread and merge on read
(:class:`~repro.counters.ThreadSafeCounters`), so concurrent workloads
report exact totals without a lock on any hot-path increment.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.btree.tree import BTree
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.packing import PointerPacking
from repro.core.records import RecordStore
from repro.counters import ThreadSafeCounters
from repro.crypto.base import CountingCipher, IntegerCipher
from repro.crypto.des import DES, kernel_decisions_snapshot
from repro.crypto.modes import CBCCipher
from repro.exceptions import CryptoError, IntegrityError, KeyNotFoundError, StorageError
from repro.obs import ObsConfig, Observability
from repro.storage.backend import StorageBackend
from repro.storage.device import BlockDevice
from repro.storage.disk import SimulatedDisk
from repro.storage.journal import ShardDelta
from repro.storage.pager import Pager
from repro.storage.rwlock import ReadWriteLock
from repro.substitution.base import KeySubstitution

_MAGIC = b"HSBT1990"


class WarmingCounters(ThreadSafeCounters):
    """Cache-warming work, counted separately from organic traffic.

    ``background_warms``/``background_completed``/``background_failed``
    track :meth:`EncipheredDatabase.warm` daemon-thread runs: started,
    finished cleanly, and died (e.g. the database closed underneath a
    still-running warm -- advisory work, so the error is recorded
    rather than raised on a thread nobody joins).
    """

    _FIELDS = (
        "nodes_warmed",
        "record_blocks_warmed",
        "background_warms",
        "background_completed",
        "background_failed",
    )


def _counting(pointer_cipher: IntegerCipher) -> CountingCipher:
    """Wrap a cipher for operation counting exactly once.

    An already-counting cipher is reused as-is; wrapping it again would
    split the C1/C3 tallies across two layers.
    """
    if isinstance(pointer_cipher, CountingCipher):
        return pointer_cipher
    return CountingCipher(pointer_cipher)


class _CommitGroup:
    """Leader/follower durability coalescing for concurrent commits.

    With group commit enabled, :meth:`EncipheredDatabase.commit` splits
    into two halves: *staging* (deferred deletes, superblock rewrite,
    pager flush -- under the write lock, cheap) and the *durability
    point* (both device syncs -- up to six fsyncs on a durable backend,
    expensive).  Each committer takes a ticket after staging; the first
    thread to need durability becomes the leader and syncs once on
    behalf of every ticket staged so far, while the rest wait on the
    condition and return when the leader's round covers them.  Eight
    concurrent committers therefore pay one or two sync rounds, not
    eight.

    The leader syncs under the database *read* lock: staging always
    happens under the write lock, so the read side excludes every
    mid-stage committer -- the platter can never seal a WAL frame
    containing half of someone's pager flush.  Lock order is strictly
    ``db.lock`` before ``_cond`` (``ticket`` runs under the write lock;
    the election section takes ``_cond`` alone), so the two can never
    deadlock.  A failed round clears leadership without advancing
    ``_durable``; the next waiter retries as leader and the error
    reaches every caller that needs it.
    """

    def __init__(self, db: "EncipheredDatabase") -> None:
        self._db = db
        self._cond = threading.Condition()
        self._staged = 0
        self._durable = 0
        self._leading = False
        #: Sync rounds a leader ran, and flushes satisfied by waiting
        #: out another thread's round (additive; reported in ``stats``).
        self.rounds = 0
        self.joins = 0

    def ticket(self) -> int:
        """Stamp the staging just performed (caller holds the write lock)."""
        with self._cond:
            self._staged += 1
            return self._staged

    def staged(self) -> int:
        """The newest ticket issued so far."""
        with self._cond:
            return self._staged

    def flush(self, target: int) -> None:
        """Block until ticket ``target`` is durable, syncing if needed.

        Must not be called by a thread holding a side of the database
        lock: the leader takes the read side itself.
        """
        waited = False
        with self._cond:
            while True:
                if self._durable >= target:
                    if waited:
                        self.joins += 1
                    return
                if not self._leading:
                    self._leading = True
                    break
                self._cond.wait()
                waited = True
        ok = False
        snap = target
        db = self._db
        try:
            with db.lock.read_locked():
                # everything staged before we got the read side is fully
                # on the device (staging holds the write side), so this
                # round can safely cover it all
                with self._cond:
                    snap = max(snap, self._staged)
                with db.obs.trace("wal.group_commit"):
                    db.records.disk.sync()
                    db.disk.sync()
            ok = True
        finally:
            with self._cond:
                self._leading = False
                if ok:
                    self._durable = max(self._durable, snap)
                    self.rounds += 1
                self._cond.notify_all()


class EncipheredDatabase:
    """Durable facade: everything needed to reopen lives on the disks."""

    def __init__(
        self,
        substitution: KeySubstitution,
        pointer_cipher: IntegerCipher,
        disk: BlockDevice,
        records: RecordStore,
        super_key: bytes,
        tree: BTree,
        autocommit: bool = True,
        observability: ObsConfig | Observability | None = None,
        group_commit: bool | None = None,
        async_flush: bool = False,
    ) -> None:
        self.substitution = substitution
        self.pointer_cipher = _counting(pointer_cipher)
        self.disk = disk
        self.records = records
        self._super_key = super_key
        self.tree = tree
        #: The observability plane: latency histograms, span tracing and
        #: heat tracking behind one switch (see :mod:`repro.obs`).  The
        #: database threads its tracer through every layer it owns, so a
        #: bare ``Pager``/device built elsewhere keeps the shared
        #: disabled tracer while ours records.
        try:
            universe = substitution.key_universe()
        except Exception:
            universe = None
        if isinstance(observability, Observability):
            self.obs = observability
        else:
            self.obs = Observability(observability, universe=universe)
        tracer = self.obs.tracer
        tree.pager.tracer = tracer
        disk.tracer = tracer
        records.attach_tracer(tracer)
        #: The backend this database was created/reopened from, when
        #: known -- the home of the persisted heat blob.
        self._backend: StorageBackend | None = None
        #: When ``True`` (default) every mutation ends with a
        #: :meth:`commit`; when ``False`` the caller owns the commit
        #: points.  :meth:`transaction` toggles this per scope.
        self.autocommit = autocommit
        #: Reader--writer lock guarding every public operation; exposed so
        #: callers can pin a consistent multi-operation view (e.g. a
        #: verifying reopen) to the read side.
        self.lock = ReadWriteLock()
        #: True while the in-memory state is ahead of the last commit
        #: point: with ``autocommit=False`` a write-through mutation
        #: updates node blocks on the platter but not the superblock, so
        #: the platter alone is not a faithful snapshot until commit.
        #: Consumers that serialise the platter (the cluster's process
        #: executor) consult this to refuse or reroute.
        self.has_uncommitted_changes = False
        self._in_txn = False
        self._txn_record_puts: list[int] = []
        self._txn_record_deletes: list[int] = []
        self._txn_snapshot: tuple[int, int, list[int]] | None = None
        #: Nodes pre-decoded by :meth:`warm` (reported in :meth:`stats`).
        self.warming = WarmingCounters()
        #: Latest ``warm(background=True)`` daemon thread, for joining.
        self._warm_thread: threading.Thread | None = None
        #: Group commit: ``None`` defers to the ``REPRO_GROUP_COMMIT``
        #: environment switch (so CI can run whole suites with it on),
        #: mirroring how ``REPRO_OBS_TRACE`` governs observability.
        if group_commit is None:
            flag = os.environ.get("REPRO_GROUP_COMMIT", "")
            group_commit = flag not in ("", "0")
        self._group_commit = bool(group_commit)
        self._async_flush = bool(async_flush)
        self._commit_group = _CommitGroup(self)
        self._flush_lock = threading.Lock()
        self._flush_wakeup = threading.Event()
        self._flusher_thread: threading.Thread | None = None
        self._flusher_stop = False
        self._flush_error: BaseException | None = None
        self._async_flushes = 0
        # close() is idempotent: the flag flips before any teardown, so
        # a second close (context-manager exit after an explicit close,
        # cluster close after a per-shard close) is a clean no-op
        self._db_closed = False

    # -- superblock ------------------------------------------------------

    @staticmethod
    def _super_cipher(super_key: bytes) -> CBCCipher:
        des = DES(super_key)
        iv = des.encrypt_block(b"SUPERBLK")
        return CBCCipher(des, iv)

    def _write_superblock(self) -> None:
        payload = (
            _MAGIC
            + self.tree.root_id.to_bytes(4, "big")
            + self.tree.min_degree.to_bytes(2, "big")
            + self.tree.size.to_bytes(4, "big")
        )
        self.disk.write_block(0, self._super_cipher(self._super_key).encrypt(payload))

    @classmethod
    def _read_superblock(cls, disk: BlockDevice, super_key: bytes) -> tuple[int, int, int]:
        try:
            payload = cls._super_cipher(super_key).decrypt(disk.read_block(0))
        except CryptoError as exc:
            # a wrong key surfaces as a padding/length failure; anything
            # else (I/O errors, programming errors) must propagate as-is
            raise IntegrityError(f"superblock does not decipher: {exc}") from exc
        if payload[:8] != _MAGIC:
            raise IntegrityError("superblock magic mismatch: wrong file key?")
        root_id = int.from_bytes(payload[8:12], "big")
        min_degree = int.from_bytes(payload[12:14], "big")
        size = int.from_bytes(payload[14:18], "big")
        return root_id, min_degree, size

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(
        cls,
        substitution: KeySubstitution,
        pointer_cipher: IntegerCipher,
        *,
        block_size: int = 512,
        min_degree: int = 4,
        super_key: bytes = b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde",
        data_key: bytes = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1",
        record_size: int = 120,
        cache_blocks: int = 16,
        write_back: bool = False,
        autocommit: bool = True,
        record_cache_blocks: int = 0,
        decoded_node_cache_blocks: int = 0,
        decoded_node_cache_bytes: int = 0,
        backend: StorageBackend | None = None,
        observability: ObsConfig | None = None,
        group_commit: bool | None = None,
        async_flush: bool = False,
        readahead_workers: int = 0,
    ) -> "EncipheredDatabase":
        """Initialise a fresh database (block 0 reserved for the superblock).

        ``record_cache_blocks`` and ``decoded_node_cache_blocks`` size
        the two plaintext read caches (record slot blocks and decoded
        node views); both default to ``0`` -- off -- which keeps every
        cipher-operation count on the paper's cost model.
        ``decoded_node_cache_bytes`` additionally (or instead) bounds the
        decoded-node cache by the byte size of the blocks its views were
        decoded from, making its memory footprint plannable.

        ``backend`` selects where the two block devices live (``None``
        keeps the historical private in-memory disks): devices are
        opened as ``"node"`` and ``"records"``, created fresh.  On a
        durable backend every :meth:`commit` additionally syncs both
        devices -- records first, node last, so the node device's
        superblock (the authority a reopen trusts) is the commit point:
        a crash between the two syncs merely leaks record slots that no
        committed index entry references.

        ``group_commit`` (default: the ``REPRO_GROUP_COMMIT`` switch)
        coalesces concurrent explicit commits into shared sync rounds;
        ``async_flush`` additionally defers the sync to a background
        flusher.  ``readahead_workers`` sizes the pager's asynchronous
        prefetch pool (``0`` -- off -- keeps the blocking read path and
        the paper's I/O accounting untouched).
        """
        if backend is None:
            disk: BlockDevice = SimulatedDisk(block_size=block_size)
        else:
            disk = backend.open_device("node", block_size=block_size, create=True)
        reserved = disk.allocate()
        if reserved != 0:
            raise StorageError("superblock must be block 0")
        counting = _counting(pointer_cipher)
        codec = SubstitutedNodeCodec(substitution, counting, PointerPacking())
        pager = Pager(disk, cache_blocks=cache_blocks, write_back=write_back,
                      decoded_cache_blocks=decoded_node_cache_blocks,
                      decoded_cache_bytes=decoded_node_cache_bytes,
                      readahead_workers=readahead_workers)
        tree = BTree(pager=pager, codec=codec, min_degree=min_degree)
        records = RecordStore(data_key, record_size=record_size,
                              block_size=block_size,
                              cache_blocks=record_cache_blocks,
                              backend=backend,
                              create=True if backend is not None else None)
        db = cls(substitution, counting, disk, records, super_key, tree,
                 autocommit=autocommit, observability=observability,
                 group_commit=group_commit, async_flush=async_flush)
        db._backend = backend
        db.commit()  # superblock + the fresh root reach the platter
        return db

    @classmethod
    def reopen(
        cls,
        substitution: KeySubstitution,
        pointer_cipher: IntegerCipher,
        disk: BlockDevice,
        records: RecordStore,
        *,
        super_key: bytes = b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde",
        cache_blocks: int = 16,
        write_back: bool = False,
        autocommit: bool = True,
        record_cache_blocks: int | None = None,
        decoded_node_cache_blocks: int = 0,
        decoded_node_cache_bytes: int = 0,
        observability: ObsConfig | None = None,
        group_commit: bool | None = None,
        async_flush: bool = False,
        readahead_workers: int = 0,
    ) -> "EncipheredDatabase":
        """Rebuild a handle from the platter and the secrets alone.

        Every cache starts cold, as after a process restart.  Cache
        *capacities* follow their owners: the pager is rebuilt here, so
        ``cache_blocks``/``decoded_node_cache_blocks`` apply directly
        (the decoded level defaults off, like ``create``); the record
        store is the caller's durable object, so its configured cache
        capacity persists unless ``record_cache_blocks`` is given
        (``None`` keeps it, ``0`` forces the cache off).
        """
        root_id, min_degree, size = cls._read_superblock(disk, super_key)
        counting = _counting(pointer_cipher)
        codec = SubstitutedNodeCodec(substitution, counting, PointerPacking())
        pager = Pager(disk, cache_blocks=cache_blocks, write_back=write_back,
                      decoded_cache_blocks=decoded_node_cache_blocks,
                      decoded_cache_bytes=decoded_node_cache_bytes,
                      readahead_workers=readahead_workers)
        if record_cache_blocks is not None:
            records.cache.resize(record_cache_blocks)
        tree = BTree.attach(pager, codec, root_id, min_degree=min_degree)
        if tree.size != size:
            raise IntegrityError(
                f"superblock records {size} keys, tree holds {tree.size}"
            )
        db = cls(substitution, counting, disk, records, super_key, tree,
                 autocommit=autocommit, observability=observability,
                 group_commit=group_commit, async_flush=async_flush)
        db._make_cold()  # attach's verification walk must not pre-warm
        return db

    @classmethod
    def reopen_from_backend(
        cls,
        substitution: KeySubstitution,
        pointer_cipher: IntegerCipher,
        backend: StorageBackend,
        *,
        super_key: bytes = b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde",
        data_key: bytes = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1",
        block_size: int = 512,
        record_size: int = 120,
        cache_blocks: int = 16,
        write_back: bool = False,
        autocommit: bool = True,
        record_cache_blocks: int = 0,
        decoded_node_cache_blocks: int = 0,
        decoded_node_cache_bytes: int = 0,
        observability: ObsConfig | None = None,
        group_commit: bool | None = None,
        async_flush: bool = False,
        readahead_workers: int = 0,
    ) -> "EncipheredDatabase":
        """Reopen a database from its backend and the secrets alone.

        The crash-recovery entry point: opening the node device replays
        any write-ahead-log epochs a crash left sealed-but-unapplied,
        the record store rebuilds its slot metadata by scanning (the
        platter carries no metadata records), and :meth:`reopen` then
        verifies the index from the recovered superblock.  Geometry
        (``block_size``/``record_size``) must match creation -- the
        cluster manifest records it; standalone callers supply it.
        """
        disk = backend.open_device("node", block_size=block_size, create=False)
        records = RecordStore.reopen(
            data_key,
            backend,
            record_size=record_size,
            block_size=block_size,
            cache_blocks=record_cache_blocks,
        )
        db = cls.reopen(
            substitution,
            pointer_cipher,
            disk,
            records,
            super_key=super_key,
            cache_blocks=cache_blocks,
            write_back=write_back,
            autocommit=autocommit,
            record_cache_blocks=None,
            decoded_node_cache_blocks=decoded_node_cache_blocks,
            decoded_node_cache_bytes=decoded_node_cache_bytes,
            observability=observability,
            group_commit=group_commit,
            async_flush=async_flush,
            readahead_workers=readahead_workers,
        )
        db._backend = backend
        try:
            # adopt any persisted heat so warm() can pre-decode hot
            # record blocks; a missing or corrupt blob is advisory data
            # lost, never a failed reopen
            db.load_heat()
        except IntegrityError:
            pass
        return db

    # -- commit machinery ------------------------------------------------

    def commit(self) -> None:
        """Make every pending change durable.

        Applies deferred record-slot frees, re-enciphers the superblock,
        flushes dirty node pages, and -- on a durable backend -- syncs
        both devices, records first: the node sync carries the
        authoritative superblock, so it is the commit point, and a crash
        between the syncs leaves only unreferenced (leaked) record
        slots, never a superblock pointing at missing data.  Inside a
        :meth:`transaction` this establishes a new rollback point.

        With ``group_commit`` enabled (and outside a transaction), the
        expensive half -- the device syncs -- runs through the
        :class:`_CommitGroup`: concurrent committers stage under the
        write lock, then one leader syncs for the whole batch.  With
        ``async_flush`` the sync is handed to a background flusher and
        ``commit`` returns as soon as staging is done; call
        :meth:`wait_durable` for a hard durability point.  A thread that
        already holds the lock (autocommit inside a mutation, an open
        transaction scope) keeps the serial sync-under-write-lock path:
        it could never wait for a leader that needs the lock it holds.
        """
        use_group = (
            self._group_commit
            and not self._in_txn
            and not self.lock.held_by_current_thread()
        )
        with self.obs.trace("db.commit"):
            with self.lock.write_locked():
                for record_id in self._txn_record_deletes:
                    self.records.delete(record_id)
                self._txn_record_deletes = []
                self._txn_record_puts = []
                self._write_superblock()
                self.tree.pager.flush()
                if not use_group:
                    self.records.disk.sync()
                    self.disk.sync()
                ticket = self._commit_group.ticket() if use_group else 0
                # staging is the commit point for in-memory consistency;
                # group mode defers only *durability* past this line
                self.has_uncommitted_changes = False
                if self._in_txn:
                    self._txn_snapshot = self.tree.snapshot_state()
            if use_group:
                if self._async_flush:
                    self._schedule_flush()
                else:
                    self._commit_group.flush(ticket)
                    self._raise_flush_error()

    def wait_durable(self) -> None:
        """Block until every staged commit is on the platter.

        The hard durability point for ``async_flush`` mode (and a no-op
        beyond error reporting otherwise): flushes everything staged so
        far -- becoming the leader if no round is running -- and
        re-raises any error a background flush stashed.  Must not be
        called while holding the database lock.
        """
        if self._group_commit:
            self._commit_group.flush(self._commit_group.staged())
        self._raise_flush_error()

    def _schedule_flush(self) -> None:
        """Hand the staged work to the background flusher (lazily started)."""
        if self._flusher_thread is None:
            with self._flush_lock:
                if self._flusher_thread is None:
                    thread = threading.Thread(
                        target=self._flusher_loop,
                        name="repro-commit-flusher",
                        daemon=True,
                    )
                    self._flusher_thread = thread
                    thread.start()
        with self._flush_lock:
            self._async_flushes += 1
        self._flush_wakeup.set()

    def _flusher_loop(self) -> None:
        while True:
            self._flush_wakeup.wait()
            self._flush_wakeup.clear()
            if self._flusher_stop:
                return
            try:
                self._commit_group.flush(self._commit_group.staged())
            except BaseException as exc:  # stash for wait_durable/close
                with self._flush_lock:
                    self._flush_error = exc

    def _raise_flush_error(self) -> None:
        with self._flush_lock:
            exc, self._flush_error = self._flush_error, None
        if exc is not None:
            raise exc

    def _stop_flusher(self) -> None:
        self._flusher_stop = True
        self._flush_wakeup.set()
        thread = self._flusher_thread
        if thread is not None:
            thread.join(timeout=10.0)

    def rollback(self) -> None:
        """Discard every change since the last commit point.

        Only meaningful inside a :meth:`transaction`, where uncommitted
        node pages are still held dirty in the pager: they are dropped
        unwritten, the tree metadata reverts to its snapshot, record
        slots filled since the commit point are freed and deferred frees
        are forgotten.
        """
        with self.lock.write_locked():
            # checked under the lock: a foreign thread reaching here after
            # the owning transaction ended must get the error, not a
            # rollback against a stale (or None) snapshot
            if self._txn_snapshot is None:
                raise StorageError("rollback outside a transaction")
            self.tree.pager.discard_dirty()
            self.tree.restore_state(self._txn_snapshot)
            for record_id in self._txn_record_puts:
                self.records.delete(record_id)
            self._txn_record_puts = []
            self._txn_record_deletes = []
            self.has_uncommitted_changes = False  # back at the commit point
            self._txn_snapshot = self.tree.snapshot_state()

    @contextmanager
    def transaction(self) -> Iterator["EncipheredDatabase"]:
        """Scope whose mutations commit together -- or not at all.

        On entry the node pager switches to write-back with dirty pages
        pinned (they may exceed the cache bound until the scope ends), so
        nothing the scope writes reaches the platter early.  A clean exit
        commits: one superblock rewrite, one flush of each distinct dirty
        node.  An exception rolls everything back and re-raises.

        Blocks allocated by the scope and then rolled back are leaked on
        the simulated disk (never referenced again) -- space, not
        correctness.  Transactions do not nest.

        The write lock is held for the whole scope: a transaction is one
        logical write, so readers wait for its commit (or rollback) and
        can never see its intermediate states.
        """
        with self.lock.write_locked():
            if self._in_txn:
                raise StorageError("transactions do not nest")
            pager = self.tree.pager
            # pre-transaction dirt must reach the disk first: rollback
            # discards every dirty page, and pages written before this scope
            # are not ours to throw away
            pager.flush()
            saved_mode = (pager.write_back, pager.retain_dirty)
            pager.write_back = True
            pager.retain_dirty = True
            self._in_txn = True
            self._txn_snapshot = self.tree.snapshot_state()
            self._txn_record_puts = []
            self._txn_record_deletes = []
            try:
                yield self
            except BaseException:
                self.rollback()
                raise
            else:
                self.commit()
            finally:
                self._in_txn = False
                self._txn_snapshot = None
                pager.write_back, pager.retain_dirty = saved_mode
                pager.flush()  # restoring write-through must not strand dirt

    def _after_mutation(self) -> None:
        self.has_uncommitted_changes = True
        if self.autocommit and not self._in_txn:
            self.commit()

    # -- record operations (superblock kept current) -----------------------

    def insert(self, key: int, record: bytes) -> None:
        obs = self.obs
        span = obs.trace("db.put")
        with span:
            with self.lock.write_locked():
                record_id = self.records.put(record)
                try:
                    self.tree.insert(key, record_id)
                except Exception:
                    self.records.delete(record_id)
                    raise
                if self._in_txn:
                    self._txn_record_puts.append(record_id)
                self._after_mutation()
        if obs.enabled:
            obs.heat.note_op((key,), span.duration_ns)

    def search(self, key: int) -> bytes:
        obs = self.obs
        span = obs.trace("db.get")
        with span:
            with self.lock.read_locked():
                record_id = self.tree.search(key)
                result = self.records.get(record_id)
        if obs.enabled:
            obs.heat.note_op((key,), span.duration_ns)
            obs.heat.note_blocks((record_id // self.records.slots_per_block,))
        return result

    def get(self, key: int, default: bytes | None = None) -> bytes | None:
        """Like :meth:`search`, but returns ``default`` for absent keys."""
        obs = self.obs
        span = obs.trace("db.get")
        record_id = None
        with span:
            with self.lock.read_locked():
                try:
                    record_id = self.tree.search(key)
                except KeyNotFoundError:
                    result = default
                else:
                    result = self.records.get(record_id)
        if obs.enabled:
            obs.heat.note_op((key,), span.duration_ns)
            if record_id is not None:
                obs.heat.note_blocks((record_id // self.records.slots_per_block,))
        return result

    def __contains__(self, key: int) -> bool:
        with self.lock.read_locked():
            return self.tree.contains(key)

    def delete(self, key: int) -> None:
        obs = self.obs
        span = obs.trace("db.delete")
        try:
            with span:
                with self.lock.write_locked():
                    record_id = self.tree.search(key)
                    self.tree.delete(key)
                    if self._in_txn:
                        # defer the slot free: rollback must still find the bytes
                        self._txn_record_deletes.append(record_id)
                        self.has_uncommitted_changes = True
                        return
                    try:
                        self.records.delete(record_id)
                    finally:
                        # the index changed even if the slot free failed: the
                        # superblock must reflect the tree or reopen() rejects the
                        # database (the slot merely leaks until a later reuse)
                        self._after_mutation()
        finally:
            if obs.enabled:
                obs.heat.note_op((key,), span.duration_ns)

    def bulk_load(self, items: Iterable[tuple[int, bytes]]) -> None:
        """Ingest ``(key, record)`` pairs via the bottom-up tree build.

        Orders of magnitude fewer cipher operations and disk writes than
        per-key insertion: each node is enciphered and written once, and
        so is each record block (:meth:`RecordStore.put_many`).  Requires
        an empty database.  On failure the stored records are freed
        again and the empty database stays usable.
        """
        obs = self.obs
        span = obs.trace("db.bulk_load")
        with span:
            with self.lock.write_locked():
                items = list(items)
                record_ids = self.records.put_many(record for _, record in items)
                pairs = [(key, rid) for (key, _), rid in zip(items, record_ids)]
                try:
                    self.tree.bulk_load(pairs)
                except Exception:
                    for _, record_id in pairs:
                        self.records.delete(record_id)
                    raise
                if self._in_txn:
                    self._txn_record_puts.extend(record_id for _, record_id in pairs)
                self._after_mutation()
        if obs.enabled:
            obs.heat.note_op([key for key, _ in pairs], span.duration_ns)

    def _in_txn_owner(self) -> bool:
        """True iff the *calling thread* owns an open transaction scope.

        A batch may only join an enclosing transaction it actually owns:
        a foreign thread observing ``_in_txn`` is merely racing someone
        else's scope, and must open its own transaction (blocking on the
        write lock) to keep its all-or-nothing guarantee.  While a
        transaction is open its owner holds the write lock exclusively,
        so "this thread holds a side of the lock" identifies the owner
        exactly.
        """
        return self._in_txn and self.lock.held_by_current_thread()

    def put_many(self, items: Iterable[tuple[int, bytes]]) -> int:
        """Insert a batch of ``(key, record)`` pairs as one atomic unit.

        One write-lock acquisition and one commit for the whole batch --
        the superblock is re-enciphered once instead of once per key, so
        a burst of k writes costs one commit's worth of overhead (and,
        under the cluster's process executor, one replica delta instead
        of k).  Runs inside :meth:`transaction` semantics: a failure
        (duplicate key, oversized record) rolls the whole batch back.
        Called inside an enclosing transaction, the batch simply joins
        it -- the outer scope owns atomicity and the commit point.
        Returns the number of pairs inserted.
        """
        pairs = list(items)
        # span only: the per-key inserts below carry the heat notes, so
        # the batch wrapper never double-counts key touches
        with self.obs.trace("db.put_many"):
            if self._in_txn_owner():
                for key, record in pairs:
                    self.insert(key, record)
                return len(pairs)
            with self.transaction():
                for key, record in pairs:
                    self.insert(key, record)
            return len(pairs)

    def delete_many(self, keys: Iterable[int]) -> int:
        """Delete a batch of keys as one atomic unit (see :meth:`put_many`).

        A missing key raises :class:`KeyNotFoundError` and rolls back
        the whole batch.  Returns the number of keys deleted.
        """
        key_list = list(keys)
        with self.obs.trace("db.delete_many"):
            if self._in_txn_owner():
                for key in key_list:
                    self.delete(key)
                return len(key_list)
            with self.transaction():
                for key in key_list:
                    self.delete(key)
            return len(key_list)

    def range_search(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        obs = self.obs
        span = obs.trace("db.range_search")
        with span:
            with self.lock.read_locked():
                matches = self.tree.range_search(lo, hi)
                if (
                    matches
                    and self.tree.pager.readahead_workers > 0
                    and self.records.cache.enabled
                ):
                    # one batched device round trip for every record
                    # block the gets below will touch; each uncached
                    # block is deciphered exactly once, the same count
                    # the cache-enabled serial path pays
                    spb = self.records.slots_per_block
                    self.records.warm_blocks(
                        sorted({record_id // spb for _, record_id in matches})
                    )
                result = [
                    (key, self.records.get(record_id)) for key, record_id in matches
                ]
        if obs.enabled:
            obs.heat.note_op([key for key, _ in matches], span.duration_ns)
            spb = self.records.slots_per_block
            obs.heat.note_blocks({record_id // spb for _, record_id in matches})
        return result

    def items(self) -> Iterator[tuple[int, bytes]]:
        """Every ``(key, record)`` pair in ascending key order.

        Delegates to :meth:`BTree.items`; the read lock is held while the
        iterator is live, so consume it promptly in concurrent settings.
        """
        with self.lock.read_locked():
            for key, record_id in self.tree.items():
                yield key, self.records.get(record_id)

    def __len__(self) -> int:
        with self.lock.read_locked():
            return self.tree.size

    # -- incremental replica sync ----------------------------------------

    def seal_changes(self, epoch: int) -> None:
        """Close every change journal's open set under ``epoch``.

        Called by the owner of the epoch counter (the cluster) right
        after it bumps the epoch for a committed mutation; the sealed
        sets are what :meth:`collect_delta` serves to replica consumers.
        """
        self.disk.journal.seal(epoch)
        self.records.seal_changes(epoch)

    def truncate_journals(self, epoch: int) -> None:
        """The replica consumer holds a full snapshot at ``epoch``."""
        self.disk.journal.truncate(epoch)
        self.records.truncate_journals(epoch)

    @property
    def has_unsealed_changes(self) -> bool:
        """True when committed platter bytes changed since the last seal.

        No-op commits rewrite the superblock with identical ciphertext
        and are journal-invisible, so this is a *bytes-changed* test,
        not a *commit-happened* test -- the distinction that lets the
        cluster skip epoch bumps (and replica re-syncs) for rolled-back
        and no-op transactions.
        """
        return (
            self.disk.journal.has_open
            or self.records.has_unsealed_changes
        )

    def collect_delta(self, since_epoch: int, epoch: int) -> ShardDelta | None:
        """Changes a replica at ``since_epoch`` needs to reach ``epoch``.

        Returns ``None`` when no delta can be served -- journals
        truncated past the consumer's epoch, or uncommitted state
        (dirty pages, stale superblock) making the platter
        non-authoritative -- in which case the consumer falls back to a
        full state ship.  Runs under the read lock: writers are held
        off, so the node delta, record delta and tree metadata describe
        one consistent committed state.
        """
        with self.lock.read_locked():
            if self.has_uncommitted_changes:
                return None
            if self.has_unsealed_changes:
                # committed bytes not yet sealed under any epoch (a
                # sibling writer between its commit and its seal, or a
                # rollback's freed slots): the tree metadata below would
                # describe blocks the sealed history cannot ship.  A
                # full ship -- one consistent platter snapshot -- serves
                # this sync instead.
                return None
            node = self.tree.pager.collect_delta(since_epoch)
            if node is None:
                return None
            records = self.records.collect_delta(since_epoch)
            if records is None:
                return None
            return ShardDelta(
                index=-1,  # stamped by the executor that owns shard ids
                epoch=epoch,
                node=node,
                records=records,
                tree_state=self.tree.snapshot_state(),
            )

    def apply_delta(self, delta: ShardDelta) -> None:
        """Catch a replica up in place (the consumer half of collect).

        A pure state transfer: at-rest bytes are patched below both
        ciphers, the tree metadata is installed directly, and every
        cache level drops exactly the blocks the delta replaced -- no
        cipher operation, no disk I/O statistics, no counter movement.
        """
        with self.lock.write_locked():
            pager = self.tree.pager
            pager.discard_dirty()  # replicas hold no work worth keeping
            self.disk.patch_state(delta.node.num_blocks, delta.node.block_writes)
            for block_id in delta.node.block_writes:
                pager.invalidate(block_id)
            self.records.apply_delta(delta.records)
            self.tree.restore_state(delta.tree_state)
            self.has_uncommitted_changes = False

    # -- cross-process catch-up (durable-backend support) ----------------

    def reattach(self) -> dict[str, object]:
        """Catch this handle up with commits another process made.

        The journal-driven alternative to a wholesale cold reopen: both
        devices are polled for the block ids whose at-rest bytes moved,
        and only those ids are dropped from the read caches (raw pages,
        decoded node views, plaintext record blocks); the record store's
        slot metadata is repaired by deciphering just the changed
        blocks, and the superblock is re-read to adopt the new root and
        size.  When a device cannot prove completeness (its WAL was
        checkpointed past this handle), that side falls back to a
        wholesale invalidation -- correctness never depends on the
        delta.

        Reader-role semantics (single-writer discipline): this handle
        must have no uncommitted work of its own, and its tree free-list
        is reset -- reattached handles serve reads; the writing process
        owns allocation.  Returns ``{"node_blocks", "record_blocks",
        "wholesale"}`` describing what was invalidated.
        """
        with self.lock.write_locked():
            if self.has_uncommitted_changes or self._in_txn:
                raise StorageError(
                    "reattach on a handle with uncommitted work of its own"
                )
            pager = self.tree.pager
            node_changed = self.disk.poll()
            if node_changed is None:
                pager.clear_cache()
            else:
                for block_id in node_changed:
                    pager.invalidate(block_id)
            record_changed = self.records.reattach()
            root_id, min_degree, size = self._read_superblock(
                self.disk, self._super_key
            )
            if min_degree != self.tree.min_degree:
                raise IntegrityError(
                    f"superblock records min_degree {min_degree}, "
                    f"handle was built for {self.tree.min_degree}"
                )
            self.tree.restore_state((root_id, size, []))
            return {
                "node_blocks": len(node_changed) if node_changed is not None else None,
                "record_blocks": (
                    len(record_changed) if record_changed is not None else None
                ),
                "wholesale": node_changed is None or record_changed is None,
            }

    def close(self) -> None:
        """Commit pending work and release both devices' OS resources.

        A no-op beyond the commit for in-memory backends.  Do not call
        inside a :meth:`transaction` scope.  With observability enabled
        and a known backend the accumulated record-block heat is
        persisted on the way out, so the *next* open can warm the blocks
        this run proved hot.

        Idempotent: a second call returns immediately.  Hardened for
        degraded shutdowns (a crashed worker, an injected device fault):
        every resource -- flusher thread, readahead workers, file
        handles -- is released even when the final commit or the async
        flusher drain errors, and only then does the first such error
        propagate.  Close never wedges holding half the resources.
        """
        if self._db_closed:
            return
        self._db_closed = True
        if self._warm_thread is not None:
            # a background warm may still hold the read lock; wait it
            # out (bounded -- it is advisory) before tearing devices down
            self._warm_thread.join(timeout=10.0)
        first_error: BaseException | None = None
        try:
            if self.has_uncommitted_changes:
                self.commit()
            if self._group_commit:
                # drain staged-but-unflushed durability work (async mode)
                # and surface any error a background flush stashed
                self.wait_durable()
        except BaseException as exc:
            first_error = exc
        self._stop_flusher()
        try:
            self.tree.pager.close()  # readahead workers must not outlive devices
        except BaseException as exc:
            if first_error is None:
                first_error = exc
        if self._backend is not None and self.obs.enabled and first_error is None:
            try:
                self.save_heat()
            except StorageError:
                pass  # heat is advisory; closing must not fail over it
        for device in (self.records.disk, self.disk):
            try:
                device.close()
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    # -- persisted heat ---------------------------------------------------

    def _heat_cipher(self) -> CBCCipher:
        des = DES(self._super_key)
        return CBCCipher(des, des.encrypt_block(b"HEATMAP0"))

    def save_heat(self) -> bool:
        """Persist the record-block heat map beside the devices.

        Enciphered under the super key like the superblock -- the heat
        map is an access-pattern oracle, exactly what the enciphered
        database exists to deny an opponent.  Returns ``False`` when no
        backend is known, ``True`` after a save.
        """
        if self._backend is None:
            return False
        blocks = self.obs.heat.combined_blocks()
        payload = json.dumps(
            {
                "version": 1,
                "blocks": {str(k): v for k, v in sorted(blocks.items())},
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._backend.save_blob("heat", self._heat_cipher().encrypt(payload))
        return True

    def load_heat(self) -> dict[int, int] | None:
        """Adopt a persisted heat map as this handle's warming seed.

        Returns the seeded ``{block_id: count}`` map, ``None`` when no
        backend or no blob exists; raises :class:`IntegrityError` for a
        blob that does not decipher or parse (wrong key or corruption).
        """
        if self._backend is None:
            return None
        blob = self._backend.load_blob("heat")
        if blob is None:
            return None
        try:
            doc = json.loads(self._heat_cipher().decrypt(blob).decode("utf-8"))
            if doc["version"] != 1:
                raise ValueError(f"unknown heat version {doc['version']!r}")
            blocks = {int(k): int(v) for k, v in doc["blocks"].items()}
        except (CryptoError, ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise IntegrityError(f"heat blob does not decipher: {exc}") from exc
        self.obs.heat.seed_blocks(blocks)
        return blocks

    # -- caches ----------------------------------------------------------

    def warm(
        self,
        levels: int = 2,
        hot_record_blocks: int = 0,
        background: bool = False,
    ) -> int:
        """Pre-decode the root's top ``levels`` into the node caches.

        Closes part of the cold-reopen gap without waiting for organic
        traffic (benchmark C9 measured warm caches ~28x faster than
        cold).  The work is honest traversal work -- counted like any
        read -- and is additionally tallied under ``stats()``'s
        ``cache_warming`` so operators can see prefetch cost apart from
        serving cost.

        ``hot_record_blocks > 0`` additionally pre-decodes up to that
        many of the hottest record blocks known to the heat map
        (live traffic plus any persisted heat adopted at reopen) into
        the record cache.  Returns the total number of nodes and record
        blocks touched.

        ``background=True`` runs the same warm on a daemon thread and
        returns 0 immediately: a reopen can start serving at once while
        the prefetch fills caches behind it.  The thread takes the
        ordinary read lock, so it interleaves with readers and yields to
        writers like any traversal; progress is visible in
        ``stats()["cache_warming"]`` (``background_warms`` started,
        ``background_completed`` finished, plus the usual warmed
        counts).  The latest thread is kept on ``_warm_thread`` so tests
        and shutdown paths can ``join`` it.
        """
        if background:
            self.warming.bump("background_warms")

            def _run() -> None:
                try:
                    self._warm_locked(levels, hot_record_blocks)
                except BaseException:
                    # advisory work on an unjoined thread: a database
                    # closed mid-warm must not spew to stderr
                    self.warming.bump("background_failed")
                else:
                    self.warming.bump("background_completed")

            thread = threading.Thread(
                target=_run, name="repro-cache-warm", daemon=True
            )
            self._warm_thread = thread
            thread.start()
            return 0
        return self._warm_locked(levels, hot_record_blocks)

    def _warm_locked(self, levels: int, hot_record_blocks: int) -> int:
        with self.lock.read_locked():
            warmed = self.tree.warm(levels)
            warmed_blocks = 0
            if hot_record_blocks > 0:
                warmed_blocks = self.records.warm_blocks(
                    self.obs.heat.hot_blocks(hot_record_blocks)
                )
        self.warming.bump("nodes_warmed", warmed)
        if warmed_blocks:
            self.warming.bump("record_blocks_warmed", warmed_blocks)
        return warmed + warmed_blocks

    def cache_config(self) -> dict[str, int]:
        """Capacity (in blocks) of each read-path cache level."""
        return {
            "node_raw_blocks": self.tree.pager.capacity,
            "node_decoded_blocks": self.tree.pager.decoded.capacity,
            "node_decoded_max_bytes": self.tree.pager.decoded.max_bytes,
            "record_plaintext_blocks": self.records.cache.capacity,
        }

    def clear_caches(self) -> None:
        """Drop every cached page and plaintext block (cold-start support).

        Outside a transaction, dirty node pages are flushed first --
        clearing caches must never lose written data.  Inside a
        :meth:`transaction` scope flushing would push uncommitted pages
        past the rollback point, so only *clean* raw pages and the
        derived plaintext levels (decoded views, record slots) are
        dropped; uncommitted dirt stays pinned and discardable.  Either
        way the call is safe mid-workload.
        """
        with self.lock.write_locked():
            if self._in_txn:
                self.tree.pager.drop_clean_cache()
            else:
                self.tree.pager.clear_cache()
            self.records.clear_cache()

    def _make_cold(self) -> None:
        """Forget cache contents *and* cache statistics.

        Reopen support: the verification walks a reopen performs (tree
        size recovery, cluster routing validation) read through the
        caches like any traversal; this forgets both what they warmed
        and what they counted, so a reopened handle observes the same
        cold caches a process restart would.
        """
        pager = self.tree.pager
        pager.clear_cache()
        pager.reset_stats()
        self.records.clear_cache()
        self.records.cache.stats.reset()

    def stats(self) -> dict[str, object]:
        """Point-in-time rollup of every counter the database owns.

        One nesting level per subsystem; all leaves are numbers, so the
        cluster layer (and benchmark reporters) can aggregate dicts from
        many databases by summing leaf-wise.
        """
        with self.lock.read_locked():
            disk, rdisk = self.disk.stats, self.records.disk.stats
            pager = self.tree.pager.stats
            return {
                "size": self.tree.size,
                "node_disk": {
                    "reads": disk.reads,
                    "writes": disk.writes,
                    "overwrites": disk.overwrites,
                    "bytes_read": disk.bytes_read,
                    "bytes_written": disk.bytes_written,
                    "read_time_s": disk.read_time_s,
                    "write_time_s": disk.write_time_s,
                    "fsyncs": disk.fsyncs,
                    "header_flips": disk.header_flips,
                },
                "record_disk": {
                    "reads": rdisk.reads,
                    "writes": rdisk.writes,
                    "overwrites": rdisk.overwrites,
                    "bytes_read": rdisk.bytes_read,
                    "bytes_written": rdisk.bytes_written,
                    "read_time_s": rdisk.read_time_s,
                    "write_time_s": rdisk.write_time_s,
                    "fsyncs": rdisk.fsyncs,
                    "header_flips": rdisk.header_flips,
                },
                "pager": {
                    "hits": pager.hits,
                    "misses": pager.misses,
                    "write_requests": pager.write_requests,
                    "disk_writes": pager.disk_writes,
                    "dirty_evictions": pager.dirty_evictions,
                    "readaheads": pager.readaheads,
                    "readahead_loads": pager.readahead_loads,
                    "readahead_drops": pager.readahead_drops,
                },
                "commit_group": {
                    "rounds": self._commit_group.rounds,
                    "joins": self._commit_group.joins,
                    "async_flushes": self._async_flushes,
                },
                "cipher_kernel": kernel_decisions_snapshot(),
                "durability": {
                    "node": self.disk.durability_snapshot(),
                    "records": self.records.disk.durability_snapshot(),
                },
                # injected-fault and retry accounting (PR 10); all-zero
                # -- but present and same-shaped, for the leaf-wise
                # cluster merge -- when no fault plan is armed
                "faults": {
                    "node": self.disk.fault_snapshot(),
                    "records": self.records.disk.fault_snapshot(),
                },
                "record_cipher": self.records.cipher_counts.snapshot(),
                "record_cache": self.records.cache.stats.snapshot(),
                "cache_warming": self.warming.snapshot(),
                # bytes_cached is a gauge (current footprint under the
                # byte budget), reported beside the cache's counters
                "node_decoded_cache": {
                    **self.tree.pager.decoded.stats.snapshot(),
                    "bytes_cached": self.tree.pager.decoded.total_bytes,
                },
                "pointer_cipher": {
                    "encryptions": self.pointer_cipher.counts.encryptions,
                    "decryptions": self.pointer_cipher.counts.decryptions,
                },
                "substitution": {
                    "substitutions": self.substitution.counters.substitutions,
                    "inversions": self.substitution.counters.inversions,
                },
                "tree": {
                    "comparisons": self.tree.counters.comparisons,
                    "nodes_visited": self.tree.counters.nodes_visited,
                    "splits": self.tree.counters.splits,
                    "merges": self.tree.counters.merges,
                    "borrows": self.tree.counters.borrows,
                },
                # latency histograms + key-range heat; every leaf is an
                # additive number, so worker deltas harvest and cluster
                # rollups merge exactly like the counters above
                "observability": self.obs.snapshot(),
            }
