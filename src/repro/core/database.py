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
read side, mutations hold the write side exclusively, a :meth:`commit`
stages under the write side and syncs the devices under the read side,
and a :meth:`transaction` scope holds the write side end to end.  Combined with
the internally locked pager, caches and disks, interleaved reader threads
can never observe a torn superblock or a half-flushed node.  Operation
*counters* (tree comparisons, substitution tallies, cipher operations)
accumulate per-thread and merge on read
(:class:`~repro.counters.ThreadSafeCounters`), so concurrent workloads
report exact totals without a lock on any hot-path increment.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.btree.tree import BTree
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.packing import PointerPacking
from repro.core.records import RecordStore
from repro.counters import ThreadSafeCounters
from repro.crypto.base import CountingCipher, IntegerCipher
from repro.crypto.des import DES
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
    """Cache-warming work, counted separately from organic traffic."""

    _FIELDS = ("nodes_warmed",)


def _counting(pointer_cipher: IntegerCipher) -> CountingCipher:
    """Wrap a cipher for operation counting exactly once.

    An already-counting cipher is reused as-is; wrapping it again would
    split the C1/C3 tallies across two layers.
    """
    if isinstance(pointer_cipher, CountingCipher):
        return pointer_cipher
    return CountingCipher(pointer_cipher)


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
    ) -> None:
        self.substitution = substitution
        self.pointer_cipher = _counting(pointer_cipher)
        self.disk = disk
        self.records = records
        self._super_key = super_key
        #: The superblock's cipher, derived once per handle: every commit
        #: rewrites the superblock under the write lock.
        self._super = self._super_cipher(super_key)
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
        self.disk.write_block(0, self._super.encrypt(payload))

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
        backend: StorageBackend | None = None,
        observability: ObsConfig | None = None,
        readahead_workers: int = 0,
    ) -> "EncipheredDatabase":
        """Initialise a fresh database (block 0 reserved for the superblock).

        ``record_cache_blocks`` and ``decoded_node_cache_blocks`` size
        the two plaintext read caches (record slot blocks and decoded
        node views); both default to ``0`` -- off -- which keeps every
        cipher-operation count on the paper's cost model.

        ``backend`` selects where the two block devices live (``None``
        keeps the historical private in-memory disks): devices are
        opened as ``"node"`` and ``"records"``, created fresh.  On a
        durable backend every :meth:`commit` additionally syncs both
        devices -- records first, node last, so the node device's
        superblock (the authority a reopen trusts) is the commit point:
        a crash between the two syncs merely leaks record slots that no
        committed index entry references.  The syncs run under the read
        lock, so concurrent explicit commits share WAL frames (see
        :meth:`commit`).

        ``readahead_workers`` sizes the pager's asynchronous prefetch
        pool (``0`` -- off -- keeps the blocking read path and the
        paper's I/O accounting untouched).
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
                      readahead_workers=readahead_workers)
        tree = BTree(pager=pager, codec=codec, min_degree=min_degree)
        records = RecordStore(data_key, record_size=record_size,
                              block_size=block_size,
                              cache_blocks=record_cache_blocks,
                              backend=backend,
                              create=True if backend is not None else None)
        db = cls(substitution, counting, disk, records, super_key, tree,
                 autocommit=autocommit, observability=observability)
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
        observability: ObsConfig | None = None,
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
                      readahead_workers=readahead_workers)
        if record_cache_blocks is not None:
            records.cache.resize(record_cache_blocks)
        tree = BTree.attach(pager, codec, root_id, min_degree=min_degree)
        if tree.size != size:
            raise IntegrityError(
                f"superblock records {size} keys, tree holds {tree.size}"
            )
        db = cls(substitution, counting, disk, records, super_key, tree,
                 autocommit=autocommit, observability=observability)
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
        observability: ObsConfig | None = None,
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
        return cls.reopen(
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
            observability=observability,
            readahead_workers=readahead_workers,
        )

    # -- commit machinery ------------------------------------------------

    def commit(self) -> None:
        """Make every pending change durable.

        Two steps.  *Staging*, under the write lock: apply deferred
        record-slot frees, re-encipher the superblock and flush dirty
        node pages.  *Sync*, under the read lock: on a durable backend
        both devices sync, records first -- the node sync carries the
        authoritative superblock, so it is the commit point, and a crash
        between the syncs leaves only unreferenced (leaked) record
        slots, never a superblock pointing at missing data.  Inside a
        :meth:`transaction` this establishes a new rollback point.

        A caller that already holds the write lock (autocommit inside a
        mutation, a transaction scope) simply re-enters for the sync, so
        its commit stays one exclusive step.  Concurrent explicit
        committers coalesce for free: each device holds its own lock for
        the whole WAL protocol and clears its pending set only at the
        end, so one sync packs everything staged so far and a committer
        whose writes it covered finds nothing left to flush.  The tree
        cannot change under the read lock; if a write-through mutation
        under ``autocommit=False`` slipped in between the two steps, the
        superblock is re-staged first, so no WAL frame ever seals node
        blocks without the superblock that describes them.  A failed
        sync leaves ``has_uncommitted_changes`` set, so :meth:`close`
        retries it.
        """
        with self.obs.trace("db.commit"):
            with self.lock.write_locked():
                for record_id in self._txn_record_deletes:
                    self.records.delete(record_id)
                self._txn_record_deletes = []
                self._txn_record_puts = []
                self._write_superblock()
                self.tree.pager.flush()
                self.has_uncommitted_changes = False
                if self._in_txn:
                    self._txn_snapshot = self.tree.snapshot_state()
            with self.lock.read_locked():
                if self.has_uncommitted_changes:
                    self._write_superblock()
                    self.tree.pager.flush()
                    self.has_uncommitted_changes = False
                try:
                    self.records.disk.sync()
                    self.disk.sync()
                except BaseException:
                    # not durable: close() and the next commit must retry
                    self.has_uncommitted_changes = True
                    raise

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
        protected from eviction (they may exceed the cache bound until
        the scope ends), so nothing the scope writes reaches the platter
        early.  A clean exit commits: one superblock rewrite, one flush
        of each distinct dirty node.  An exception rolls everything back
        and re-raises.

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
        return result

    def get(self, key: int, default: bytes | None = None) -> bytes | None:
        """Like :meth:`search`, but returns ``default`` for absent keys."""
        obs = self.obs
        span = obs.trace("db.get")
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
                # every match's slot window in one device batch and one
                # bulk decipher; counts equal a get per match
                records = self.records.get_many(rid for _, rid in matches)
                result = [(key, record) for (key, _), record in zip(matches, records)]
        if obs.enabled:
            obs.heat.note_op([key for key, _ in matches], span.duration_ns)
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

    def close(self) -> None:
        """Commit pending work; release both devices' OS resources and the
        record cipher's round tables.

        For in-memory backends only the commit and the tables remain.  Do
        not call inside a :meth:`transaction` scope.

        Idempotent: a second call returns immediately.  Hardened for
        degraded shutdowns (a crashed worker, an injected device fault):
        every resource -- readahead workers, file handles -- is released
        even when the final commit errors, and only then does the first
        such error propagate.  Close never wedges holding half the resources.
        """
        if self._db_closed:
            return
        self._db_closed = True
        first_error: BaseException | None = None
        try:
            if self.has_uncommitted_changes:
                self.commit()
        except BaseException as exc:
            first_error = exc
        try:
            self.tree.pager.close()  # readahead workers must not outlive devices
        except BaseException as exc:
            if first_error is None:
                first_error = exc
        for device in (self.records.disk, self.disk):
            try:
                device.close()
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        # a closed handle enciphers nothing more: its 256 KiB of record
        # cipher round tables go now, not whenever the handle is collected
        self.records.release_cipher_tables()
        if first_error is not None:
            raise first_error

    # -- caches ----------------------------------------------------------

    def warm(self, levels: int = 2) -> int:
        """Pre-decode the root's top ``levels`` into the node caches.

        Closes part of the cold-reopen gap without waiting for organic
        traffic (benchmark C9 measured warm caches ~28x faster than
        cold).  The work is honest traversal work -- counted like any
        read -- and is additionally tallied under ``stats()``'s
        ``cache_warming`` so operators can see prefetch cost apart from
        serving cost.  Returns the number of nodes touched.
        """
        with self.lock.read_locked():
            warmed = self.tree.warm(levels)
        self.warming.bump("nodes_warmed", warmed)
        return warmed

    def cache_config(self) -> dict[str, int]:
        """Capacity (in blocks) of each read-path cache level."""
        return {
            "node_raw_blocks": self.tree.pager.capacity,
            "node_decoded_blocks": self.tree.pager.decoded.capacity,
            "record_plaintext_blocks": self.records.cache.capacity,
        }

    def clear_caches(self) -> None:
        """Drop every cached page and plaintext block (cold-start support).

        Outside a transaction, dirty node pages are flushed first --
        clearing caches must never lose written data.  Inside a
        :meth:`transaction` scope flushing would push uncommitted pages
        past the rollback point, so only *clean* raw pages and the
        derived plaintext levels (decoded views, record slots) are
        dropped; uncommitted dirt stays cached and discardable.  Either
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
                "node_decoded_cache": self.tree.pager.decoded.stats.snapshot(),
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
