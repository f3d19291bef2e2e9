"""A self-contained enciphered database: superblock + index + records.

A real deployment must survive a restart from the platter alone, so
**block 0 is a superblock** that describes its store (see
:func:`_superblock_head`), enciphered under the superblock key like any
other block: an opponent cannot even read the geometry, and a magic tag
authenticates the key.

``create`` builds a fresh database; ``reopen_from_backend`` reconstructs
a working handle from the storage backend and the secret material
alone, verifying the B-Tree invariants on the way up.  Every database
lives on a :class:`~repro.storage.backend.StorageBackend`; without one,
``create`` opens its devices on a fresh
:class:`~repro.storage.backend.MemoryBackend`, so a caller that will
reopen an in-memory database creates and holds that backend itself.

Node layouts
------------

The node codec is the engine's one layout parameter.  By default it is
the paper's :class:`~repro.core.codecs.SubstitutedNodeCodec` over the
given ``substitution`` and ``pointer_cipher``; passing ``codec=`` swaps
in another layout -- the Bayer--Metzger baselines
(:class:`~repro.core.codecs.PageKeyNodeCodec`,
:class:`~repro.core.codecs.WholePageNodeCodec`) or an ablated
substituted codec -- with the superblock, pager, record store, commit
path and ``stats()`` unchanged.  A caller-built codec meters itself: the
``pointer_cipher`` and ``substitution`` sections of ``stats()`` count
only what the codec routes through those two objects (a page-key codec
keeps its own ``triplet_counts``/``block_counts``).

Commits and transactions
------------------------

By default the database *autocommits*: every ``insert``/``delete``
re-enciphers the superblock and the write-through pager pushes each
dirty node block to disk immediately.  That is the mode the paper's
experiments must use -- C1/C3 charge every node rewrite its disk write,
and the per-operation cipher counts assume no batching.

For ingest-style workloads the hot path can amortise that cost:

* :meth:`EncipheredDatabase.transaction` -- the one place the pager
  runs write-back -- defers the superblock rewrite and every dirty node
  block to a single :meth:`commit` at scope exit, so repeated rewrites
  of a hot block coalesce, and rolls the index back (discarding the
  dirty pages) if the block raises;
* :meth:`EncipheredDatabase.bulk_load` builds the index bottom-up,
  writing and enciphering each node exactly once.

Deferral always happens *below* the node codec: pointer-cipher and
substitution counts are identical across modes, only disk-write counts
change (benchmark C7 reports both).

Read-path caches
----------------

Two cache levels, both in memory:

* ``cache_blocks`` -- the node pager's raw block cache (default 16).
  It saves disk reads only: every node visit still decodes its block
  and pays its substitution inversions and pointer decryptions, as the
  paper's cost model charges;
* ``record_cache_blocks`` -- the one opt-in plaintext cache (off by
  default, keeping every cipher count on the paper's cost model): the
  record store caches deciphered slot blocks, so ``get``/``range_search``
  decipher each data block once per residency instead of once per
  matching record.

Invalidation is wired through every mutation path: ``put``/``delete``
refresh the record cache in the same step as the platter write, and a
transaction rollback discards the dirty node pages -- cached bytes can
never outlive the write they came from.  The record cache changes
*plaintext-side* work only; ciphertext traffic is byte-identical with it
on or off (benchmark C9 asserts both properties).
:meth:`EncipheredDatabase.stats` reports each level's hit/miss counters
and :meth:`EncipheredDatabase.clear_caches` forces a cold start.

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

from contextlib import ExitStack, contextmanager
from typing import Iterable, Iterator

from repro.btree.codec import NodeCodec
from repro.btree.tree import BTree
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.packing import PointerPacking
from repro.core.records import RecordStore
from repro.crypto.base import CountingCipher, IntegerCipher
from repro.crypto.des import DES
from repro.crypto.modes import CBCCipher
from repro.exceptions import CryptoError, IntegrityError, KeyNotFoundError, StorageError
from repro.obs import ObsConfig, Observability
from repro.storage.backend import MemoryBackend, StorageBackend
from repro.storage.device import BlockDevice
from repro.storage.pager import Pager
from repro.storage.rwlock import ReadWriteLock
from repro.substitution.base import KeySubstitution

_MAGIC = b"HSBT1990"
_VERSION = 2  # the first format carried none


def _superblock_head(codec: NodeCodec, data_key: bytes, record_size: int) -> bytes:
    """The superblock's first 24 bytes, which a store's secrets and geometry fix.

    Magic 8, version 1, codec tag 1, record size 2, data-key check 4
    (a fixed block under the record cipher's key) and codec check 8;
    root id 4, minimum degree 2 and key count 4 follow.  Computed once
    per handle with uncounted primitives, so no cipher count moves.
    """
    return (
        _MAGIC
        + bytes((_VERSION, codec.tag))
        + record_size.to_bytes(2, "big")
        + DES(data_key).encrypt_block(b"DATA-KEY")[:4]
        + codec.check_value()
    )


def _counting(pointer_cipher: IntegerCipher) -> CountingCipher:
    """Wrap a cipher for operation counting exactly once.

    An already-counting cipher is reused as-is; wrapping it again would
    split the C1/C3 tallies across two layers.
    """
    if isinstance(pointer_cipher, CountingCipher):
        return pointer_cipher
    return CountingCipher(pointer_cipher)


class EncipheredDatabase:
    """Durable engine: everything needed to reopen lives on the disks."""

    def __init__(
        self,
        substitution: KeySubstitution,
        pointer_cipher: IntegerCipher,
        disk: BlockDevice,
        records: RecordStore,
        super_key: bytes,
        super_head: bytes,
        tree: BTree,
        autocommit: bool = True,
        observability: ObsConfig | None = None,
    ) -> None:
        self.substitution = substitution
        self.pointer_cipher = _counting(pointer_cipher)
        self.disk = disk
        self.records = records
        #: The superblock's cipher and head, derived once per handle:
        #: every commit rewrites the superblock under the write lock.
        self._super = self._super_cipher(super_key)
        self._super_head = super_head
        self.tree = tree
        #: The observability plane: latency histograms fed by span
        #: tracing behind one switch (see :mod:`repro.obs`).  The
        #: database threads its tracer through every layer it owns, so a
        #: bare ``Pager``/device built elsewhere keeps the shared
        #: disabled tracer while ours records.
        self.obs = Observability(observability)
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
        #: :meth:`commit` and :meth:`close` consult it.
        self.has_uncommitted_changes = False
        self._in_txn = False
        self._txn_record_puts: list[int] = []
        self._txn_record_deletes: list[int] = []
        self._txn_snapshot: tuple[int, int, list[int]] | None = None
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
            self._super_head
            + self.tree.root_id.to_bytes(4, "big")
            + self.tree.min_degree.to_bytes(2, "big")
            + self.tree.size.to_bytes(4, "big")
        )
        self.disk.write_block(0, self._super.encrypt(payload))

    @classmethod
    def _read_superblock(cls, disk: BlockDevice, super_key: bytes) -> tuple[bytes, int, int, int]:
        """``(head, root_id, min_degree, size)``; checks the key and version."""
        try:
            payload = cls._super_cipher(super_key).decrypt(disk.read_block(0))
        except CryptoError as exc:
            # a wrong key surfaces as a padding/length failure; anything
            # else (I/O errors, programming errors) must propagate as-is
            raise IntegrityError(f"superblock does not decipher: {exc}") from exc
        if payload[:8] != _MAGIC:
            raise IntegrityError("superblock magic mismatch: wrong superblock key?")
        if len(payload) != 34 or payload[8] != _VERSION:
            raise IntegrityError(f"superblock is not format version {_VERSION}")
        root_id = int.from_bytes(payload[24:28], "big")
        min_degree = int.from_bytes(payload[28:30], "big")
        size = int.from_bytes(payload[30:34], "big")
        return payload[:24], root_id, min_degree, size

    @staticmethod
    def _check_head(head: bytes, codec: NodeCodec, data_key: bytes) -> None:
        """Refuse a codec or data key the superblock's head does not record."""
        expected = _superblock_head(codec, data_key, int.from_bytes(head[10:12], "big"))
        for wrong, lo, hi in (("codec", 9, 10), ("data_key", 12, 16),
                              ("codec secrets or layout", 16, 24)):
            if head[lo:hi] != expected[lo:hi]:
                raise IntegrityError(f"superblock check failed: wrong {wrong}")

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
        autocommit: bool = True,
        record_cache_blocks: int = 0,
        backend: StorageBackend | None = None,
        observability: ObsConfig | None = None,
        codec: NodeCodec | None = None,
    ) -> "EncipheredDatabase":
        """Initialise a fresh database (block 0 reserved for the superblock).

        ``codec`` is the node layout (see the module docstring); omitted,
        it is the paper's substituted codec over ``substitution`` and
        ``pointer_cipher``.

        ``record_cache_blocks`` sizes the plaintext record-block cache;
        it defaults to ``0`` -- off -- which keeps every cipher-operation
        count on the paper's cost model.

        ``backend`` selects where the two block devices live (``None``
        opens them on a fresh :class:`~repro.storage.backend.MemoryBackend`;
        pass one you hold to :meth:`reopen_from_backend` later): devices
        are opened as ``"node"`` and ``"records"``, created fresh.  On a
        durable backend every :meth:`commit` additionally syncs both
        devices -- records first, node last, so the node device's
        superblock (the authority a reopen trusts) is the commit point:
        a crash between the two syncs merely leaks record slots that no
        committed index entry references.  The syncs run under the read
        lock, so concurrent explicit commits share WAL frames (see
        :meth:`commit`).
        """
        if backend is None:
            backend = MemoryBackend()
        counting = _counting(pointer_cipher)
        if codec is None:
            codec = SubstitutedNodeCodec(substitution, counting, PointerPacking())
        head = _superblock_head(codec, data_key, record_size)
        disk = backend.open_device("node", block_size=block_size, create=True)
        reserved = disk.allocate()
        if reserved != 0:
            raise StorageError("superblock must be block 0")
        pager = Pager(disk, cache_blocks=cache_blocks)
        tree = BTree(pager=pager, codec=codec, min_degree=min_degree)
        records = RecordStore(data_key, record_size=record_size,
                              block_size=block_size,
                              cache_blocks=record_cache_blocks,
                              backend=backend,
                              create=True)
        db = cls(substitution, counting, disk, records, super_key, head, tree,
                 autocommit=autocommit, observability=observability)
        db.commit()  # superblock + the fresh root reach the platter
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
        cache_blocks: int = 16,
        autocommit: bool = True,
        record_cache_blocks: int = 0,
        observability: ObsConfig | None = None,
        codec: NodeCodec | None = None,
    ) -> "EncipheredDatabase":
        """Reopen a database from its backend and the secrets alone.

        The crash-recovery entry point: opening the node device replays
        any write-ahead-log frames a crash left logged-but-unapplied;
        the superblock authenticates ``super_key``, the codec and
        ``data_key`` -- a wrong one raises :class:`IntegrityError` before
        any record block is deciphered -- and gives ``record_size`` (the
        device gives the block size); the record store rebuilds its slot
        metadata by scanning (the platter carries no metadata records),
        and the index is verified from the recovered superblock.
        ``codec`` must be the layout the database was created with (a
        page-key codec carries the file key, a secret).

        Every cache starts cold, as after a process restart; the
        capacities are this call's ``cache_blocks`` and
        ``record_cache_blocks``.  A device has one live handle: close
        the one that wrote the store first.  A failed reopen releases
        the devices it opened.
        """
        counting = _counting(pointer_cipher)
        if codec is None:
            codec = SubstitutedNodeCodec(substitution, counting, PointerPacking())
        with ExitStack() as opened:
            disk = backend.open_device("node", create=False)
            opened.callback(disk.close)
            head, root_id, min_degree, size = cls._read_superblock(disk, super_key)
            cls._check_head(head, codec, data_key)
            records = RecordStore(data_key,
                                  record_size=int.from_bytes(head[10:12], "big"),
                                  block_size=disk.block_size,
                                  cache_blocks=record_cache_blocks,
                                  backend=backend, create=False)
            opened.callback(records.disk.close)
            records.recover_metadata()
            pager = Pager(disk, cache_blocks=cache_blocks)
            tree = BTree.attach(pager, codec, root_id, min_degree=min_degree)
            if tree.size != size:
                raise IntegrityError(
                    f"superblock records {size} keys, tree holds {tree.size}"
                )
            db = cls(substitution, counting, disk, records, super_key, head, tree,
                     autocommit=autocommit, observability=observability)
            db._make_cold()  # attach's verification walk must not pre-warm
            opened.pop_all()
        return db

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
                self._free_record_slots(self._txn_record_deletes)
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
                self.sync_devices()

    def _free_record_slots(self, record_ids: list[int]) -> None:
        """Free the listed record slots in order, emptying the list.

        Each id leaves the list as soon as its slot is freed, so after a
        failed free the list holds exactly the ids still to free, and a
        retried commit or rollback never frees a slot twice.
        """
        done = 0
        try:
            for record_id in record_ids:
                self.records.delete(record_id)
                done += 1
        finally:
            del record_ids[:done]

    def sync_devices(self) -> None:
        """Sync both devices in commit order: records, then nodes.

        The node sync carries the superblock, so it is the commit point;
        :meth:`commit` ends here.  On failure ``has_uncommitted_changes``
        is set, so :meth:`close` and the next commit retry.
        """
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
            self._free_record_slots(self._txn_record_puts)
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
            # dirt a failed commit left behind must reach the disk first:
            # rollback discards every dirty page, and pages written before
            # this scope are not ours to throw away
            pager.flush()
            pager.write_back = pager.retain_dirty = True
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
                pager.write_back = pager.retain_dirty = False
                pager.flush()  # restoring write-through must not strand dirt

    def _after_mutation(self) -> None:
        self.has_uncommitted_changes = True
        if self.autocommit and not self._in_txn:
            self.commit()

    # -- record operations (superblock kept current) -----------------------

    def insert(self, key: int, record: bytes) -> None:
        with self.obs.trace("db.put"):
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

    def search(self, key: int) -> bytes:
        with self.obs.trace("db.get"):
            with self.lock.read_locked():
                record_id = self.tree.search(key)
                return self.records.get(record_id)

    def get(self, key: int, default: bytes | None = None) -> bytes | None:
        """Like :meth:`search`, but returns ``default`` for absent keys."""
        with self.obs.trace("db.get"):
            with self.lock.read_locked():
                try:
                    record_id = self.tree.search(key)
                except KeyNotFoundError:
                    return default
                return self.records.get(record_id)

    def __contains__(self, key: int) -> bool:
        with self.lock.read_locked():
            return self.tree.contains(key)

    def delete(self, key: int) -> None:
        """Remove ``key`` and free its record slot, in one tree descent.

        A delete that raises books the mutation only if its descent
        wrote a node or moved the root or size: the descent for an
        absent key may rebalance before it raises, and the superblock
        must follow the tree, but one that reshaped nothing commits
        nothing.  A transaction defers the slot free to its commit, so
        a rollback still finds the record's bytes.
        """
        with self.obs.trace("db.delete"):
            with self.lock.write_locked():
                tree = self.tree
                root_id, size = tree.root_id, tree.size
                tree.wrote_node = False
                try:
                    record_id = tree.delete(key)
                except BaseException:
                    if tree.wrote_node or (tree.root_id, tree.size) != (root_id, size):
                        self._after_mutation()
                    raise
                try:
                    if self._in_txn:
                        self._txn_record_deletes.append(record_id)
                    else:
                        self.records.delete(record_id)  # a failed free leaks the slot
                finally:
                    self._after_mutation()

    def bulk_load(self, items: Iterable[tuple[int, bytes]]) -> None:
        """Ingest ``(key, record)`` pairs via the bottom-up tree build.

        Orders of magnitude fewer cipher operations and disk writes than
        per-key insertion: each node is enciphered and written once, and
        so is each record block (:meth:`RecordStore.put_many`).  Requires
        an empty database.  On failure the stored records are freed
        again and the empty database stays usable.
        """
        with self.obs.trace("db.bulk_load"):
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
        a burst of k writes costs one commit's worth of overhead.  Runs
        inside :meth:`transaction` semantics: a failure (duplicate key,
        oversized record) rolls the whole batch back.
        Called inside an enclosing transaction, the batch simply joins
        it -- the outer scope owns atomicity and the commit point.
        Returns the number of pairs inserted.
        """
        pairs = list(items)
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
        with self.obs.trace("db.range_search"):
            with self.lock.read_locked():
                matches = self.tree.range_search(lo, hi)
                # every match's slot window in one device batch and one
                # bulk decipher; counts equal a get per match
                records = self.records.get_many(rid for _, rid in matches)
                return [(key, record) for (key, _), record in zip(matches, records)]

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

    def close(self) -> None:
        """Commit pending work; release both devices' OS resources.

        Either backend may then open the devices again.  Do not call
        inside a :meth:`transaction` scope.

        Idempotent: a second call returns immediately.  Hardened for
        degraded shutdowns (an injected device fault):
        every file handle is released even when the final commit errors,
        and only then does the first such error propagate.  Close never
        wedges holding half the resources.
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
        for device in (self.records.disk, self.disk):
            try:
                device.close()
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    # -- caches ----------------------------------------------------------

    def cache_config(self) -> dict[str, int]:
        """Capacity (in blocks) of each read-path cache level."""
        return {
            "node_raw_blocks": self.tree.pager.capacity,
            "record_plaintext_blocks": self.records.cache.capacity,
        }

    def clear_caches(self) -> None:
        """Drop every cached page and plaintext block (cold-start support).

        Outside a transaction, dirty node pages are flushed first --
        clearing caches must never lose written data.  Inside a
        :meth:`transaction` scope flushing would push uncommitted pages
        past the rollback point, so only *clean* raw pages and the
        plaintext record slots are dropped; uncommitted dirt stays
        cached and discardable.  Either way the call is safe
        mid-workload.
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
        many databases by summing leaf-wise.  Each thread-safe counter
        family is read with one ``snapshot()``, so the fields of a
        section are merged together and cannot tear against a
        concurrent writer.
        """
        with self.lock.read_locked():
            disk, rdisk = self.disk.stats, self.records.disk.stats
            pager = self.tree.pager.stats.snapshot()
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
                    field: pager[field]
                    for field in ("hits", "misses", "write_requests",
                                  "disk_writes", "dirty_evictions")
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
                "pointer_cipher": self.pointer_cipher.counts.snapshot(),
                "substitution": self.substitution.counters.snapshot(),
                "tree": self.tree.counters.snapshot(),
                # latency histograms; every leaf is an additive number, so
                # cluster rollups merge them exactly like the counters above
                "observability": self.obs.snapshot(),
            }
