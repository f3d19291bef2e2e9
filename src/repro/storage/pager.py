"""Block allocation and one raw block cache with two write policies.

The pager sits between the B-Tree and the block device (the in-memory
:class:`~repro.storage.disk.SimulatedDisk` or the durable
:class:`~repro.storage.platter.FilePlatter` -- any
:class:`~repro.storage.device.BlockDevice`).  Its cache is one
:class:`~repro.storage.cache.LRUCache` -- the caching primitive every
layer of the read path shares -- holding blocks in their
*post-transform* (i.e. still plain, the disk transform is below us) byte
form as returned by the disk read path.  Decoding a node -- which is
where the per-triplet cryptography lives -- always happens above the
pager, and :meth:`Pager.read_decoded` decodes on every call: a cache hit
saves disk I/O but never hides cryptographic cost, and no decrypted
pointer outlives the operation that decrypted it.  That separation keeps
the decryption counts of experiments C1/C3 faithful to the paper's
model, where every node *visit* pays its decryptions.

Two write policies are offered:

* **write-through** (the default): every :meth:`Pager.write` goes straight
  to the disk -- each node rewrite is a disk write, so a bare
  :class:`~repro.btree.tree.BTree` (the E-series figures, the plain and
  multilevel stores) reports I/O counts on the paper's per-operation
  cost model exactly.
* **write-back** (:attr:`Pager.write_back` raised, which a database
  transaction does for every mutation, a one-operation transaction
  included): writes only mark the cached copy dirty;
  bytes reach the disk when the block is evicted (evict-writes-dirty,
  via the raw cache's eviction callback), on :meth:`Pager.flush`, or
  never if :meth:`Pager.discard_dirty` drops them first.  Repeated
  rewrites of a hot block -- the superblock, a leaf absorbing a batch of
  inserts -- coalesce into one disk write, which is the amortisation a
  transactional commit layer builds on.  Deferral happens *below* the
  node codec, so cryptographic counts are identical in both modes; only
  disk-write counts change.

:class:`PagerStats` tracks both the read-side cache effectiveness and the
write-side amplification (logical write requests vs. blocks that actually
hit the platter), which benchmark C7 reports.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.counters import ThreadSafeCounters
from repro.obs.tracing import NULL_TRACER
from repro.storage.cache import LRUCache
from repro.storage.device import BlockDevice


class PagerStats(ThreadSafeCounters):
    """Cache-effectiveness and write-traffic counters.

    ``write_requests`` counts logical writes asked of the pager;
    ``disk_writes`` counts blocks the pager actually pushed to disk.  In
    write-through mode the two are equal; in write-back mode coalescing
    makes ``disk_writes`` the smaller number.

    Thread-safe (per-thread accumulation, merged reads), so a cache hit
    books itself without taking the pager's mutex.
    """

    _FIELDS = (
        "hits", "misses", "write_requests", "disk_writes", "dirty_evictions", "flushes"
    )

    @property
    def accesses(self) -> int:
        snap = self.snapshot()
        return snap["hits"] + snap["misses"]

    @property
    def hit_rate(self) -> float:
        snap = self.snapshot()
        accesses = snap["hits"] + snap["misses"]
        return snap["hits"] / accesses if accesses else 0.0

    @property
    def writes_deferred(self) -> int:
        """Logical writes that never became their own disk write."""
        snap = self.snapshot()
        return snap["write_requests"] - snap["disk_writes"]

    @property
    def write_amplification(self) -> float:
        """Disk writes per logical write (1.0 in write-through mode)."""
        snap = self.snapshot()
        requests = snap["write_requests"]
        return snap["disk_writes"] / requests if requests else 0.0


class Pager:
    """LRU block cache with write-through or write-back semantics.

    Parameters
    ----------
    disk:
        The underlying block device.
    cache_blocks:
        Raw-cache capacity in blocks; ``0`` disables raw caching, which
        the benchmarks use to measure cold-traversal costs.  (In
        write-back mode with no cache, every dirty page is evicted --
        and therefore written -- immediately, degenerating to
        write-through.)

    Attributes
    ----------
    write_back:
        ``False`` (the initial state) writes through to disk on every
        :meth:`write`; ``True`` defers writes to eviction or
        :meth:`flush`.  A database transaction raises it for its scope.
    retain_dirty:
        When ``True``, eviction never selects a dirty page -- including
        pages that were already dirty when the flag was raised -- so the
        raw cache may temporarily exceed ``cache_blocks``.  A transaction
        sets this so that uncommitted pages stay discardable for
        rollback; the bound is restored by the :meth:`flush` or
        :meth:`discard_dirty` that ends the transaction.
    """

    def __init__(
        self,
        disk: BlockDevice,
        cache_blocks: int = 64,
    ) -> None:
        self.disk = disk
        self.write_back = False
        self.retain_dirty = False
        self.stats = PagerStats()
        #: Span tracer for read/write/flush timing; defaults to the
        #: shared disabled tracer, replaced by the owning database.
        self.tracer = NULL_TRACER
        self._raw = LRUCache(
            cache_blocks,
            on_evict=self._write_if_dirty,
            # consulted at eviction time, so it protects pages that were
            # dirty before retain_dirty was raised, not just later writes
            may_evict=lambda b: not (self.retain_dirty and b in self._dirty),
            name="pager-raw",
            counted=False,  # PagerStats is the pager's one tally
        )
        self._dirty: set[int] = set()
        # Concurrent readers admitted by the database's reader--writer
        # lock still *mutate* the pager: a hit's LRU reorder is atomic
        # under the raw cache's own lock and its count lands in the
        # thread's stats bucket, while a fill on a miss (which may evict)
        # takes this mutex.  Reentrant because flush()/clear_cache() nest.
        self._lock = threading.RLock()

    def allocate(self) -> int:
        """Reserve a fresh block id."""
        return self.disk.allocate()

    @property
    def capacity(self) -> int:
        """Raw-cache capacity in blocks."""
        return self._raw.capacity

    @capacity.setter
    def capacity(self, cache_blocks: int) -> None:
        with self._lock:
            self._raw.resize(cache_blocks)

    @property
    def dirty_blocks(self) -> int:
        """Number of cached pages holding unwritten data."""
        with self._lock:
            return len(self._dirty)

    def read(self, block_id: int) -> bytes:
        """Read block bytes, consulting the raw cache first.

        In write-back mode the cache is authoritative: a dirty page is
        newer than the platter, so the cached copy is always returned.

        A hit takes only the raw cache's own lock and books itself in
        the thread's :class:`PagerStats` bucket; the pager's mutex guards
        only the fill.  It is *not* held across the disk read: the
        disk-level transform is where the cryptography happens, and
        concurrent readers missing on different blocks must be able to
        decipher in parallel.  Racing misses on the same block both read
        the platter; only the first fills the cache.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._read(block_id)
        with tracer.trace("pager.read"):
            return self._read(block_id)

    def _read(self, block_id: int) -> bytes:
        cached = self._raw.touch(block_id)
        if cached is not None:
            self.stats.bump("hits")
            return cached
        self.stats.bump("misses")
        data = self.disk.read_block(block_id)
        with self._lock:
            current = self._raw.peek(block_id)
            if current is not None:
                # a racing write (possibly dirty, newer than the
                # platter) or fill beat us; theirs is authoritative
                return current
            if self._raw.enabled:
                self._raw.put(block_id, data)
        return data

    def read_decoded(self, block_id: int, decode: Callable[[int, bytes], object]):
        """Read a block and decode it: ``decode(block_id, raw_bytes)``.

        The tree's one node-read entry point.  Every call decodes anew --
        the returned view (and whatever plaintext it decrypts) lives only
        as long as its caller holds it.  The decode runs outside every
        pager lock, exactly like the raw read path.
        """
        return decode(block_id, self.read(block_id))

    def write(self, block_id: int, data: bytes) -> None:
        """Write a block: through to disk, or into the dirty set."""
        with self.tracer.trace("pager.write"):
            with self._lock:
                self.stats.bump("write_requests")
                if self.write_back:
                    self._dirty.add(block_id)
                    # put() evicts over capacity, and eviction of a dirty
                    # page writes it (evict-writes-dirty) -- so with no
                    # cache at all this degenerates to write-through.
                    self._raw.put(block_id, data)
                else:
                    self.stats.bump("disk_writes")
                    self.disk.write_block(block_id, data)
                    if self._raw.enabled:
                        self._raw.put(block_id, data)

    def flush(self) -> int:
        """Write every dirty page to disk; returns the number written.

        A no-op (and uncounted) when nothing is dirty, so write-through
        callers can flush unconditionally at commit points.
        """
        with self._lock:
            if not self._dirty:
                return 0
            with self.tracer.trace("pager.flush"):
                for block_id in sorted(self._dirty):
                    self.stats.bump("disk_writes")
                    self.disk.write_block(block_id, self._raw.peek(block_id))
                flushed = len(self._dirty)
                self._dirty.clear()
                self.stats.bump("flushes")
                # clean pages are evictable again
                self._raw.enforce_capacity()
                return flushed

    def discard_dirty(self) -> int:
        """Drop every dirty page *without* writing it (rollback support).

        The platter keeps whatever it last held for those blocks; their
        cached bytes are dropped, so a rolled-back page can never be
        served.  Returns the number of pages discarded.
        """
        with self._lock:
            dropped = len(self._dirty)
            for block_id in self._dirty:
                self._raw.invalidate(block_id)
            self._dirty.clear()
            self._raw.enforce_capacity()
            return dropped

    def invalidate(self, block_id: int) -> None:
        """Drop a block from the cache (e.g. after deallocation).

        A dirty page is dropped unwritten: the block is dead, its bytes
        must not resurface at the next flush.
        """
        with self._lock:
            self._raw.invalidate(block_id)
            self._dirty.discard(block_id)

    def reset_stats(self) -> None:
        """Zero :class:`PagerStats`, the one tally of the pager's hits,
        misses and writes."""
        self.stats.reset()

    def clear_cache(self) -> None:
        """Empty the cache; used to force cold benchmark runs.

        Dirty pages are flushed first -- clearing the cache must never
        lose written data.  Never call this inside a transaction scope:
        flushing would push uncommitted pages past the rollback point
        (use :meth:`drop_clean_cache` there instead).
        """
        with self._lock:
            self.flush()
            self._raw.clear()

    def drop_clean_cache(self) -> None:
        """Drop every *clean* cached page.

        The transaction-safe cold-cache path: dirty pages are neither
        flushed nor dropped, so uncommitted work stays exactly as
        discardable as it was.
        """
        with self._lock:
            for block_id in self._raw.keys():
                if block_id not in self._dirty:
                    self._raw.invalidate(block_id)

    def _write_if_dirty(self, block_id: int, data: bytes) -> None:
        """Raw-cache eviction callback: a dirty page's last chance to
        reach disk (runs under both the pager and cache locks)."""
        if block_id in self._dirty:
            self.stats.bump("disk_writes")
            self.stats.bump("dirty_evictions")
            self.disk.write_block(block_id, data)
            self._dirty.discard(block_id)
