"""Change journals: the bookkeeping behind incremental replica sync.

PR 4's process-pool executor keeps one worker *replica* per shard and
re-ships the shard's **entire** platter whenever the parent's copy has
changed -- O(database size) per mutation under mixed read/write
workloads.  The remedy is classical log shipping, adapted to the
enciphered setting: the parent journals *which* blocks changed, and a
re-sync ships only those blocks' at-rest (still enciphered) bytes plus
the small in-memory metadata.  The cipher envelope never changes shape
-- the worker receives exactly the bytes already resting on the parent's
platters, so the security analysis of the full-ship protocol carries
over verbatim.

:class:`ChangeJournal` is the per-device ledger.  Writers ``note`` the
ids they mutate into an *open* set; every committed cluster-level
mutation ``seal``\\ s the open set under the new epoch number; a sync
``collect_since(worker_epoch)`` unions the sealed sets newer than the
worker's epoch.  Three events break delta-serveability and force the
next sync back to a full ship:

* the journal has never been *checkpointed* (no full ship yet);
* a wholesale state replacement (``taint``, e.g. ``import_state``);
* history was dropped past the consumer's epoch (``max_epochs`` bound,
  or an explicit ``truncate`` after a full ship -- the snapshot subsumes
  every older entry).

The delta dataclasses (:class:`DiskDelta`, :class:`RecordStoreDelta`,
:class:`ShardDelta`) are the picklable wire format the executor ships;
they carry ids and at-rest bytes only -- bytes are fetched from the
platter at *collect* time, so repeated rewrites of one block ship its
final content once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass


class ChangeJournal:
    """Epoch-tagged sets of mutated block ids.

    Thread-safe and lock-leaf: every method takes only the journal's own
    mutex, so it may be called from under any owner lock.  ``note`` is
    the hot-path operation -- one set-add under an uncontended lock.
    Sealing is bookkeeping only: durability is the commit path's job
    (the superblock is the commit point), never the journal's.
    """

    def __init__(self, max_epochs: int = 64) -> None:
        if max_epochs < 1:
            raise ValueError("a journal must retain at least one epoch")
        self.max_epochs = max_epochs
        self._lock = threading.Lock()
        self._open: set[int] = set()
        self._sealed: "OrderedDict[int, frozenset[int]]" = OrderedDict()
        #: Earliest epoch a delta can be served *since*; ``None`` until
        #: the first checkpoint (seal-from-unknown or truncate).
        self._floor: int | None = None

    # -- producer side ---------------------------------------------------

    def note(self, item: int) -> None:
        """Record that ``item`` mutated since the last seal."""
        with self._lock:
            self._open.add(item)

    def note_many(self, items) -> None:
        with self._lock:
            self._open.update(items)

    def seal(self, epoch: int) -> None:
        """Close the open set under ``epoch``.

        Without a prior checkpoint the history *before* this seal is
        unknown (e.g. right after a wholesale import), so the entry is
        not kept: the epoch itself becomes the checkpoint -- deltas are
        serveable for consumers at ``epoch`` or newer, which is exactly
        the set of consumers that can exist (a consumer acquires an
        epoch only through a full snapshot or a delta built on one).
        """
        with self._lock:
            sealed_ids = frozenset(self._open)
            if self._floor is None:
                self._open.clear()
                self._sealed.clear()
                self._floor = epoch
            else:
                if epoch in self._sealed:
                    # a repeated seal merges rather than overwrites: an
                    # overwrite would silently drop the first seal's ids
                    # from history while consumers at older epochs still
                    # rely on them
                    self._sealed[epoch] = self._sealed[epoch] | sealed_ids
                else:
                    self._sealed[epoch] = sealed_ids
                self._open.clear()
                while len(self._sealed) > self.max_epochs:
                    dropped, _ = self._sealed.popitem(last=False)
                    self._floor = dropped  # history <= dropped is gone

    def taint(self) -> None:
        """Wholesale state replacement: all prior history is void."""
        with self._lock:
            self._open.clear()
            self._sealed.clear()
            self._floor = None

    def truncate(self, epoch: int) -> None:
        """A consumer holds a full snapshot at ``epoch``; drop older entries.

        The open set is cleared too: the caller snapshots *and* truncates
        under one owner lock, so everything noted so far is inside the
        snapshot the consumer just received.
        """
        with self._lock:
            self._open.clear()
            for sealed_epoch in [e for e in self._sealed if e <= epoch]:
                del self._sealed[sealed_epoch]
            if self._floor is None or epoch > self._floor:
                self._floor = epoch

    # -- consumer side ---------------------------------------------------

    def collect_since(self, epoch: int) -> set[int] | None:
        """Union of ids sealed after ``epoch``; ``None`` if unserveable.

        ``None`` means the journal cannot prove it saw every change since
        ``epoch`` (never checkpointed, tainted, or truncated past it) and
        the consumer needs a full snapshot instead.  The open
        (not-yet-sealed) set is *excluded*: unsealed changes belong to no
        epoch yet, and the epoch-matching consumer protocol never asks
        for them.
        """
        with self._lock:
            if self._floor is None or epoch < self._floor:
                return None
            out: set[int] = set()
            for sealed_epoch, ids in self._sealed.items():
                if sealed_epoch > epoch:
                    out |= ids
            return out

    # -- introspection ---------------------------------------------------

    @property
    def has_open(self) -> bool:
        """True when mutations were noted since the last seal."""
        with self._lock:
            return bool(self._open)

    def snapshot(self) -> dict[str, object]:
        """Debug/stats view: open count, retained epochs, floor."""
        with self._lock:
            return {
                "open_items": len(self._open),
                "sealed_epochs": len(self._sealed),
                "floor": self._floor,
            }


# -- wire format -----------------------------------------------------------


@dataclass
class DiskDelta:
    """Targeted update for one :class:`~repro.storage.device.BlockDevice`.

    ``block_writes`` maps block id to the at-rest bytes now on the
    parent's platter (``None`` for an allocated-but-never-written slot);
    ``num_blocks`` lets the replica grow its allocation to match.
    """

    num_blocks: int
    block_writes: dict[int, bytes | None]

    @property
    def payload_bytes(self) -> int:
        """At-rest payload, one id word per block, and ``num_blocks``."""
        payload = sum(
            len(data) for data in self.block_writes.values() if data is not None
        )
        return payload + 8 * len(self.block_writes) + 8


@dataclass
class RecordStoreDelta:
    """Changed record blocks plus the store's full slot metadata.

    The metadata (free list, count, open block) is tiny next to one
    block, so it ships whole on every delta; the replica's cache
    invalidation is block-grained, driven by ``disk.block_writes``.
    """

    disk: DiskDelta
    free: list[int]
    count: int
    open_block: int | None
    open_slots: list[bytes]

    @property
    def payload_bytes(self) -> int:
        return (
            self.disk.payload_bytes
            + 8 * len(self.free)
            + sum(len(s) for s in self.open_slots)
            + 16
        )


@dataclass
class ShardDelta:
    """Everything a worker replica needs to catch up to ``epoch``.

    ``tree_state`` is the index's in-memory metadata (root id, key
    count, free node list) exactly as
    :meth:`~repro.btree.tree.BTree.snapshot_state` captures it, so the
    replica applies the delta without deciphering anything -- cipher and
    disk counters stay untouched by the state transfer itself.
    """

    index: int
    epoch: int
    node: DiskDelta
    records: RecordStoreDelta
    tree_state: tuple[int, int, list[int]]

    @property
    def payload_bytes(self) -> int:
        return self.node.payload_bytes + self.records.payload_bytes + 32

    @property
    def blocks_shipped(self) -> int:
        return len(self.node.block_writes) + len(self.records.disk.block_writes)
