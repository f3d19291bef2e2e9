"""A generic thread-safe LRU cache: the read path's one caching primitive.

Two layers of the read path keep recently-produced values around -- the
pager holds raw block bytes, the record store holds deciphered slot
tuples -- and before this module each layer grew its own ad-hoc
``OrderedDict`` with its own locking and its own half of the statistics.
:class:`LRUCache` unifies them: one eviction policy, one stats shape (so
the cluster layer can sum cache counters leaf-wise like every other
counter dict), and two hooks the storage layers need:

* **eviction protection** -- a ``may_evict`` predicate consulted at
  eviction time (a protected entry is never chosen; the cache may
  temporarily exceed its capacity).  The write-back pager uses it to
  exempt dirty pages while ``retain_dirty`` is raised, so a
  transaction's uncommitted pages stay discardable for rollback.
* **eviction callback** -- invoked for entries *evicted by capacity
  pressure* (not for explicit :meth:`invalidate`/:meth:`clear`), which
  is where the pager's evict-writes-dirty policy lives.

Security note: a cache above an encipherment boundary holds *plaintext*,
and holds it only in memory.  Nothing here changes what reaches a disk
-- ciphertext traffic is byte-identical with the cache on or off; only
the number of decryptions performed to serve reads changes.  That
invariant is what benchmark C9 asserts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`LRUCache`.

    All fields are plain numbers so a snapshot can be merged leaf-wise
    by :func:`repro.cluster.stats.merge_counter_dicts`.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict[str, int]:
        """The counters as a mergeable plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


#: Sentinel distinguishing "absent" from a cached ``None``.
_ABSENT = object()


class LRUCache:
    """Thread-safe LRU mapping with an eviction predicate and callback.

    Parameters
    ----------
    capacity:
        Budget in entries (for the storage layers: blocks).  ``0``
        disables the cache: every :meth:`get` misses, and a :meth:`put`
        of an evictable entry stores it only to evict it immediately
        (firing ``on_evict``) -- which is exactly how a write-back pager
        with no cache degenerates to write-through.  Read paths should
        guard their fill with :attr:`enabled` to skip that churn.
    on_evict:
        Called as ``on_evict(key, value)`` for each entry evicted by
        capacity pressure, *outside* LRU bookkeeping but under the cache
        lock (keep it brief).  Not called by :meth:`invalidate` or
        :meth:`clear` -- explicit removal means the caller already knows.
    may_evict:
        Optional predicate consulted *at eviction time*: entries for
        which it returns ``False`` are skipped.  It sees the caller's
        *current* state, so a policy toggle (the pager's
        ``retain_dirty``) protects entries that were inserted before the
        toggle.  Callers whose predicate can flip back to permissive
        should :meth:`enforce_capacity` afterwards.
    name:
        Label for diagnostics and ``repr``.
    """

    def __init__(
        self,
        capacity: int,
        on_evict: Callable[[Hashable, object], None] | None = None,
        may_evict: Callable[[Hashable], bool] | None = None,
        name: str = "lru",
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.name = name
        self.stats = CacheStats()
        self._capacity = capacity
        self._on_evict = on_evict
        self._may_evict = may_evict
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        # Reentrant: an on_evict callback may invalidate() other keys.
        self._lock = threading.RLock()

    # -- configuration ---------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def enabled(self) -> bool:
        return self._capacity > 0

    def resize(self, capacity: int) -> None:
        """Change the entry budget; shrinking evicts LRU-first."""
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        with self._lock:
            self._capacity = capacity
            self._evict_over_capacity()

    # -- lookup / insertion ----------------------------------------------

    def get(self, key: Hashable, default: object = None) -> object:
        """Return the cached value (now most-recently-used) or ``default``."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def touch(self, key: Hashable, default: object = None) -> object:
        """Like :meth:`get` but books no statistics.

        For an owner that tallies hits and misses itself (the pager's
        :class:`~repro.storage.pager.PagerStats`), so each is counted once.
        """
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                return default
            self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable, default: object = None) -> object:
        """Like :meth:`get` but touches neither LRU order nor statistics."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            return default if value is _ABSENT else value

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh an entry, then re-apply the capacity bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            self._evict_over_capacity()

    def enforce_capacity(self) -> None:
        """Re-apply the capacity bound (after a ``may_evict`` state change)."""
        with self._lock:
            self._evict_over_capacity()

    # -- removal ---------------------------------------------------------

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` (protected or not); returns whether it was cached.

        The eviction callback is *not* invoked -- invalidation is the
        caller declaring the entry dead, not the cache shedding load.
        """
        with self._lock:
            if self._entries.pop(key, _ABSENT) is _ABSENT:
                return False
            self.stats.invalidations += 1
            return True

    def clear(self) -> int:
        """Drop everything (protected entries too); returns the number dropped."""
        with self._lock:
            dropped = len(self._entries)
            self.stats.invalidations += dropped
            self._entries.clear()
            return dropped

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        """The cached keys, LRU-first (eviction order)."""
        with self._lock:
            return list(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<LRUCache {self.name!r} {len(self)}/{self._capacity} entries, "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )

    # -- internals -------------------------------------------------------

    def _evict_over_capacity(self) -> None:
        # callers hold self._lock; with capacity 0 every entry is over
        # budget -- the degenerate behaviour write-back pagers rely on
        while len(self._entries) > self._capacity:
            victim = next(
                (k for k in self._entries if self._may_evict is None or self._may_evict(k)),
                _ABSENT,
            )
            if victim is _ABSENT:
                return  # everything is protected; bound restored later
            value = self._entries.pop(victim)
            self.stats.evictions += 1
            if self._on_evict is not None:
                self._on_evict(victim, value)
