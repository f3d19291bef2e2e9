"""Per-key-range heat tracking.

The key universe is divided into :data:`NUM_RANGES` equal bands and
every database operation bumps the bands its keys fall in, plus an
``ops`` count and a ``busy_ns`` total.  The shape is *fixed*, so the
counts ride inside ``stats()`` like any other counter family: they merge
leaf-wise across shards, subtract cleanly in the worker-harvest
protocol, and roll up in :class:`~repro.cluster.stats.ClusterStats` --
the per-shard/per-range signal a hot-shard splitter needs (benchmark C13
asserts it across executors).

Nothing here is persisted: heat lives in memory for the life of a
handle, so turning observability on never changes what is at rest.
"""

from __future__ import annotations

from repro.counters import ThreadSafeCounters

__all__ = ["HeatMap", "NUM_RANGES", "RANGE_FIELDS"]

#: Number of equal key-universe bands tracked per shard.  Fixed so the
#: heat counters have the same shape on every shard and every worker.
NUM_RANGES = 32

RANGE_FIELDS = tuple(f"r{i:02d}" for i in range(NUM_RANGES))


class _RangeCounters(ThreadSafeCounters):
    _FIELDS = ("ops", "keys", "busy_ns") + RANGE_FIELDS


class HeatMap:
    """Key-range heat counters.

    Parameters
    ----------
    universe:
        The substitution's key universe; keys are mapped onto
        :data:`NUM_RANGES` equal bands of it.  ``None`` falls back to a
        ``[0, 2**32)`` band layout.
    enabled:
        When false every note is a no-op (one attribute check), matching
        the tracer's asymmetric-cost design.
    """

    def __init__(self, universe: range | None = None, enabled: bool = False) -> None:
        self.enabled = enabled
        if universe is None or len(universe) == 0:
            self._lo, self._span = 0, 1 << 32
        else:
            self._lo, self._span = universe.start, len(universe)
        self._ranges = _RangeCounters()

    def bucket_for(self, key: int) -> int:
        """The band index a key falls in (clamped at the universe edges)."""
        index = (key - self._lo) * NUM_RANGES // self._span
        if index < 0:
            return 0
        return index if index < NUM_RANGES else NUM_RANGES - 1

    def note_op(self, keys, duration_ns: int = 0) -> None:
        """Record one operation touching ``keys``, taking ``duration_ns``."""
        if not self.enabled:
            return
        bucket = self._ranges._mine()
        bucket["ops"] += 1
        bucket["busy_ns"] += duration_ns
        n = 0
        for key in keys:
            bucket[RANGE_FIELDS[self.bucket_for(key)]] += 1
            n += 1
        bucket["keys"] += n

    def range_bounds(self) -> list[tuple[int, int]]:
        """Inclusive ``(lo, hi)`` key bounds of every band, in band order."""
        return [
            (
                self._lo + index * self._span // NUM_RANGES,
                self._lo + (index + 1) * self._span // NUM_RANGES - 1,
            )
            for index in range(NUM_RANGES)
        ]

    def snapshot(self) -> dict[str, int]:
        """The fixed-shape, additive key-range counters."""
        return self._ranges.snapshot()
